// client.cpp — see client.hpp.

#include "client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <thread>

namespace emsbench {

int connect_unix(const std::string& path, double timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const auto t0 = Clock::now();
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    const int e = errno;
    ::close(fd);
    // Not listening yet (no socket file, or bound but not accepting):
    // retry until the deadline, never after a fixed sleep alone.
    if (e != ENOENT && e != ECONNREFUSED && e != EAGAIN && e != EINTR) {
      return -1;
    }
    if (seconds_since(t0) > timeout_s) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::size_t reply_length(const std::string& buf, std::size_t pos,
                         bool multiline) {
  const std::size_t nl = buf.find('\n', pos);
  if (nl == std::string::npos) return 0;
  if (!multiline || buf.compare(pos, 3, "OK ") != 0) return nl + 1 - pos;
  const std::size_t end = buf.find("\nEND\n", nl);
  if (end == std::string::npos) return 0;
  return end + 5 - pos;
}

Conn::~Conn() { close(); }

void Conn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void merge_latencies(const std::vector<ConnTally>& tallies, double worst_s,
                     std::vector<double>& out) {
  out.clear();
  for (const ConnTally& t : tallies) {
    for (const double l : t.latency_s) out.push_back(l < 0 ? worst_s : l);
  }
}

namespace {

/// A request awaiting its reply (or, in the retry list, its resend).
struct InFlight {
  const Request* req = nullptr;  ///< nullptr: a REFRESH
  Clock::time_point first;       ///< first send: latency runs from here
  std::uint32_t sheds = 0;       ///< SHED replies so far
  Clock::time_point due;         ///< resend time (retry list only)
};

bool is_refresh_ok(const std::string& buf, std::size_t pos, std::size_t len) {
  if (len < 5 || buf.compare(pos, 3, "OK ") != 0) return false;
  for (std::size_t i = pos + 3; i + 1 < pos + len; ++i) {
    if (buf[i] < '0' || buf[i] > '9') return false;
  }
  return true;
}

/// Backoff before the n-th resend of a shed request: 1, 2, 4, 8, 16 ms, ...
std::chrono::milliseconds shed_backoff(std::uint32_t n) {
  return std::chrono::milliseconds(1 << std::min<std::uint32_t>(n, 4));
}

}  // namespace

void Conn::run(const std::vector<Request>& reqs,
               const std::vector<std::string>& answers, std::size_t window,
               std::size_t refresh_every, Clock::time_point deadline,
               ConnTally& tally) {
  std::deque<InFlight> flight;
  std::vector<InFlight> retry;
  std::string out;
  std::size_t next = 0;
  std::size_t out_pos = 0;
  std::size_t in_pos = 0;
  in_.clear();
  char buf[1 << 16];
  tally.begin = Clock::now();

  const auto fail_rest = [&] {
    const auto lost = [&] {
      ++tally.missing;
      tally.latency_s.push_back(-1);
    };
    for (const InFlight& f : flight) {
      if (f.req == nullptr) {
        ++tally.refresh_failed;
      } else {
        lost();
      }
    }
    for (const InFlight& f : retry) {
      if (f.req == nullptr) {
        ++tally.refresh_failed;
      } else {
        lost();
      }
    }
    for (; next < reqs.size(); ++next) lost();
    flight.clear();
    retry.clear();
  };

  if (fd_ < 0) {
    fail_rest();
    tally.end = Clock::now();
    return;
  }
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  (void)::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);

  while (next < reqs.size() || !flight.empty() || !retry.empty()) {
    // Fill the window: shed requests whose backoff ran out first, then new
    // requests (with a REFRESH after every refresh_every of them).
    auto now = Clock::now();
    for (auto it = retry.begin(); it != retry.end() && flight.size() < window;) {
      if (it->due <= now) {
        out += it->req != nullptr ? it->req->line : "REFRESH\n";
        flight.push_back(*it);
        it = retry.erase(it);
      } else {
        ++it;
      }
    }
    while (flight.size() < window && next < reqs.size()) {
      if (refresh_every > 0 && since_refresh_ >= refresh_every) {
        out += "REFRESH\n";
        flight.push_back({nullptr, Clock::now(), 0, {}});
        ++tally.refreshes;
        since_refresh_ = 0;
        continue;
      }
      const Request& r = reqs[next++];
      out += r.line;
      flight.push_back({&r, Clock::now(), 0, {}});
      ++tally.sent;
      ++since_refresh_;
    }

    now = Clock::now();
    if (now >= deadline) break;
    pollfd p{};
    p.fd = fd_;
    p.events = static_cast<short>(POLLIN | (out_pos < out.size() ? POLLOUT : 0));
    // Spin: poll without sleeping, so the load generator's own wake-ups
    // (slow on a virtual machine) never enter the measured latency.
    const int pr = ::poll(&p, 1, 0);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;

    if ((p.revents & POLLOUT) != 0 && out_pos < out.size()) {
      const ssize_t w = ::send(fd_, out.data() + out_pos, out.size() - out_pos,
                               MSG_NOSIGNAL);
      if (w > 0) {
        out_pos += static_cast<std::size_t>(w);
        if (out_pos == out.size()) {
          out.clear();
          out_pos = 0;
        }
      } else if (w < 0 && errno != EAGAIN && errno != EINTR) {
        break;
      }
    }
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t r = ::read(fd_, buf, sizeof(buf));
    if (r == 0) break;  // server closed
    if (r < 0) {
      if (errno == EAGAIN || errno == EINTR) continue;
      break;
    }
    in_.append(buf, static_cast<std::size_t>(r));
    // Match every complete reply, in request order.
    while (!flight.empty()) {
      InFlight f = flight.front();
      const bool multi = f.req != nullptr && f.req->multiline;
      const std::size_t len = reply_length(in_, in_pos, multi);
      if (len == 0) break;
      const auto done = Clock::now();
      const double dt = std::chrono::duration<double>(done - f.first).count();
      if (f.req == nullptr) {
        if (is_refresh_ok(in_, in_pos, len)) {
          tally.refresh_s.push_back(dt);
        } else if (in_.compare(in_pos, 4, "ERR ") == 0 && ++f.sheds < kMaxSheds) {
          // A rebuild refused for lack of memory under load: like SHED, a
          // "retry later" (REFRESH is idempotent).
          ++tally.shed;
          f.due = done + shed_backoff(f.sheds);
          retry.push_back(f);
        } else {
          ++tally.refresh_failed;
          if (tally.first_bad.empty()) {
            tally.first_bad = "REFRESH -> " + in_.substr(in_pos, len);
          }
        }
      } else if (const std::string& want = answers[f.req->answer];
                 len == want.size() && in_.compare(in_pos, len, want) == 0) {
        ++tally.ok;
        tally.latency_s.push_back(dt);
      } else if (in_.compare(in_pos, 5, "SHED ") == 0) {
        ++tally.shed;
        if (++f.sheds < kMaxSheds) {
          f.due = done + shed_backoff(f.sheds);
          retry.push_back(f);
        } else {
          ++tally.shed_out;
          tally.latency_s.push_back(-1);
        }
      } else {
        if (in_.compare(in_pos, 4, "ERR ") == 0) {
          ++tally.err;
        } else {
          ++tally.wrong;
        }
        if (tally.first_bad.empty()) {
          tally.first_bad = f.req->line + " -> " + in_.substr(in_pos, len);
        }
        tally.latency_s.push_back(-1);
      }
      in_pos += len;
      flight.pop_front();
    }
    if (in_pos > (1 << 16)) {
      in_.erase(0, in_pos);
      in_pos = 0;
    }
  }
  if (next < reqs.size() || !flight.empty() || !retry.empty()) {
    // The connection ended early or the deadline passed: whatever is left
    // never got a reply.
    fail_rest();
    close();
  }
  in_.erase(0, in_pos);
  tally.end = Clock::now();
}

std::string Conn::call(const std::string& line, bool multiline,
                       double timeout_s) {
  if (fd_ < 0) return "";
  const auto t0 = Clock::now();
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t w = ::send(fd_, line.data() + off, line.size() - off,
                             MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
    } else if (w < 0 && errno != EAGAIN && errno != EINTR) {
      return "";
    }
    if (seconds_since(t0) > timeout_s) return "";
  }
  char buf[1 << 14];
  for (;;) {
    const std::size_t len = reply_length(in_, 0, multiline);
    if (len > 0) {
      std::string reply = in_.substr(0, len);
      in_.erase(0, len);
      return reply;
    }
    const double left = timeout_s - seconds_since(t0);
    if (left <= 0) return "";
    pollfd p{};
    p.fd = fd_;
    p.events = POLLIN;
    const int pr = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (pr < 0 && errno != EINTR) return "";
    if (pr <= 0) continue;
    const ssize_t r = ::read(fd_, buf, sizeof(buf));
    if (r == 0) return "";
    if (r < 0) {
      if (errno == EAGAIN || errno == EINTR) continue;
      return "";
    }
    in_.append(buf, static_cast<std::size_t>(r));
  }
}

}  // namespace emsbench
