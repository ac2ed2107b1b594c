// selftest.cpp — a fast check of the benchmark's own machinery at tiny
// sizes: percentiles, the host oracle, reply framing, the windowed client
// (window bound, SHED retry, failure accounting) against a scripted server,
// and the client against a real SplitterServer, with an injected wrong
// answer and an injected SHED.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "common.hpp"
#include "em/block_device.hpp"
#include "em/context.hpp"
#include "oracle.hpp"
#include "service/server.hpp"

namespace emsbench {

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest: FAILED %s\n", what.c_str());
  }
}

void test_statistics() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  check(std::fabs(quantile(v, 0.5) - 50.5) < 1e-12, "median of 1..100");
  check(std::fabs(quantile(v, 0.99) - 99.01) < 1e-9, "p99 of 1..100");
  check(quantile(v, 0.0) == 1 && quantile(v, 1.0) == 100, "quantile ends");
  std::vector<double> one{7};
  check(quantile(one, 0.99) == 7, "quantile of one sample");
  std::vector<double> none;
  check(quantile(none, 0.5) == 0, "quantile of nothing");
  check(median({3, 1, 2}) == 2, "median");
}

void test_framing() {
  check(reply_length("OK 5\nOK 6\n", 0, false) == 5, "one-line reply");
  check(reply_length("OK 5\nOK 6\n", 5, false) == 5, "second reply");
  check(reply_length("OK 5", 0, false) == 0, "incomplete line");
  const std::string h = "OK 2 9\nBUCKET 4 10\nBUCKET 5\nEND\nOK 1\n";
  check(reply_length(h, 0, true) == h.size() - 5, "multi-line reply");
  check(reply_length("OK 2 9\nBUCKET 4 10\n", 0, true) == 0,
        "multi-line reply without END");
  check(reply_length("SHED busy\nOK 1\n", 0, true) == 10,
        "SHED to a multi-line request is one line");
}

void test_oracle() {
  Oracle o;
  o.sorted = make_records(1000, 5);
  std::sort(o.sorted.begin(), o.sorted.end());
  check(o.rank(o.sorted[9].key) == 10, "oracle rank");
  check(o.count(o.sorted[9].key, o.sorted[19].key) == 10, "oracle range");
  check(o.count(o.sorted[19].key, o.sorted[9].key) == 0, "oracle empty range");

  // A two-bucket histogram cut after the 400th record.
  const std::string good = "OK 2 1000\nBUCKET 400 " +
                           std::to_string(o.sorted[399].key) +
                           "\nBUCKET 600\nEND\n";
  check(o.hist_reply_ok(good, 2), "histogram accepted");
  std::string bad = good;
  bad.replace(bad.find("400 "), 3, "401");
  check(!o.hist_reply_ok(bad, 2), "histogram with a wrong size refused");
  check(!o.hist_reply_ok(good, 3), "histogram with a wrong k refused");

  const std::string top = o.topk_reply(2, true);
  check(top == "OK 2\nREC " + std::to_string(o.sorted[998].key) + " " +
                   std::to_string(o.sorted[998].payload) + "\nREC " +
                   std::to_string(o.sorted[999].key) + " " +
                   std::to_string(o.sorted[999].payload) + "\nEND\n",
        "top-k reply");

  const std::vector<emsplit::Record> s{o.sorted[249], o.sorted[599]};
  check(o.splitter_ranks_ok(s, {0, 250, 600, 1000}), "splitter ranks accepted");
  check(!o.splitter_ranks_ok(s, {0, 251, 600, 1000}),
        "splitter ranks off by one refused");
}

/// A scripted line server on a Unix socket: answers "Q <i>" with "OK <i>",
/// except for the scripted faults, and records the most requests it ever
/// held unanswered.  Closes the connection after `close_after` replies.
class ScriptedServer {
 public:
  ScriptedServer(const std::string& path, std::size_t close_after)
      : path_(path), close_after_(close_after) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    ::unlink(path.c_str());
    lfd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (::bind(lfd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(lfd_, 4) != 0) {
      check(false, "scripted server listens");
    }
    thread_ = std::thread([this] { serve(); });
  }
  ~ScriptedServer() {
    thread_.join();
    ::close(lfd_);
    ::unlink(path_.c_str());
  }
  ScriptedServer(const ScriptedServer&) = delete;
  ScriptedServer& operator=(const ScriptedServer&) = delete;

  [[nodiscard]] std::size_t max_unanswered() const { return max_unanswered_; }

 private:
  void serve() {
    const int fd = ::accept(lfd_, nullptr, nullptr);
    if (fd < 0) return;
    std::string buf;
    char tmp[4096];
    std::size_t replied = 0, received = 0, shed_10 = 0;
    while (replied < close_after_) {
      const ssize_t r = ::read(fd, tmp, sizeof(tmp));
      if (r <= 0) break;
      // Let the client fill its window before answering.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      buf.append(tmp, static_cast<std::size_t>(r));
      received += static_cast<std::size_t>(std::count(buf.begin(), buf.end(), '\n'));
      max_unanswered_ = std::max(max_unanswered_.load(), received - replied);
      std::string out;
      std::size_t nl;
      while ((nl = buf.find('\n')) != std::string::npos) {
        const std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        const std::size_t i = std::stoul(line.substr(2));
        if (i == 10 && shed_10++ == 0) {
          out += "SHED busy\n";  // shed once, then answered
        } else if (i == 20) {
          out += "OK 999\n";     // a wrong answer
        } else if (i == 30) {
          out += "ERR nope\n";
        } else if (i == 40) {
          out += "SHED always\n";  // shed until the client gives up
        } else {
          out += "OK " + std::to_string(i) + "\n";
        }
        ++replied;
        if (replied == close_after_) break;
      }
      if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) < 0) break;
    }
    ::close(fd);
  }

  std::string path_;
  std::size_t close_after_;
  int lfd_ = -1;
  std::atomic<std::size_t> max_unanswered_{0};
  std::thread thread_;
};

void make_requests(std::size_t n, std::vector<Request>& reqs,
                   std::vector<std::string>& answers) {
  for (std::size_t i = 0; i < n; ++i) {
    reqs.push_back({"Q " + std::to_string(i) + "\n",
                    static_cast<std::uint32_t>(answers.size()), false});
    answers.push_back("OK " + std::to_string(i) + "\n");
  }
}

void test_client(const std::string& dir) {
  std::vector<Request> reqs;
  std::vector<std::string> answers;
  make_requests(1000, reqs, answers);
  const std::size_t window = 8;
  ConnTally t;
  {
    ScriptedServer server(dir + "/scripted.sock", ~std::size_t{0});
    Conn c(connect_unix(dir + "/scripted.sock", 5.0));
    check(c.open(), "client connects");
    c.run(reqs, answers, window, 0, Clock::now() + std::chrono::seconds(30), t);
    c.close();
    check(server.max_unanswered() <= window, "window bounds requests in flight");
    check(server.max_unanswered() > 1, "requests are pipelined");
  }
  check(t.sent == 1000, "every request sent once");
  check(t.ok == 997, "answered requests counted, shed-then-answered included");
  check(t.wrong == 1 && t.err == 1, "wrong answer and ERR counted");
  check(t.shed == 1 + kMaxSheds, "every SHED reply counted");
  check(t.shed_out == 1, "request shed too often counted as failed");
  check(t.failed() == 3, "failure totals");
  std::vector<double> lat;
  merge_latencies({t}, 123.0, lat);
  check(lat.size() == 1000, "one latency per request");
  check(std::count(lat.begin(), lat.end(), 123.0) == 3,
        "failed requests take the worst latency");
  check(quantile(lat, 0.999) == 123.0, "failures reach the tail");

  // The server hangs up after 50 replies: the other 50 are missing.
  ConnTally cut;
  const std::vector<Request> first(reqs.begin() + 100, reqs.begin() + 200);
  {
    ScriptedServer server(dir + "/cut.sock", 50);
    Conn c(connect_unix(dir + "/cut.sock", 5.0));
    c.run(first, answers, window, 0, Clock::now() + std::chrono::seconds(30),
          cut);
  }
  check(cut.ok == 50 && cut.missing == 50,
        "replies lost to a closed connection counted");
  check(cut.failed() == 50, "lost replies are failures");
}

/// The client against a real SplitterServer at tiny sizes.
void test_real_server(const std::string& dir) {
  const std::string source = dir + "/tiny.bin";
  Oracle o;
  o.sorted = make_records(20000, 9);
  write_records(source, o.sorted);
  std::sort(o.sorted.begin(), o.sorted.end());

  emsplit::FileBlockDevice dev(dir + "/tiny-dev.bin", 4096);
  emsplit::Context ctx(dev, 256 * 4096);
  emsplit::SplitterServer::Config cfg;
  cfg.source_path = source;
  cfg.buckets = 16;
  cfg.bucket_cache_blocks = 64;
  emsplit::SplitterServer server(ctx, cfg);
  server.start();
  const std::string sock = dir + "/tiny.sock";
  std::atomic<bool> done{false};
  std::thread listener([&] {
    server.serve_unix(sock);
    done.store(true);
  });

  // Many pipelined requests with a bounded window: all answered, exactly.
  std::vector<Request> reqs;
  std::vector<std::string> answers;
  for (std::size_t i = 0; i < 50000; ++i) {
    const std::size_t r = (i * 7919) % o.sorted.size();
    if (i % 100 == 99) {
      reqs.push_back({"TOPK 5 MIN\n", static_cast<std::uint32_t>(answers.size()),
                      true});
      answers.push_back(o.topk_reply(5, false));
    } else {
      reqs.push_back({"RANK " + std::to_string(o.sorted[r].key) + "\n",
                      static_cast<std::uint32_t>(answers.size()), false});
      answers.push_back("OK " + std::to_string(r + 1) + "\n");
    }
  }
  answers[reqs[123].answer] = "OK 0\n";  // inject one wrong expectation
  ConnTally t;
  {
    Conn c(connect_unix(sock, 5.0));
    c.run(reqs, answers, 64, 0, Clock::now() + std::chrono::seconds(60), t);
    // An injected SHED: with the budget held, the server sheds; the client
    // retries until the budget comes back, and counts the shed replies.
    ConnTally s;
    std::vector<emsplit::MemoryReservation> hold;
    while (auto r = ctx.budget().try_reserve(4096)) hold.push_back(std::move(*r));
    std::thread release([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      hold.clear();
    });
    const std::vector<Request> one(reqs.begin(), reqs.begin() + 1);
    c.run(one, answers, 1, 0, Clock::now() + std::chrono::seconds(30), s);
    release.join();
    check(s.shed > 0 && s.ok == 1 && s.failed() == 0,
          "a shed request is counted, retried and then answered (shed " +
              std::to_string(s.shed) + ", ok " + std::to_string(s.ok) + ", " +
              s.first_bad + ")");
  }
  check(t.sent == reqs.size() && t.missing == 0, "no deadlock, no lost reply");
  check(t.wrong == 1 && t.ok == reqs.size() - 1,
        "exact answers, and the injected wrong answer counted");

  {
    Conn c(connect_unix(sock, 5.0));
    check(c.call("SHUTDOWN\n", false, 5.0) == "OK bye\n", "SHUTDOWN answered");
  }
  server.stop();
  const auto t0 = Clock::now();
  while (!done.load() && seconds_since(t0) < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  check(done.load(), "server stops within the deadline");
  if (!done.load()) {
    std::fprintf(stderr, "selftest: server hung; giving up\n");
    std::_Exit(1);
  }
  listener.join();
}

}  // namespace

int run_selftest(const std::string& dir) {
  test_statistics();
  test_framing();
  test_oracle();
  test_client(dir);
  test_real_server(dir);
  if (failures == 0) {
    std::printf("selftest: all checks passed\n");
    return 0;
  }
  std::printf("selftest: %d checks failed\n", failures);
  return 1;
}

}  // namespace emsbench
