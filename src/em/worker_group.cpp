// worker_group.cpp — forked rounds over pipes, the round supervisor, and the
// inline fallback.
#include "em/worker_group.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <thread>

#include "em/fnv.hpp"

namespace emsplit {

namespace {

// Frame tag so a torn pipe is distinguishable from a protocol bug.
constexpr std::uint64_t kFrameMagic = 0x454D'5750'524Bull;
// Frame header: magic, body length, FNV-1a of the body.  The length lets the
// parent drain frames incrementally (poll-driven hang detection needs to
// know when a frame is complete without blocking), and the checksum makes a
// corrupt frame detectable instead of silently absorbed.
constexpr std::size_t kHeaderBytes = 3 * sizeof(std::uint64_t);
constexpr std::uint64_t kMaxBodyBytes = 1ull << 34;

bool write_full(int fd, const void* p, std::size_t n) noexcept {
  const char* b = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t k = ::write(fd, b, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    b += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

void put_stats(WireWriter& w, const IoStats& s) {
  w.u64(s.reads);
  w.u64(s.writes);
  w.u64(s.retries);
  w.u64(s.worker_retries);
}

IoStats get_stats(WireReader& r) {
  IoStats s;
  s.reads = r.u64();
  s.writes = r.u64();
  s.retries = r.u64();
  s.worker_retries = r.u64();
  return s;
}

/// One worker's frame body as the parent decodes it.  `status` 0 = payload
/// is the body's blob; 1 = the body threw and payload is the message.
struct Frame {
  std::uint64_t status = 0;
  IoStats io;
  double busy = 0.0;
  std::uint64_t peak_bytes = 0;
  std::vector<SumEntry> sums;
  std::vector<std::byte> payload;
};

std::optional<Frame> parse_body(std::span<const std::byte> body) {
  try {
    WireReader r(body);
    Frame f;
    f.status = r.u64();
    f.io = get_stats(r);
    f.busy = r.f64();
    f.peak_bytes = r.u64();
    f.sums = r.pod_vec<SumEntry>();
    f.payload = r.pod_vec<std::byte>();
    if (!r.done()) return std::nullopt;
    return f;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Child side of one round.  Never returns; never runs destructors (_exit):
/// the device handle, its backing file and the parent's journal must survive
/// this process untouched.
[[noreturn]] void child_main(int fd, Context& parent, std::size_t w,
                             std::uint64_t round_no,
                             const WorkerGroup::RoundBody& body) {
  const WorkerTuning wt = parent.worker_tuning();
  if (wt.kill_round == round_no && wt.kill_worker == w) ::_exit(137);
  BlockDevice& dev = parent.device();
  // Drop what must not be shared with the parent before the first transfer.
  dev.child_after_fork();
  // Checksum-table updates from this child's writes die with its address
  // space unless shipped home — track them from here on and put the dirty
  // entries in the frame for the parent to merge.
  dev.set_sum_tracking(true);
  IoStats io0;
  WireWriter frame;
  try {
    io0 = dev.stats();
    // Each worker plans against (and is budgeted) M / mem_workers, so any
    // W <= mem_workers keeps the aggregate in-flight footprint <= M.  The
    // model floor M >= 2B still applies per worker.
    const std::size_t wmem = std::max(parent.mem_bytes() / wt.mem_workers,
                                      2 * dev.block_bytes());
    Context cctx(dev, wmem);
    // Same stream geometry as the parent.
    cctx.set_io_tuning(parent.io_tuning());
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<std::byte> payload = body(cctx, w);
    const double busy =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    frame.u64(0);
    put_stats(frame, dev.stats() - io0);
    frame.f64(busy);
    frame.u64(cctx.budget().peak());
    const std::vector<SumEntry> sums = dev.take_dirty_sums();
    frame.pod_span<SumEntry>(sums);
    frame.pod_span<std::byte>(payload);
  } catch (const std::exception& e) {
    frame = WireWriter{};
    frame.u64(1);
    put_stats(frame, dev.stats() - io0);
    frame.f64(0.0);
    frame.u64(0);
    // Writes performed before the throw recorded checksums — ship them, the
    // blocks really changed.
    const std::vector<SumEntry> sums = dev.take_dirty_sums();
    frame.pod_span<SumEntry>(sums);
    const std::string msg = e.what();
    frame.pod_span<char>(std::span<const char>(msg.data(), msg.size()));
  } catch (...) {
    ::_exit(2);
  }
  std::vector<std::byte> bodybuf = frame.take();
  WireWriter head;
  head.u64(kFrameMagic);
  head.u64(bodybuf.size());
  head.u64(fnv1a(bodybuf));
  const std::vector<std::byte> headbuf = head.take();
  // Corruption injection: flip one body byte *after* the header checksum is
  // computed — exactly what a torn pipe or a flaky transport would deliver.
  if (wt.corrupt_round == round_no && wt.corrupt_worker == w &&
      !bodybuf.empty()) {
    bodybuf.back() ^= std::byte{1};
  }
  // Hang injection: the work is done and the frame built, but it never
  // leaves — proving the supervisor's re-execution of *completed* units is
  // safe (the unit schedule is idempotent).
  if (wt.hang_round == round_no && wt.hang_worker == w) {
    for (;;) ::pause();
  }
  const bool ok = write_full(fd, headbuf.data(), headbuf.size()) &&
                  write_full(fd, bodybuf.data(), bodybuf.size());
  ::_exit(ok ? 0 : 3);
}

/// Incremental receive state of one worker's frame.
struct Rx {
  std::vector<std::byte> buf;
  bool open = true;       ///< fd still registered with poll
  bool complete = false;  ///< header + full body received
  bool timed_out = false;  ///< SIGKILLed past the round deadline
  bool bad_header = false;  ///< magic or length invalid

  /// Expected total frame size, or 0 while the header is incomplete.
  [[nodiscard]] std::size_t expect() const noexcept {
    if (buf.size() < kHeaderBytes) return 0;
    std::uint64_t magic = 0;
    std::uint64_t len = 0;
    std::memcpy(&magic, buf.data(), sizeof(magic));
    std::memcpy(&len, buf.data() + sizeof(magic), sizeof(len));
    if (magic != kFrameMagic || len > kMaxBodyBytes) return SIZE_MAX;
    return kHeaderBytes + static_cast<std::size_t>(len);
  }
};

std::string exit_detail(int status) {
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) {
    return "signal " + std::to_string(WTERMSIG(status));
  }
  return "no status";
}

}  // namespace

WorkerGroup::WorkerGroup(Context& ctx)
    : ctx_(&ctx), workers_(ctx.worker_tuning().workers) {
  if (workers_ == 0) {
    throw std::invalid_argument("WorkerGroup: workers must be >= 1");
  }
  BlockDevice& dev = ctx.device();
  forked_ =
      dev.fork_safe() && std::getenv("EMSPLIT_WORKERS_INLINE") == nullptr;
}

RoundOutcome WorkerGroup::round(const char* label, const RoundBody& body) {
  ++round_no_;
  (void)label;
  RoundOutcome out = forked_ ? round_forked(body) : round_inline(body);
  // Elastic degradation, applied strictly *between* rounds: callers capture
  // workers() when they build a round body, so the width must only change
  // after the current round's outcome is in hand — the next body then plans
  // its unit ownership (unit_begin in dist_plan.hpp) against the new width.
  // W-invariance makes the narrower group produce bit-identical output.
  const WorkerTuning wt = ctx_->worker_tuning();
  if (wt.degrade_after > 0 && failures_ >= wt.degrade_after && workers_ > 1) {
    workers_ = std::max<std::size_t>(1, workers_ / 2);
    failures_ = 0;
    ctx_->note_supervision(SupervisionEvent{
        round_no_, workers_, "degrade",
        "re-planning remaining rounds at " + std::to_string(workers_) +
            " workers"});
  }
  return out;
}

void WorkerGroup::recover_worker(std::size_t w, const RoundBody& body,
                                 RoundOutcome& out) {
  const WorkerTuning wt = ctx_->worker_tuning();
  BlockDevice& dev = ctx_->device();
  for (std::uint64_t attempt = 1; attempt <= wt.max_worker_retries;
       ++attempt) {
    if (wt.retry_backoff.count() > 0) {
      const std::uint64_t shift = std::min<std::uint64_t>(attempt - 1, 20);
      std::this_thread::sleep_for(wt.retry_backoff * (std::uint64_t{1} << shift));
    }
    ctx_->note_supervision(SupervisionEvent{
        round_no_, w, "retry", "attempt " + std::to_string(attempt)});
    const IoStats io0 = dev.stats();
    const auto t0 = std::chrono::steady_clock::now();
    try {
      out.payloads[w] = body(*ctx_, w);
    } catch (const std::exception& e) {
      if (attempt == wt.max_worker_retries) {
        ctx_->note_supervision(
            SupervisionEvent{round_no_, w, "give-up", e.what()});
        throw WorkerDied(
            w, "worker " + std::to_string(w) + " failed round " +
                   std::to_string(round_no_) + " after " +
                   std::to_string(attempt) + " retries: " + e.what());
      }
      continue;
    }
    const double busy =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // The re-executed transfers just landed in the parent's base counters —
    // exactly replacing the counters the lost frame would have reported, so
    // base I/O matches the fault-free run.  Their volume is additionally
    // attributed to worker_retries, like device retries next to base counts.
    IoStats delta = dev.stats() - io0;
    const std::uint64_t redone = delta.reads + delta.writes;
    delta.worker_retries += redone;
    dev.note_worker_retries(redone);
    out.rows[w] = PassWorkerIo{w, delta, busy, 0.0, 0};
    return;
  }
}

RoundOutcome WorkerGroup::round_forked(const RoundBody& body) {
  const WorkerTuning wt = ctx_->worker_tuning();
  BlockDevice& dev = ctx_->device();
  // Let the backend reach the state fork sharing needs (materialize shared
  // pages) before any child exists.
  dev.prepare_fork();
  struct Child {
    pid_t pid = -1;
    int rfd = -1;
  };
  std::vector<Child> kids;
  kids.reserve(workers_);
  const auto abort_spawn = [&kids]() noexcept {
    for (const Child& c : kids) {
      if (c.rfd >= 0) ::close(c.rfd);
      if (c.pid > 0) ::waitpid(c.pid, nullptr, 0);
    }
  };
  for (std::size_t w = 0; w < workers_; ++w) {
    int fds[2];
    if (::pipe(fds) != 0) {
      abort_spawn();
      throw std::runtime_error("WorkerGroup: pipe() failed");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      abort_spawn();
      throw std::runtime_error("WorkerGroup: fork() failed");
    }
    if (pid == 0) {
      // Only this worker's write end stays open in the child; stray handles
      // on siblings' pipes would keep their EOFs from ever arriving.
      for (const Child& c : kids) ::close(c.rfd);
      ::close(fds[0]);
      child_main(fds[1], *ctx_, w, round_no_, body);
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    kids.push_back({pid, fds[0]});
  }

  // Barrier: poll-driven drain of every pipe to a complete frame (or EOF).
  // With a worker_timeout set, the whole round has one deadline; children
  // whose frames are incomplete at expiry are SIGKILLed and treated as
  // crashes.  Without one, this blocks exactly like the classic drain.
  std::vector<Rx> rx(workers_);
  const bool deadline_armed = wt.worker_timeout > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              deadline_armed ? wt.worker_timeout : 0.0));
  std::size_t open = workers_;
  while (open > 0) {
    std::vector<pollfd> pfds;
    std::vector<std::size_t> owner;
    pfds.reserve(open);
    owner.reserve(open);
    for (std::size_t w = 0; w < workers_; ++w) {
      if (!rx[w].open) continue;
      pfds.push_back(pollfd{kids[w].rfd, POLLIN, 0});
      owner.push_back(w);
    }
    int timeout_ms = -1;
    if (deadline_armed) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(std::max<long long>(left.count(), 0));
    }
    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failed: fall through, EOF-less workers fail below
    }
    if (rc == 0) {
      // Deadline expired: every incomplete worker is hung.  SIGKILL them —
      // the reaped status makes the timeout visible, and a worker that was
      // merely slow costs only a re-execution (the units are idempotent).
      for (std::size_t w = 0; w < workers_; ++w) {
        if (!rx[w].open) continue;
        ::kill(kids[w].pid, SIGKILL);
        rx[w].timed_out = true;
        ::close(kids[w].rfd);
        rx[w].open = false;
        --open;
      }
      break;
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::size_t w = owner[i];
      Rx& r = rx[w];
      bool eof = false;
      for (;;) {
        std::byte chunk[65536];
        const ssize_t k = ::read(kids[w].rfd, chunk, sizeof(chunk));
        if (k > 0) {
          r.buf.insert(r.buf.end(), chunk, chunk + k);
          const std::size_t want = r.expect();
          if (want == SIZE_MAX) {
            r.bad_header = true;
          } else if (want > 0 && r.buf.size() >= want) {
            r.complete = r.buf.size() == want;  // trailing bytes = corrupt
            if (!r.complete) r.bad_header = true;
          }
          if (r.bad_header || r.complete) break;
          continue;
        }
        if (k < 0 && errno == EINTR) continue;
        if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        eof = true;  // EOF (k == 0) or a hard error: the channel is finished
        break;
      }
      // Done with this channel once a full frame arrived, the framing broke,
      // or the writer closed its end (an incomplete buffer then is a death,
      // classified below).  A drained-but-unfinished channel stays open.
      if (r.complete || r.bad_header || eof ||
          (pfds[i].revents & (POLLHUP | POLLERR)) != 0) {
        ::close(kids[w].rfd);
        r.open = false;
        --open;
      }
    }
  }
  // Close any fd still open (poll failure path).
  for (std::size_t w = 0; w < workers_; ++w) {
    if (rx[w].open) {
      ::close(kids[w].rfd);
      rx[w].open = false;
    }
  }
  std::vector<int> status(workers_, 0);
  for (std::size_t w = 0; w < workers_; ++w) {
    ::waitpid(kids[w].pid, &status[w], 0);
  }

  // Decode: a worker either produced a verified frame, or failed in one of
  // three ways — timeout, corrupt frame (header checksum mismatch / torn
  // framing), or death (EOF before a complete frame).
  struct Failure {
    std::string kind;
    std::string detail;
  };
  std::vector<std::optional<Frame>> frames(workers_);
  std::vector<std::optional<Failure>> fails(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    const Rx& r = rx[w];
    if (r.timed_out) {
      fails[w] = Failure{"timeout",
                         "no frame within the round deadline; SIGKILLed"};
      continue;
    }
    if (!r.complete || r.bad_header) {
      if (r.bad_header) {
        fails[w] = Failure{"corrupt-frame", "torn or invalid framing"};
      } else {
        fails[w] = Failure{"death", exit_detail(status[w])};
      }
      continue;
    }
    std::uint64_t declared_sum = 0;
    std::memcpy(&declared_sum, r.buf.data() + 2 * sizeof(std::uint64_t),
                sizeof(declared_sum));
    const std::span<const std::byte> bodyspan(r.buf.data() + kHeaderBytes,
                                              r.buf.size() - kHeaderBytes);
    if (fnv1a(bodyspan) != declared_sum) {
      fails[w] = Failure{"corrupt-frame", "frame checksum mismatch"};
      continue;
    }
    frames[w] = parse_body(bodyspan);
    if (!frames[w]) {
      fails[w] = Failure{"corrupt-frame", "frame body undecodable"};
    }
  }

  // The children's transfers moved real blocks of the shared device; fold
  // every *verified* frame's delta back into the parent's counters —
  // including a status-1 worker's (its I/O happened too) — and merge the
  // checksum-table updates its writes recorded.  A corrupt frame's numbers
  // cannot be trusted and are discarded whole; the supervisor re-executes
  // that worker's units instead, which regenerates both counters and sums.
  RoundOutcome out;
  out.payloads.resize(workers_);
  out.rows.resize(workers_);
  double max_busy = 0.0;
  for (std::size_t w = 0; w < workers_; ++w) {
    if (!frames[w]) continue;
    dev.absorb_stats(frames[w]->io);
    if (!frames[w]->sums.empty()) dev.merge_sums(frames[w]->sums);
    out.rows[w] = PassWorkerIo{w, frames[w]->io, frames[w]->busy, 0.0,
                               frames[w]->peak_bytes};
    max_busy = std::max(max_busy, frames[w]->busy);
  }
  for (std::size_t w = 0; w < workers_; ++w) {
    if (frames[w] && frames[w]->status == 0) {
      out.rows[w].barrier_seconds = max_busy - out.rows[w].seconds;
      out.payloads[w] = std::move(frames[w]->payload);
    }
  }
  // Supervision: each failed worker costs one failure event; with no retry
  // budget the failure is fatal (the seed behavior), otherwise the worker's
  // units re-execute inline under recover_worker.
  for (std::size_t w = 0; w < workers_; ++w) {
    if (!fails[w]) continue;
    ++failures_;
    ctx_->note_supervision(
        SupervisionEvent{round_no_, w, fails[w]->kind, fails[w]->detail});
    if (wt.max_worker_retries == 0) {
      throw WorkerDied(w, "worker " + std::to_string(w) + " died in round " +
                              std::to_string(round_no_) + " (" +
                              fails[w]->detail + ")");
    }
    recover_worker(w, body, out);
  }
  for (std::size_t w = 0; w < workers_; ++w) {
    if (frames[w] && frames[w]->status != 0) {
      std::string msg(reinterpret_cast<const char*>(frames[w]->payload.data()),
                      frames[w]->payload.size());
      throw std::runtime_error("worker " + std::to_string(w) + ": " + msg);
    }
  }
  return out;
}

RoundOutcome WorkerGroup::round_inline(const RoundBody& body) {
  const WorkerTuning wt = ctx_->worker_tuning();
  BlockDevice& dev = ctx_->device();
  RoundOutcome out;
  out.payloads.resize(workers_);
  out.rows.resize(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    // Inline rounds have no process to kill, hang or corrupt a pipe on; all
    // three injections are simulated as a pre-body failure of this worker,
    // so the supervisor's recovery path is exercised mode-independently.
    const char* injected = nullptr;
    if (wt.kill_round == round_no_ && wt.kill_worker == w) {
      injected = "death";
    } else if (wt.hang_round == round_no_ && wt.hang_worker == w) {
      injected = "timeout";
    } else if (wt.corrupt_round == round_no_ && wt.corrupt_worker == w) {
      injected = "corrupt-frame";
    }
    if (injected != nullptr) {
      ++failures_;
      ctx_->note_supervision(SupervisionEvent{
          round_no_, w, injected, "injected inline failure"});
      if (wt.max_worker_retries == 0) {
        throw WorkerDied(w, "worker " + std::to_string(w) +
                                " killed inline in round " +
                                std::to_string(round_no_));
      }
      recover_worker(w, body, out);
      continue;
    }
    const IoStats io0 = dev.stats();
    const auto t0 = std::chrono::steady_clock::now();
    out.payloads[w] = body(*ctx_, w);
    const double busy =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // Sequential execution: the barrier is free by construction.
    out.rows[w] = PassWorkerIo{w, dev.stats() - io0, busy, 0.0, 0};
  }
  return out;
}

}  // namespace emsplit
