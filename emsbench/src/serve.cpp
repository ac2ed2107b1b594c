// serve.cpp — the serve_hot and serve_refresh workloads: a resident
// SplitterServer driven through its Unix-socket front end.
//
// The server runs in-process over a FileBlockDevice (N = 1M records,
// K = 256 buckets, M = 2048 blocks of 4 KiB, a 1024-block bucket cache,
// W = 0).  Two client threads each hold one connection and keep a bounded
// window of pipelined requests in flight (a closed loop).  Work comes in
// rounds: each connection sends the same fixed list of Q requests per round
// (so every round retains the same trace rows and moves the same logical
// I/O), and rounds repeat until the run's time is used.  Between rounds,
// outside the timed window, the harness reads and then drains the server's
// query trace, the way a deployment rotating its trace log would.
//
//   serve_hot      9 in 10 probes fall in a hot key range of 16 buckets,
//                  which the bucket cache holds.
//   serve_refresh  probes are uniform over all 256 buckets (4x the cache),
//                  and connection 0 sends REFRESH after every R queries.
//
// Every reply is checked against expected text prepared from a host oracle
// before the timed section: exact ranks, range counts and top-k records;
// histogram replies are validated against the oracle once at set-up and
// must then come back byte-identical from every epoch.

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "client.hpp"
#include "common.hpp"
#include "em/block_device.hpp"
#include "em/context.hpp"
#include "em/file_io.hpp"
#include "em/pass_engine.hpp"
#include "instruments.hpp"
#include "layers.hpp"
#include "oracle.hpp"
#include "service/server.hpp"
#include "service/splitter_index.hpp"
#include "util/rng.hpp"

namespace emsbench {

using emsplit::QueryKind;
using emsplit::Record;
using emsplit::SplitterServer;

namespace {

constexpr std::size_t kBlockBytes = 4096;
constexpr std::size_t kRecords = std::size_t{1} << 20;  // N = 1M
constexpr std::uint64_t kBuckets = 256;                 // K
constexpr std::size_t kMemBytes = 2048 * kBlockBytes;   // M = 2048 blocks
constexpr std::uint64_t kCacheBlocks = 1024;
constexpr std::size_t kBatchBlocks = 32;
constexpr std::size_t kConns = 2;
constexpr std::size_t kWindow = 4;
// Q, queries per connection per round: short rounds on serve_hot, so most
// rounds miss the host's scheduling stalls and their median is steady; one
// REFRESH cycle per round on serve_refresh, so every round pays one rebuild.
constexpr std::size_t kHotRound = 1000;
constexpr std::size_t kRefreshEvery = 5000;  // R (serve_refresh, connection 0)
constexpr double kWarmupSeconds = 1;  // rounds checked but not reported
constexpr int kInProcessRounds = 3;   // traced run: in-process timing rounds
constexpr int kSetups = 3;
constexpr std::size_t kMinRounds = 5;
constexpr double kRoundDeadline = 60;      // seconds before a round fails
constexpr double kStopDeadline = 10;       // seconds for SHUTDOWN + join
constexpr std::uint64_t kTopK = 32;

[[noreturn]] void fatal(const std::string& what) {
  std::fprintf(stderr, "emsbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(3);  // a hung thread cannot be joined; end the process
}

/// One connection's fixed round of requests, in both wire and in-process
/// form.
struct Script {
  std::vector<Request> wire;
  std::vector<SplitterServer::Request> direct;
};

struct Plan {
  std::vector<Script> scripts;       ///< one per connection
  std::vector<std::string> answers;  ///< expected reply texts
  std::vector<std::pair<std::uint64_t, std::uint32_t>> hist;  ///< k -> answer
};

Plan make_plan(const Oracle& oracle, std::uint64_t seed, bool hot,
               std::size_t per_conn) {
  const std::uint64_t n = oracle.sorted.size();
  emsplit::SplitMix64 pick(seed * 0x2545F4914F6CDD1DULL + 7);
  // The hot key range spans n/16 consecutive ranks: 16 of the 256 buckets.
  const std::uint64_t hot_len = n / 16;
  const std::uint64_t hot_lo = pick.next_below(n - hot_len);

  Plan plan;
  for (const std::uint64_t k : {16ULL, 64ULL}) {
    plan.hist.emplace_back(k, static_cast<std::uint32_t>(plan.answers.size()));
    plan.answers.emplace_back();  // validated and filled in at set-up
  }
  const auto topk_max = static_cast<std::uint32_t>(plan.answers.size());
  plan.answers.push_back(oracle.topk_reply(kTopK, true));
  const auto topk_min = static_cast<std::uint32_t>(plan.answers.size());
  plan.answers.push_back(oracle.topk_reply(kTopK, false));

  for (std::size_t c = 0; c < kConns; ++c) {
    emsplit::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL + 1000 * (c + 1));
    const auto probe = [&]() -> std::uint64_t {
      if (hot && rng.next_below(10) != 0) return hot_lo + rng.next_below(hot_len);
      return rng.next_below(n);
    };
    Script s;
    s.wire.reserve(per_conn);
    s.direct.reserve(per_conn);
    for (std::size_t i = 0; i < per_conn; ++i) {
      Request w;
      SplitterServer::Request d;
      // The kinds repeat in a fixed pattern, so every seed sends the same
      // mix; the seed picks the probes.
      const std::size_t roll = i % 8;
      if (roll < 4) {  // RANK: the probe's key has rank r + 1
        const std::uint64_t r = probe();
        const std::uint64_t key = oracle.sorted[r].key;
        d.kind = QueryKind::kRank;
        d.lo = Record{key, ~0ULL};
        w.line = "RANK " + std::to_string(key) + "\n";
        w.answer = static_cast<std::uint32_t>(plan.answers.size());
        plan.answers.push_back("OK " + std::to_string(r + 1) + "\n");
      } else if (roll < 6) {  // RANGE (lo, hi]
        std::uint64_t r1 = probe(), r2 = probe();
        if (r1 > r2) std::swap(r1, r2);
        const std::uint64_t lo = oracle.sorted[r1].key;
        const std::uint64_t hi = oracle.sorted[r2].key;
        d.kind = QueryKind::kRange;
        d.lo = Record{lo, ~0ULL};
        d.hi = Record{hi, ~0ULL};
        w.line = "RANGE " + std::to_string(lo) + " " + std::to_string(hi) + "\n";
        w.answer = static_cast<std::uint32_t>(plan.answers.size());
        plan.answers.push_back("OK " + std::to_string(r2 - r1) + "\n");
      } else if (roll == 6) {  // HIST k
        const auto& [k, id] = plan.hist[(i / 8) % plan.hist.size()];
        d.kind = QueryKind::kHistogram;
        d.k = k;
        w.line = "HIST " + std::to_string(k) + "\n";
        w.answer = id;
        w.multiline = true;
      } else {  // TOPK k, largest or smallest
        const bool largest = (i / 8) % 2 == 0;
        d.kind = QueryKind::kTopK;
        d.k = kTopK;
        d.largest = largest;
        w.line = "TOPK " + std::to_string(kTopK) + (largest ? "\n" : " MIN\n");
        w.answer = largest ? topk_max : topk_min;
        w.multiline = true;
      }
      s.wire.push_back(std::move(w));
      s.direct.push_back(d);
    }
    plan.scripts.push_back(std::move(s));
  }
  return plan;
}

/// One in-process server with its device and listener thread.  Members are
/// declared in dependency order so they are destroyed in reverse.
struct Unit {
  std::unique_ptr<emsplit::FileBlockDevice> file;
  std::unique_ptr<TimedDevice> timed;
  std::unique_ptr<PhaseClock> clock;
  emsplit::PhaseProfile profile;
  emsplit::PassTraceLog passes;
  std::unique_ptr<emsplit::Context> ctx;
  std::unique_ptr<SplitterServer> server;
  std::thread listener;
  std::atomic<bool> done{false};
  std::string error;
  std::string sock;
  double build_s = 0;
  std::uint64_t build_ios = 0;

  [[nodiscard]] emsplit::BlockDevice& device() const {
    return timed ? static_cast<emsplit::BlockDevice&>(*timed) : *file;
  }

  ~Unit() {
    if (listener.joinable()) fatal("server listener still running at teardown");
  }
};

std::unique_ptr<Unit> start_unit(const RunArgs& args, const std::string& source,
                                 int index, bool traced) {
  auto u = std::make_unique<Unit>();
  u->sock = args.dir + "/s" + std::to_string(index) + ".sock";
  u->file = std::make_unique<emsplit::FileBlockDevice>(
      args.dir + "/serve-dev-" + std::to_string(index) + ".bin", kBlockBytes);
  if (traced) u->timed = std::make_unique<TimedDevice>(*u->file);
  u->ctx = std::make_unique<emsplit::Context>(u->device(), kMemBytes);
  u->ctx->set_io_tuning(emsplit::IoTuning{kBatchBlocks, 0, false});
  SplitterServer::Config cfg;
  cfg.source_path = source;
  cfg.buckets = kBuckets;
  cfg.bucket_cache_blocks = kCacheBlocks;
  u->server = std::make_unique<SplitterServer>(*u->ctx, cfg);
  const emsplit::IoStats io0 = u->ctx->io();
  const auto t0 = Clock::now();
  u->server->start();
  u->build_s = seconds_since(t0);
  u->build_ios = (u->ctx->io() - io0).base().total();
  Unit* raw = u.get();
  u->listener = std::thread([raw] {
    try {
      raw->server->serve_unix(raw->sock);
    } catch (const std::exception& ex) {
      raw->error = ex.what();
    }
    raw->done.store(true);
  });
  return u;
}

/// SHUTDOWN over the socket, then join the listener within the deadline.
/// Returns false when SHUTDOWN did not answer "OK bye".
bool stop_unit(Unit& u) {
  bool ok = false;
  {
    Conn c(connect_unix(u.sock, 2.0));
    ok = c.call("SHUTDOWN\n", false, kStopDeadline) == "OK bye\n";
  }
  u.server->stop();
  const auto t0 = Clock::now();
  while (!u.done.load()) {
    if (seconds_since(t0) > kStopDeadline) {
      fatal("server did not stop within " + std::to_string(kStopDeadline) + " s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  u.listener.join();
  if (!u.error.empty()) {
    std::fprintf(stderr, "emsbench: listener: %s\n", u.error.c_str());
    ok = false;
  }
  return ok;
}

/// Client threads parked between rounds.  run_round() releases both and
/// waits for both with a deadline.
class Clients {
 public:
  Clients(const std::string& sock, const Plan& plan, std::size_t refresh_every)
      : plan_(plan), refresh_every_(refresh_every), tallies_(kConns) {
    for (std::size_t c = 0; c < kConns; ++c) {
      conns_.push_back(std::make_unique<Conn>(connect_unix(sock, 5.0)));
      if (!conns_.back()->open()) fatal("cannot connect to " + sock);
      tallies_[c].latency_s.reserve(plan.scripts[c].wire.size());
    }
    for (std::size_t c = 0; c < kConns; ++c) {
      threads_.emplace_back([this, c] { loop(c); });
    }
  }
  ~Clients() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;

  /// Run one round; `tick` (if set) runs on this thread every few ms while
  /// the clients work.
  void run_round(const std::function<void()>& tick = {}) {
    for (ConnTally& t : tallies_) t.clear();
    const auto t0 = Clock::now();
    {
      const std::lock_guard<std::mutex> lk(mu_);
      deadline_ = t0 + std::chrono::seconds(static_cast<int>(kRoundDeadline));
      done_ = 0;
      ++round_;
    }
    cv_.notify_all();
    std::unique_lock<std::mutex> lk(mu_);
    const auto give_up = deadline_ + std::chrono::seconds(5);
    while (done_ != kConns) {
      if (Clock::now() > give_up) fatal("client round did not finish");
      done_cv_.wait_for(lk, std::chrono::milliseconds(5));
      if (tick && done_ != kConns) {
        lk.unlock();
        tick();
        lk.lock();
      }
    }
  }

  [[nodiscard]] const std::vector<ConnTally>& tallies() const {
    return tallies_;
  }

  void close_all() {
    for (auto& c : conns_) c->close();
  }

 private:
  void loop(std::size_t c) {
    std::uint64_t seen = 0;
    for (;;) {
      Clock::time_point deadline;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return quit_ || round_ != seen; });
        if (quit_) return;
        seen = round_;
        deadline = deadline_;
      }
      conns_[c]->run(plan_.scripts[c].wire, plan_.answers, kWindow,
                     c == 0 ? refresh_every_ : 0, deadline, tallies_[c]);
      {
        const std::lock_guard<std::mutex> lk(mu_);
        ++done_;
      }
      done_cv_.notify_all();
    }
  }

  const Plan& plan_;
  std::size_t refresh_every_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<ConnTally> tallies_;
  std::mutex mu_;
  std::condition_variable cv_, done_cv_;
  std::uint64_t round_ = 0;
  std::size_t done_ = 0;
  bool quit_ = false;
  Clock::time_point deadline_;
  std::vector<std::thread> threads_;
};

/// Per-round results.
struct Round {
  bool warmup = false;  ///< the first round: verified, never reported
  double seconds = 0;
  std::uint64_t attempted = 0, failed = 0, ok = 0;
  std::uint64_t wrong = 0;  ///< replies with the wrong bytes
  double qps = 0, p50 = 0, p90 = 0, p99 = 0, ios_per_query = 0;
  std::vector<double> refresh_s;
  // Trace-derived (read between rounds).
  double trace_bytes = 0, admission_p99 = 0;
  std::uint64_t shed = 0;
  double rss_mb = 0;  ///< peak RSS growth during the round
};

/// Fold one finished round: tallies from the clients, per-query logical I/O
/// and retained bytes from the server's trace (which is then drained).
Round fold_round(const std::vector<ConnTally>& tallies, SplitterServer& server,
                 std::uint64_t build_ios, std::vector<double>& lat_scratch) {
  Round r;
  std::uint64_t refreshes = 0;
  Clock::time_point begin = tallies.front().begin, end = tallies.front().end;
  for (const ConnTally& t : tallies) {
    // Each connection's own rate, from its first send to its last reply.
    const double busy = std::chrono::duration<double>(t.end - t.begin).count();
    if (busy > 0) r.qps += static_cast<double>(t.ok) / busy;
    begin = std::min(begin, t.begin);
    end = std::max(end, t.end);
    r.attempted += t.sent + t.refreshes;
    r.failed += t.failed();
    r.wrong += t.wrong;
    r.ok += t.ok;
    refreshes += t.refreshes - t.refresh_failed;
    r.refresh_s.insert(r.refresh_s.end(), t.refresh_s.begin(), t.refresh_s.end());
    if (!t.first_bad.empty()) {
      std::fprintf(stderr, "emsbench: unexpected reply: %s\n", t.first_bad.c_str());
    }
  }
  r.seconds = std::chrono::duration<double>(end - begin).count();
  merge_latencies(tallies, r.seconds, lat_scratch);
  r.p50 = quantile(lat_scratch, 0.50);
  r.p90 = quantile(lat_scratch, 0.90);
  r.p99 = quantile(lat_scratch, 0.99);

  const std::vector<emsplit::QueryTrace> rows = server.trace().snapshot();
  server.trace().reset();
  std::uint64_t reads = 0;
  std::vector<double> waits;
  waits.reserve(rows.size());
  const auto heap = [](const std::string& s) {
    return s.capacity() > 15 ? s.capacity() + 1 : 0;
  };
  for (const emsplit::QueryTrace& t : rows) {
    if (t.ok) reads += t.io.base().reads;
    if (t.admission == "shed") ++r.shed;
    waits.push_back(t.queue_seconds);
    r.trace_bytes += static_cast<double>(sizeof(emsplit::QueryTrace) +
                                         heap(t.kind) + heap(t.admission) +
                                         heap(t.detail));
  }
  r.admission_p99 = quantile(waits, 0.99);
  r.ios_per_query =
      r.ok > 0 ? static_cast<double>(reads + refreshes * build_ios) /
                     static_cast<double>(r.ok)
               : 0;
  return r;
}

/// Warm-up rounds for kWarmupSeconds (at least one), then rounds until
/// `seconds` have passed (at least kMinRounds).  Each round's peak RSS growth
/// over `base_rss` is taken before the trace is read.
std::vector<Round> run_rounds(Unit& u, Clients& clients, double seconds,
                              std::uint64_t base_rss,
                              const std::function<void()>& tick = {}) {
  std::vector<Round> rounds;
  std::vector<double> lat;
  std::size_t measured = 0;
  const auto start = Clock::now();
  while (measured < kMinRounds ||
         seconds_since(start) < seconds + kWarmupSeconds) {
    const bool warmup =
        rounds.empty() || seconds_since(start) < kWarmupSeconds;
    reset_peak_rss();
    clients.run_round(tick);
    const std::uint64_t hwm = peak_rss_bytes();
    rounds.push_back(fold_round(clients.tallies(), *u.server, u.build_ios, lat));
    rounds.back().rss_mb = static_cast<double>(hwm - std::min(base_rss, hwm)) /
                           (1024.0 * 1024.0);
    rounds.back().warmup = warmup;
    if (!warmup) ++measured;
  }
  return rounds;
}

/// The measured rounds: all but the warm-up rounds.
std::vector<Round> measured(const std::vector<Round>& rounds) {
  std::vector<Round> out;
  for (const Round& r : rounds) {
    if (!r.warmup) out.push_back(r);
  }
  return out;
}

template <typename F>
double median_of(const std::vector<Round>& rounds, F f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(f(r));
  return median(v);
}

/// Set-up: a fresh server, start() (build epoch 1), listener up, first
/// query answered through the socket.  Returns the unit and its set-up time.
std::unique_ptr<Unit> set_up(const RunArgs& args, const std::string& source,
                             const Plan& plan, int index, bool traced,
                             double& secs, bool& ok) {
  const auto t0 = Clock::now();
  std::unique_ptr<Unit> u = start_unit(args, source, index, traced);
  Conn c(connect_unix(u->sock, 5.0));
  const Request& first = plan.scripts[0].wire.front();  // a RANK
  const std::string reply = c.call(first.line, first.multiline, 10.0);
  secs = seconds_since(t0);
  ok = reply == plan.answers[first.answer];
  if (!ok) std::fprintf(stderr, "emsbench: first query got '%s'\n", reply.c_str());
  return u;
}

/// Fetch each HIST answer once, check it against the oracle, and make it
/// the expected text for every later HIST reply.
bool fill_hist_answers(Unit& u, Plan& plan, const Oracle& oracle) {
  Conn c(connect_unix(u.sock, 5.0));
  bool ok = true;
  for (const auto& [k, id] : plan.hist) {
    std::string text = c.call("HIST " + std::to_string(k) + "\n", true, 10.0);
    if (!oracle.hist_reply_ok(text, k)) {
      std::fprintf(stderr, "emsbench: HIST %llu failed the oracle\n",
                   static_cast<unsigned long long>(k));
      ok = false;
    }
    plan.answers[id] = std::move(text);
  }
  return ok;
}

/// Per-kind timing of direct SplitterIndex calls.
struct IndexTimes {
  double ns[4] = {0, 0, 0, 0};
  std::uint64_t calls[4] = {0, 0, 0, 0};
  std::uint64_t reads = 0, queries = 0;
};

/// Time direct calls on a bench-built SplitterIndex over the same source,
/// device and bucket-cache capacity, from kConns threads at once.
IndexTimes time_index(Unit& u, const std::string& source, const Plan& plan) {
  emsplit::Context ictx(u.device(), kMemBytes);
  ictx.set_io_tuning(emsplit::IoTuning{kBatchBlocks, 0, false});
  IndexTimes total;
  {
    emsplit::EmVector<Record> data = emsplit::import_file<Record>(ictx, source);
    auto idx = emsplit::SplitterIndex<Record>::build(ictx, data, kBuckets);
    const std::size_t cap = kCacheBlocks * kBlockBytes;
    auto cache = std::make_shared<emsplit::BucketScanCache<Record>>(
        ictx.budget(), cap, std::min<std::size_t>(cap, 64 * kBlockBytes), 1);
    if (cache->enabled()) idx.attach_bucket_cache(cache);

    std::vector<IndexTimes> per(kConns);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConns; ++c) {
      threads.emplace_back([&, c] {
        IndexTimes& t = per[c];
        for (const SplitterServer::Request& q : plan.scripts[c].direct) {
          const auto t0 = Clock::now();
          emsplit::IoStats io;
          switch (q.kind) {
            case QueryKind::kRank: io = idx.rank(q.lo).io; break;
            case QueryKind::kRange: io = idx.range_count(q.lo, q.hi).io; break;
            case QueryKind::kHistogram: io = idx.histogram(q.k).io; break;
            case QueryKind::kTopK: io = idx.top_k(q.k, q.largest).io; break;
          }
          const auto k = static_cast<std::size_t>(q.kind);
          t.ns[k] += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                         .count();
          ++t.calls[k];
          t.reads += io.base().reads;
          ++t.queries;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const IndexTimes& t : per) {
      for (std::size_t k = 0; k < 4; ++k) {
        total.ns[k] += t.ns[k];
        total.calls[k] += t.calls[k];
      }
      total.reads += t.reads;
      total.queries += t.queries;
    }
  }
  return total;
}

/// Time the same scripts through the in-process API: kConns threads, each
/// sending its script as query_batch() calls of one window each, for
/// kInProcessRounds rounds.  Like connection 0 over the socket, thread 0
/// calls refresh() every `refresh_every` queries (each serve_refresh round
/// starts with one).  Returns the median wall time per query per thread.
double time_in_process(SplitterServer& server, const Plan& plan,
                       std::size_t refresh_every,
                       std::vector<double>& refresh_s) {
  std::vector<double> per_query;
  std::size_t since = refresh_every;  // thread 0's queries since a refresh
  for (int round = 0; round < kInProcessRounds; ++round) {
    std::vector<std::thread> threads;
    std::uint64_t queries = 0;
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < kConns; ++c) {
      queries += plan.scripts[c].direct.size();
      threads.emplace_back([&, c] {
        const auto& script = plan.scripts[c].direct;
        for (std::size_t i = 0; i < script.size(); i += kWindow) {
          if (c == 0 && refresh_every > 0 && since >= refresh_every) {
            const auto tr = Clock::now();
            (void)server.refresh();
            refresh_s.push_back(seconds_since(tr));
            since = 0;
          }
          const std::size_t end = std::min(script.size(), i + kWindow);
          const std::vector<SplitterServer::Request> batch(
              script.begin() + static_cast<std::ptrdiff_t>(i),
              script.begin() + static_cast<std::ptrdiff_t>(end));
          (void)server.query_batch(batch, c + 1);
          if (c == 0) since += end - i;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    per_query.push_back(seconds_since(t0) * static_cast<double>(kConns) /
                        static_cast<double>(queries));
    server.trace().reset();
  }
  return median(per_query);
}

}  // namespace

Report run_serve(const RunArgs& args) {
  const bool hot = args.workload == "serve_hot";
  const std::size_t refresh_every = hot ? 0 : kRefreshEvery;
  const std::string source = args.dir + "/source.bin";

  Oracle oracle;
  {
    std::vector<Record> recs = make_records(kRecords, args.seed);
    write_records(source, recs);
    oracle.sorted = std::move(recs);
  }
  std::sort(oracle.sorted.begin(), oracle.sorted.end());
  Plan plan = make_plan(oracle, args.seed, hot, hot ? kHotRound : kRefreshEvery);

  Report r;
  std::uint64_t bad_checks = 0;  // failed set-up, oracle or shutdown checks
  std::uint64_t wrong = 0;       // replies with the wrong bytes
  const std::uint64_t base_rss = rss_bytes();

  const auto tally_rounds = [&](const std::vector<Round>& rounds) {
    for (const Round& rd : rounds) {
      r.attempted += rd.attempted;
      r.failed += rd.failed;
      wrong += rd.wrong;
    }
  };
  const auto finish = [&]() {
    r.failed += bad_checks;
    r.correct = bad_checks == 0 && wrong == 0;
  };

  // ---- set-up, several times; the last server serves the clean rounds ----
  const int setups = args.trace ? 1 : kSetups;
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Unit> u;
  for (int i = 0; i < setups; ++i) {
    if (u) {
      if (!stop_unit(*u)) ++bad_checks;
      u.reset();
    }
    double secs = 0;
    bool ok = false;
    u = set_up(args, source, plan, i, false, secs, ok);
    setup_s.push_back(secs);
    build_s.push_back(u->build_s);
    if (!ok) ++bad_checks;
  }
  if (!fill_hist_answers(*u, plan, oracle)) ++bad_checks;
  r.attempted += static_cast<std::uint64_t>(setups) + plan.hist.size();

  // The traced run splits its time: clean rounds first, then instrumented.
  const double clean_secs = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Round> clean;
  {
    Clients clients(u->sock, plan, refresh_every);
    clean = run_rounds(*u, clients, clean_secs, base_rss);
    clients.close_all();
  }
  if (!stop_unit(*u)) ++bad_checks;
  u.reset();
  tally_rounds(clean);

  if (!args.trace) {
    finish();
    r.set("setup_s", median(setup_s));
    const std::vector<Round> meas = measured(clean);
    r.set("p50_ms", 1e3 * median_of(meas, [](const Round& x) { return x.p50; }));
    r.set("p90_ms", 1e3 * median_of(meas, [](const Round& x) { return x.p90; }));
    r.set("block_ios",
          median_of(meas, [](const Round& x) { return x.ios_per_query; }));
    r.set("peak_rss_mb",
          median_of(meas, [](const Round& x) { return x.rss_mb; }));
    return r;
  }

  // ---- instrumented rounds --------------------------------------------------
  double secs = 0;
  bool ok = false;
  u = set_up(args, source, plan, setups, true, secs, ok);
  if (!ok) ++bad_checks;
  ++r.attempted;
  build_s.push_back(u->build_s);
  u->clock = std::make_unique<PhaseClock>(u->device());
  u->profile.attach(*u->clock);
  u->ctx->set_profile(&u->profile);
  u->ctx->set_pass_trace(&u->passes);
  SplitterServer& server = *u->server;

  std::vector<std::shared_ptr<emsplit::BucketScanCache<Record>>> caches;
  const auto watch_cache = [&] {
    auto c = server.bucket_cache();
    if (c && (caches.empty() || caches.back() != c)) caches.push_back(c);
  };
  watch_cache();
  const TimedDevice::Totals dev0 = u->timed->totals();
  const std::uint64_t retire0 = server.retire_waits();
  u->ctx->budget().reset_peak();
  std::vector<Round> traced;
  {
    Clients clients(u->sock, plan, refresh_every);
    traced = run_rounds(*u, clients, args.seconds - clean_secs, base_rss,
                        watch_cache);
    clients.close_all();
  }
  tally_rounds(traced);
  const TimedDevice::Totals dev1 = u->timed->totals();
  const double rounds = static_cast<double>(traced.size());
  const double peak_frac = static_cast<double>(u->ctx->budget().peak()) /
                           static_cast<double>(u->ctx->budget().capacity());
  const double retire_waits =
      static_cast<double>(server.retire_waits() - retire0) / rounds;
  std::uint64_t hits = 0, misses = 0, coalesced = 0;
  for (const auto& c : caches) {
    hits += c->hits();
    misses += c->misses();
    coalesced += c->coalesced();
  }
  LayerTotals layers;
  u->ctx->set_profile(nullptr);
  u->ctx->set_pass_trace(nullptr);
  layers.add_profile(u->profile);
  layers.add_passes(u->passes);

  // ---- the same scripts in-process, then on a bench-built index -----------
  std::vector<double> refresh_build;
  const double query_s = time_in_process(server, plan, refresh_every,
                                         refresh_build);
  const IndexTimes index = time_index(*u, source, plan);
  if (!stop_unit(*u)) ++bad_checks;
  u.reset();
  finish();

  // ---- per-layer figures (per round unless stated) -------------------------
  const double read_s = dev1.read_s - dev0.read_s;
  const double write_s = dev1.write_s - dev0.write_s;
  const auto blocks = static_cast<double>(
      (dev1.read_blocks - dev0.read_blocks) + (dev1.write_blocks - dev0.write_blocks));
  const auto calls = static_cast<double>(dev1.calls - dev0.calls);
  double wall = 0;
  std::vector<double> refresh_rtt;
  for (const Round& rd : traced) {
    wall += rd.seconds;
    refresh_rtt.insert(refresh_rtt.end(), rd.refresh_s.begin(), rd.refresh_s.end());
  }
  r.set("em.device.read_s", read_s / rounds);
  r.set("em.device.write_s", write_s / rounds);
  r.set("em.device.us_per_block", blocks > 0 ? 1e6 * (read_s + write_s) / blocks : 0);
  r.set("em.device.blocks_per_call", calls > 0 ? blocks / calls : 0);
  r.set("em.device.reads",
        static_cast<double>(dev1.read_blocks - dev0.read_blocks) / rounds);
  r.set("em.compute_s", (wall - read_s - write_s) / rounds);
  r.set("em.budget.peak_frac", peak_frac);
  layers.report(r, rounds);

  const auto per_query_us = [](const Round& x) {
    return x.ok > 0 ? 1e6 * x.seconds * static_cast<double>(kConns) /
                          static_cast<double>(x.ok)
                    : 0;
  };
  const double rtt_us = median_of(measured(traced), per_query_us);
  const double clean_us = median_of(measured(clean), per_query_us);
  const std::vector<Round> traced_meas = measured(traced);
  r.set("service.server.qps",
        median_of(traced_meas, [](const Round& x) { return x.qps; }));
  r.set("service.server.p99_ms",
        1e3 * median_of(traced_meas, [](const Round& x) { return x.p99; }));
  r.set("service.server.rtt_us", rtt_us);
  r.set("service.server.query_us", 1e6 * query_s);
  r.set("service.server.frontend_us", rtt_us - 1e6 * query_s);
  r.set("service.server.trace_bytes",
        median_of(traced, [](const Round& x) { return x.trace_bytes; }));
  r.set("service.server.admission_wait_ms",
        1e3 * median_of(traced, [](const Round& x) { return x.admission_p99; }));
  double shed = 0;
  for (const Round& rd : traced) shed += static_cast<double>(rd.shed);
  r.set("service.server.shed", shed / rounds);
  r.set("service.server.retire_waits", retire_waits);
  r.set("service.server.refresh_build_s",
        hot ? median(build_s) : median(refresh_build));
  r.set("service.server.refresh_s", median(refresh_rtt));
  const char* kinds[4] = {"rank", "range", "hist", "topk"};
  const QueryKind order[4] = {QueryKind::kRank, QueryKind::kRange,
                              QueryKind::kHistogram, QueryKind::kTopK};
  for (std::size_t i = 0; i < 4; ++i) {
    const auto k = static_cast<std::size_t>(order[i]);
    r.set(std::string("service.index.") + kinds[i] + "_us",
          index.calls[k] > 0
              ? 1e-3 * index.ns[k] / static_cast<double>(index.calls[k])
              : 0);
  }
  r.set("service.index.reads_per_query",
        index.queries > 0 ? static_cast<double>(index.reads) /
                                static_cast<double>(index.queries)
                          : 0);
  r.set("service.index.bucket_cache.hit_ratio",
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0);
  r.set("service.index.bucket_cache.misses", static_cast<double>(misses) / rounds);
  r.set("service.index.bucket_cache.coalesced",
        static_cast<double>(coalesced) / rounds);
  r.set("trace.overhead_pct", 100.0 * (rtt_us - clean_us) / clean_us);
  return r;
}

}  // namespace emsbench
