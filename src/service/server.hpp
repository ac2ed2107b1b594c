// server.hpp — the resident splitter service.
//
// SplitterServer keeps one SplitterIndex<Record> epoch resident and serves
// rank / range / histogram / top-k queries from N concurrent client threads,
// through three front ends:
//
//   * the in-process API (query() / query_batch()): used by the tests, the
//     examples and the bench harness — Requests in, Replies out, thread-safe.
//     query_batch() pins ONE snapshot for the whole batch (the pipelined
//     connection's execution primitive).
//   * a line-protocol Unix-domain socket (serve_unix()), one serving thread
//     per connection, the `emsplit query` client on the other end.  The
//     accept loop joins each finished connection's thread on its next
//     iteration, and on stop() shuts down every connection still live, so
//     a peer that never reads cannot keep SHUTDOWN from completing.
//   * the same line protocol over TCP (serve_tcp(), `--listen=host:port`) —
//     identical parsing, admission, tracing and answers; only the transport
//     differs.
//
// Connections are *pipelined*: a client may write any number of request
// lines without waiting; the serving thread parses every complete line per
// read, executes consecutive query lines against one pinned snapshot, and
// writes the batch's responses back in request order with a single vectored
// write.  Control lines (STATS / EPOCH / REFRESH / SHUTDOWN) release the pin
// first — a connection can never deadlock its own REFRESH against the
// snapshot it pinned.  A line that exceeds kMaxLineBytes without a newline
// closes the connection with an error.
//
// Admission control: every request is costed with the index's
// footprint_bytes() estimate and charged against the context's MemoryBudget
// via try_reserve().  An over-budget request queues on a condition variable
// for up to Config::queue_wait seconds — woken by the budget's release
// listener the moment bytes free up, not by polling — then sheds with a
// structured reject.  The admission ticket is released before the engine
// runs — the engine reserves its actual working set itself — so admission is
// two-phase and approximate: a query that slips past admission into a budget
// collision simply sheds at its own reserve() instead (caught, never fatal).
//
// Epoch refresh: refresh() rebuilds the index from the source file and
// publishes the result atomically.  With a checkpoint journal attached the
// publish is crash-consistent:
//
//   1. the new epoch's extent + geometry go into the journal
//      (publish_sort_pass under an epoch-numbered fingerprint),
//   2. the CURRENT file (state_dir/SERVICE_CURRENT) is bumped by
//      write-to-temp + atomic rename,
//   3. the snapshot pointer is swapped and the superseded epoch's
//      BucketScanCache is retired atomically (no query can hit a stale
//      epoch's payloads); queries in flight keep the old epoch alive until
//      they drain — the publisher waits on a condition variable signalled by
//      the snapshot's drain (never sleep-polling; retire_waits() counts the
//      times it actually had to wait) — then its blocks are retired.
//
// A crash between (1) and (2) — the injection point the kill tests use —
// leaves the journal holding an orphaned next epoch: restart serves the
// CURRENT epoch and reclaims the orphan's blocks.  Queries never block on a
// refresh; they read whichever epoch is published when they snapshot.
//
// Bucket-scan caching: with Config::bucket_cache_blocks > 0 each published
// epoch gets its own BucketScanCache (decoded bucket payloads, single-flight
// scan sharing — see splitter_index.hpp).  The server forwards a MemoryBudget
// reclaimer to the *current* epoch's cache, so refresh builds push the cache
// out before any reservation is refused.  Geometry, never output: identical
// answers and identical per-query base IoStats with the cache on or off.
//
// Threading: query()/query_batch() are safe from any thread.
// start()/refresh() serialize on an internal mutex and (with the post-drain
// teardown of the superseded index) are the only paths that touch the device
// allocator, preserving the substrate's single-allocator-thread rule.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "em/context.hpp"
#include "service/splitter_index.hpp"
#include "util/record.hpp"

namespace emsplit {

class SplitterServer {
 public:
  /// Longest request line the socket front ends will buffer while waiting
  /// for a newline; beyond it the connection is closed with an error.
  static constexpr std::size_t kMaxLineBytes = 1 << 16;

  struct Config {
    std::string source_path;    ///< record file each (re)build reads
    std::uint64_t buckets = 64; ///< index buckets K
    double slack = 0.25;        ///< equi-depth slack for the build
    double queue_wait = 0.05;   ///< seconds an over-budget query may queue
    std::string state_dir;      ///< CURRENT-file home ("" = ephemeral)
    /// Per-epoch BucketScanCache capacity in blocks (0 = no bucket cache).
    std::uint64_t bucket_cache_blocks = 0;
  };

  struct Request {
    QueryKind kind = QueryKind::kRank;
    Record lo{};                ///< rank probe / range lower bound
    Record hi{};                ///< range upper bound
    std::uint64_t k = 0;        ///< histogram buckets / top-k k
    bool largest = true;        ///< top-k direction
  };

  struct Reply {
    bool ok = false;
    std::string admission;      ///< "admit" | "queued" | "shed" | "error"
    std::string error;          ///< reject reason / error text
    std::uint64_t value = 0;    ///< rank / range count
    EquiDepthHistogram<Record> hist;
    std::vector<Record> records;  ///< top-k records, ascending
    IoStats io;                 ///< the query's own I/O
    double seconds = 0;         ///< total latency, queueing included
    double queue_seconds = 0;   ///< admission wait
    std::uint64_t epoch = 0;    ///< epoch that served (or rejected) it
    /// Epoch of the BucketScanCache that served this query's bucket_hits
    /// (0 when none were served from the cache).  Always equals `epoch` —
    /// the cache is keyed to the pinned snapshot — and the kill-mid-refresh
    /// sweep asserts exactly that, per query.
    std::uint64_t cache_epoch = 0;
  };

  SplitterServer(Context& ctx, Config cfg);
  ~SplitterServer();

  SplitterServer(const SplitterServer&) = delete;
  SplitterServer& operator=(const SplitterServer&) = delete;

  /// Bring the service up: recover the last published epoch from the
  /// checkpoint journal if one is attached and holds state, otherwise build
  /// epoch 1 from the source file and publish it.
  void start();

  /// True when start() served the journal's epoch instead of rebuilding —
  /// what the restart smoke asserts after a mid-refresh kill.
  [[nodiscard]] bool recovered() const noexcept { return recovered_; }

  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] std::uint64_t size() const;
  [[nodiscard]] std::uint64_t served() const noexcept { return served_; }
  [[nodiscard]] std::uint64_t shed() const noexcept { return shed_; }

  /// Times an epoch publish actually had to wait for in-flight queries to
  /// drain (condvar waits, not sleeps).  Zero under zero load — the
  /// refresh-without-sleeping test's assertion.
  [[nodiscard]] std::uint64_t retire_waits() const noexcept {
    return retire_waits_.load(std::memory_order_relaxed);
  }

  /// Answer one request (thread-safe).  `client` tags the trace row.
  Reply query(const Request& req, std::uint64_t client = 0);

  /// Answer a batch of requests against ONE pinned snapshot, serially, in
  /// order — the pipelined connection's execution primitive (thread-safe).
  /// Every reply carries the same epoch.
  std::vector<Reply> query_batch(const std::vector<Request>& reqs,
                                 std::uint64_t client = 0);

  /// Rebuild from the source file and publish the next epoch; returns it.
  std::uint64_t refresh();

  /// Accept-and-serve loop on a Unix-domain socket (blocks until stop()).
  void serve_unix(const std::string& socket_path);

  /// Accept-and-serve loop on a TCP socket (blocks until stop()).  Pass
  /// port 0 to bind an ephemeral port; tcp_port() reports the bound port
  /// once listening.  Same protocol, admission and trace path as the Unix
  /// socket.  Runs beside serve_unix() from a second thread.
  void serve_tcp(const std::string& host, std::uint16_t port);

  /// The TCP listener's bound port (0 until serve_tcp() is listening).
  [[nodiscard]] std::uint16_t tcp_port() const noexcept {
    return tcp_port_.load(std::memory_order_acquire);
  }

  /// Ask the serve loops to wind down; safe from any thread / signal
  /// context (atomic store only — the loops poll it at 100ms granularity).
  void stop() noexcept { stop_.store(true); }

  [[nodiscard]] QueryTraceLog& trace() noexcept { return trace_; }

  /// The current epoch's bucket-scan cache (null when caching is off or no
  /// epoch is published) — tests and STATS reporting.
  [[nodiscard]] std::shared_ptr<BucketScanCache<Record>> bucket_cache() const;

 private:
  using Index = SplitterIndex<Record>;
  enum class ParseKind { kQuery, kOther, kBad };

  [[nodiscard]] std::shared_ptr<const Index> snapshot(
      std::uint64_t& epoch_out) const;
  [[nodiscard]] std::uint64_t epoch_fingerprint(std::uint64_t epoch) const;
  [[nodiscard]] bool persistent() const;
  [[nodiscard]] Index build_epoch();
  void publish(Index idx);
  [[nodiscard]] bool recover();
  /// Wrap a built index in the snapshot shared_ptr (owner_ keeps ownership;
  /// the shared deleter only signals drain) and attach a fresh bucket cache
  /// for `epoch`; caller swaps under mu_.
  void adopt_epoch(std::unique_ptr<Index> built, std::uint64_t epoch,
                   std::shared_ptr<const Index>& out_snapshot,
                   std::unique_ptr<Index>& out_owner,
                   std::shared_ptr<BucketScanCache<Record>>& out_cache);
  void write_current(std::uint64_t epoch) const;
  [[nodiscard]] std::string current_path() const;
  /// One request answered against the given pinned snapshot: admission
  /// (condvar-queued), engine, trace.
  Reply query_on(const std::shared_ptr<const Index>& idx, std::uint64_t epoch,
                 const Request& req, std::uint64_t client);
  void accept_loop(int lfd, bool tcp);
  void serve_conn(int fd, std::uint64_t client);
  /// Classify a line by its first word `cmd`: query (req filled),
  /// control/unknown, or malformed query (err filled).
  [[nodiscard]] ParseKind parse_query(const std::string& line,
                                      std::string& cmd, Request& req,
                                      std::string& err) const;
  [[nodiscard]] std::string format_reply(const Request& req,
                                         const Reply& rep) const;
  /// Trace + format a malformed line's error response.
  [[nodiscard]] std::string bad_line(const std::string& line,
                                     std::uint64_t client,
                                     const std::string& why);
  /// Answer a control line (STATS, EPOCH, REFRESH, SHUTDOWN) or reject an
  /// unknown command; `cmd` is the word parse_query classified as kOther.
  [[nodiscard]] std::string handle_control(const std::string& cmd,
                                           const std::string& line,
                                           std::uint64_t client,
                                           bool& close_conn);
  /// Execute a pipelined batch of lines: consecutive queries share one
  /// pinned snapshot, control lines drop the pin first; responses in order.
  [[nodiscard]] std::vector<std::string> handle_batch(
      const std::vector<std::string>& lines, std::uint64_t client,
      bool& close_conn);

  Context* ctx_;
  Config cfg_;
  QueryTraceLog trace_;

  // Epoch retirement: publish() waits here for the superseded snapshot's
  // drain; the snapshot deleter signals.  Declared before the snapshot
  // members so they are destroyed first (their deleter touches these).
  std::mutex retire_mu_;
  std::condition_variable retire_cv_;
  std::atomic<std::uint64_t> retire_waits_{0};

  // Admission queue: over-budget queries wait here; the budget's release
  // listener bumps admit_gen_ and notifies.  Waiters never call into the
  // budget while holding admit_mu_ (lock-order discipline vs. reclaimers).
  std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  std::atomic<std::uint64_t> admit_gen_{0};
  std::atomic<std::uint64_t> admit_waiters_{0};

  mutable std::mutex mu_;  ///< guards owner_ / current_ / bucket_cache_ / epoch_
  std::unique_ptr<Index> owner_;  ///< owns the published index (teardown on the publish thread)
  std::shared_ptr<const Index> current_;
  std::shared_ptr<BucketScanCache<Record>> bucket_cache_;
  std::uint64_t epoch_ = 0;

  std::mutex refresh_mu_;  ///< serializes start/refresh (allocator work)
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> next_client_{0};
  std::atomic<std::uint16_t> tcp_port_{0};
  bool recovered_ = false;
};

}  // namespace emsplit
