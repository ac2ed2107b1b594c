// Multi-worker execution layer: W is geometry, never output.
//
// The matrix test runs distribution_sort and multi_partition under every
// combination of worker count W in {1, 2, 4}, I/O tuning (sync, batched)
// and backend (memory and file -- both fork-safe since the memory device
// moved to MAP_SHARED arenas -- plus memory with workers forced inline via
// EMSPLIT_WORKERS_INLINE) and asserts the whole contract
// at once: output bytes bit-identical across W, logical IoStats totals
// identical across W, and every distributed pass's per-worker trace rows
// partitioning that pass's I/O delta exactly.
//
// The kill tests arm WorkerTuning's crash injection so one worker dies at
// the start of a distributed round; with a journal attached the rerun must
// resume past the journaled passes (strictly cheaper than a cold run) and
// still produce bit-identical output -- in both execution modes (a thrown
// WorkerDied inline, an _exit(137) child under fork).
//
// The supervision tests drive WorkerGroup's round supervisor directly with
// custom bodies: crash / hang / corrupt-frame injections recover via inline
// re-execution (bounded retries, worker_retries attribution, structured
// SupervisionEvents), retries exhaust into WorkerDied, elastic degradation
// halves the group between rounds, and the M/mem_workers memory partition
// bounds every child's reported budget peak.  End-to-end sweeps over whole
// jobs live in test_fault_sweep.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <cstdlib>

#include "core/api.hpp"
#include "dist/dist_plan.hpp"
#include "em/checkpoint.hpp"
#include "em/pass_engine.hpp"
#include "em/worker_group.hpp"
#include "test_helpers.hpp"

namespace emsplit {
namespace {

using testutil::sorted_copy;

/// Scoped EMSPLIT_WORKERS_INLINE=1: every device is fork-safe now, so the
/// inline execution path only runs when explicitly forced.
struct InlineWorkersGuard {
  InlineWorkersGuard() { ::setenv("EMSPLIT_WORKERS_INLINE", "1", 1); }
  ~InlineWorkersGuard() { ::unsetenv("EMSPLIT_WORKERS_INLINE"); }
};

// Geometry under which dist_supported holds for both operations: 128-byte
// blocks (8 records), 256 blocks of memory, 6000 records => 5 formation
// runs and ~12 splitters, comfortably inside the planning-table caps.
constexpr std::size_t kBlockBytes = 128;
constexpr std::size_t kMemBlocks = 256;
constexpr std::size_t kRecords = 6000;

const std::vector<std::uint64_t> kRanks{1234, 3000, 4567};

struct Tuning {
  const char* name;
  IoTuning io;
};

const Tuning kTunings[] = {
    {"sync", {1, 0, false}},
    {"batched", {4, 0, false}},
};

std::vector<Record> dump(const EmVector<Record>& v) {
  std::vector<Record> out;
  out.reserve(v.size());
  StreamReader<Record> r(v);
  while (!r.done()) out.push_back(r.next());
  return out;
}

/// Every distributed pass row carries exactly W worker rows whose reads,
/// writes and retries sum to the row's own delta.
void check_worker_rows(const PassTraceLog& trace, std::size_t W,
                       const std::string& tag) {
  std::size_t dist_rows = 0;
  for (const PassTrace& row : trace.rows()) {
    if (row.worker_io.empty()) continue;
    if (row.resumed) continue;  // replayed rows carry no fresh worker work
    ++dist_rows;
    ASSERT_EQ(row.worker_io.size(), W) << tag << " " << row.pass;
    IoStats sum;
    for (const PassWorkerIo& wio : row.worker_io) sum += wio.io;
    EXPECT_EQ(sum.reads, row.io.reads) << tag << " " << row.pass;
    EXPECT_EQ(sum.writes, row.io.writes) << tag << " " << row.pass;
    EXPECT_EQ(sum.retries, row.io.retries) << tag << " " << row.pass;
    EXPECT_EQ(sum.worker_retries, row.io.worker_retries)
        << tag << " " << row.pass;
  }
  EXPECT_GT(dist_rows, 0u) << tag << ": no distributed pass recorded";
}

struct LegResult {
  std::vector<Record> bytes;
  IoStats io;
  std::vector<std::uint64_t> bounds;  // partition only
};

/// The execution-mode matrix: every backend forks by default (they are all
/// fork-safe), and kMemInline pins the legacy inline path via the env knob.
enum class WorkerBackend { kMemInline, kMem, kFile };

constexpr const char* backend_name(WorkerBackend b) {
  switch (b) {
    case WorkerBackend::kMemInline: return "InlineMemory";
    case WorkerBackend::kMem: return "ForkedMemory";
    case WorkerBackend::kFile: return "ForkedFile";
  }
  return "?";
}

/// One (backend, tuning, W, op) leg.  `file_path` names the backing file for
/// the file backend (unused for memory).
LegResult run_leg(WorkerBackend backend, const std::string& file_path,
                  const IoTuning& io, std::size_t W, bool partition,
                  const std::vector<Record>& host) {
  std::unique_ptr<InlineWorkersGuard> inline_guard;
  if (backend == WorkerBackend::kMemInline) {
    inline_guard = std::make_unique<InlineWorkersGuard>();
  }
  std::unique_ptr<BlockDevice> owned;
  switch (backend) {
    case WorkerBackend::kMemInline:
    case WorkerBackend::kMem:
      owned = std::make_unique<MemoryBlockDevice>(kBlockBytes);
      break;
    case WorkerBackend::kFile:
      std::remove(file_path.c_str());
      owned = std::make_unique<FileBlockDevice>(file_path, kBlockBytes);
      break;
  }
  BlockDevice* dev = owned.get();
  Context ctx(*dev, kMemBlocks * kBlockBytes);
  ctx.set_io_tuning(io);
  ctx.set_worker_tuning({W});
  PassTraceLog trace;
  ctx.set_pass_trace(&trace);

  auto input = materialize<Record>(ctx, std::span<const Record>(host));
  EXPECT_TRUE(dist::dist_supported<Record>(ctx, kRecords, partition ? 3 : 0))
      << "geometry drifted: the distributed path no longer engages";

  LegResult leg;
  dev->reset_stats();
  if (partition) {
    auto res = multi_partition<Record>(ctx, input, kRanks);
    leg.io = dev->stats().base();
    leg.bytes = dump(res.data);
    leg.bounds = res.bounds;
    // Spans flagged sorted must actually be sorted runs of the output.
    for (const auto& s : res.spans) {
      if (!s.sorted) continue;
      const auto lo = leg.bytes.begin() + static_cast<std::ptrdiff_t>(s.lo);
      const auto hi = leg.bytes.begin() + static_cast<std::ptrdiff_t>(s.hi);
      EXPECT_TRUE(std::is_sorted(lo, hi));
    }
  } else {
    auto out = distribution_sort<Record>(ctx, input);
    leg.io = dev->stats().base();
    leg.bytes = dump(out);
  }
  check_worker_rows(trace, W,
                    std::string(partition ? "mpart" : "dsort") + "/W=" +
                        std::to_string(W));
  ctx.set_pass_trace(nullptr);
  return leg;
}

class WorkerTransparency : public ::testing::TestWithParam<WorkerBackend> {};

TEST_P(WorkerTransparency, OutputAndIoInvariantAcrossW) {
  const WorkerBackend backend = GetParam();
  const auto host = make_workload(Workload::kUniform, kRecords, 71);
  const auto sorted_ref = sorted_copy(host);

  for (const Tuning& t : kTunings) {
    for (const bool partition : {false, true}) {
      const std::string tag = std::string(backend_name(backend)) + "/" +
                              t.name + (partition ? "/mpart" : "/dsort");
      LegResult ref;
      bool have_ref = false;
      for (const std::size_t W : {1u, 2u, 4u}) {
        const std::string path = testing::TempDir() + "/wg_" + t.name +
                                 (partition ? "_p_" : "_s_") +
                                 std::to_string(W) + ".dev";
        LegResult leg = run_leg(backend, path, t.io, W, partition, host);
        std::remove(path.c_str());

        if (!partition) {
          // The distributed sort is a *sort*: equal to the oracle, which
          // also forces bit-identity across W (records are totally ordered).
          ASSERT_EQ(leg.bytes, sorted_ref) << tag << " W=" << W;
        } else {
          ASSERT_EQ(leg.bounds.front(), 0u) << tag;
          ASSERT_EQ(leg.bounds.back(), kRecords) << tag;
          // Each requested rank is realized exactly: the prefix below it is
          // the multiset of the smallest r records.
          for (const std::uint64_t r : kRanks) {
            std::vector<Record> prefix(
                leg.bytes.begin(),
                leg.bytes.begin() + static_cast<std::ptrdiff_t>(r));
            std::sort(prefix.begin(), prefix.end());
            ASSERT_TRUE(std::equal(prefix.begin(), prefix.end(),
                                   sorted_ref.begin()))
                << tag << " W=" << W << " rank " << r;
          }
        }
        if (!have_ref) {
          ref = std::move(leg);
          have_ref = true;
          continue;
        }
        // W is geometry, never output: bytes and logical I/O both invariant.
        ASSERT_EQ(leg.bytes, ref.bytes) << tag << " W diverged the bytes";
        ASSERT_EQ(leg.io.reads, ref.io.reads) << tag;
        ASSERT_EQ(leg.io.writes, ref.io.writes) << tag;
        if (partition) {
          ASSERT_EQ(leg.bounds, ref.bounds) << tag;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, WorkerTransparency,
    ::testing::Values(WorkerBackend::kMemInline, WorkerBackend::kMem,
                      WorkerBackend::kFile),
    [](const auto& param_info) { return backend_name(param_info.param); });

// ---------------------------------------------------------------------------
// Crash injection: a worker killed mid-job leaves a resumable journal, and
// the rerun repays only the interrupted pass onward.

TEST(WorkerGroupKill, InlineWorkerDiesAndJobResumes) {
  InlineWorkersGuard inline_workers;  // pin the thrown-WorkerDied path
  const auto host = make_workload(Workload::kUniform, kRecords, 72);
  const auto sorted_ref = sorted_copy(host);

  MemoryBlockDevice dev(kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  ctx.set_worker_tuning({2});
  auto input = materialize<Record>(ctx, std::span<const Record>(host));

  // Uninterrupted reference cost for the repay comparison.
  dev.reset_stats();
  { auto ref = distribution_sort<Record>(ctx, input); }
  const std::uint64_t ref_total = dev.stats().total();

  const std::string jpath = testing::TempDir() + "/wg_kill_inline.ckpt";
  std::remove(jpath.c_str());
  {
    CheckpointJournal journal(dev, jpath);
    ctx.set_checkpoint(&journal);

    // Worker 0 dies at the start of round 2 (the first selection round --
    // run formation has already been journaled as pass 1).
    ctx.set_worker_tuning({2, 0, 2});
    bool died = false;
    try {
      auto out = distribution_sort<Record>(ctx, input);
    } catch (const WorkerDied& e) {
      died = true;
      EXPECT_EQ(e.worker(), 0u);
    }
    ASSERT_TRUE(died) << "kill hook never fired";
    ASSERT_GT(journal.owned_blocks(), 0u)
        << "formation pass was not journaled before the kill";

    // Disarm and rerun: resumes at pass 1, repays strictly less than a cold
    // run, and the output is still the oracle.
    ctx.set_worker_tuning({2});
    dev.reset_stats();
    auto out = distribution_sort<Record>(ctx, input);
    const std::uint64_t resumed_total = dev.stats().total();
    EXPECT_GE(journal.resumed_passes(), 1u);
    EXPECT_LT(resumed_total, ref_total);
    EXPECT_EQ(dump(out), sorted_ref);
    EXPECT_EQ(journal.owned_blocks(), 0u);
    ctx.set_checkpoint(nullptr);
  }
  std::remove(jpath.c_str());
}

TEST(WorkerGroupKill, ForkedWorkerDiesAndJobResumes) {
  const auto host = make_workload(Workload::kUniform, kRecords, 73);
  const auto sorted_ref = sorted_copy(host);

  const std::string dev_path = testing::TempDir() + "/wg_kill_forked.dev";
  std::remove(dev_path.c_str());
  FileBlockDevice dev(dev_path, kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  ctx.set_worker_tuning({4});
  auto input = materialize<Record>(ctx, std::span<const Record>(host));

  dev.reset_stats();
  { auto ref = distribution_sort<Record>(ctx, input); }
  const std::uint64_t ref_total = dev.stats().total();

  const std::string jpath = testing::TempDir() + "/wg_kill_forked.ckpt";
  std::remove(jpath.c_str());
  {
    CheckpointJournal journal(dev, jpath);
    ctx.set_checkpoint(&journal);

    // Worker 3 _exit(137)s at the start of round 2; the coordinator turns
    // the missing frame into WorkerDied after absorbing the other workers'
    // stats deltas.
    ctx.set_worker_tuning({4, 3, 2});
    bool died = false;
    try {
      auto out = distribution_sort<Record>(ctx, input);
    } catch (const WorkerDied& e) {
      died = true;
      EXPECT_EQ(e.worker(), 3u);
    }
    ASSERT_TRUE(died) << "kill hook never fired";
    ASSERT_GT(journal.owned_blocks(), 0u);

    // Resume under a *different* worker count: the fingerprint and the
    // journaled extents are W-free, so any W may finish the job.
    ctx.set_worker_tuning({2});
    dev.reset_stats();
    auto out = distribution_sort<Record>(ctx, input);
    const std::uint64_t resumed_total = dev.stats().total();
    EXPECT_GE(journal.resumed_passes(), 1u);
    EXPECT_LT(resumed_total, ref_total);
    EXPECT_EQ(dump(out), sorted_ref);
    EXPECT_EQ(journal.owned_blocks(), 0u);
    ctx.set_checkpoint(nullptr);
  }
  std::remove(jpath.c_str());
  std::remove(dev_path.c_str());
}

// ---------------------------------------------------------------------------
// The forked/inline decision itself: every stock device is fork-safe now
// (the memory device's pages moved to MAP_SHARED arenas), so forking is the
// default everywhere and inline execution is an explicit opt-out.

TEST(WorkerGroupMode, ForkRequiresForkSafeDevice) {
  MemoryBlockDevice mem_dev(kBlockBytes);
  Context mem_ctx(mem_dev, kMemBlocks * kBlockBytes);
  mem_ctx.set_worker_tuning({2});
  ASSERT_TRUE(mem_dev.fork_safe());
  WorkerGroup mem_group(mem_ctx);
  EXPECT_TRUE(mem_group.forked())
      << "shared-arena memory device no longer forks";
  EXPECT_EQ(mem_group.workers(), 2u);

  {
    // The env knob is the only remaining route to the inline path.
    InlineWorkersGuard inline_workers;
    WorkerGroup inline_group(mem_ctx);
    EXPECT_FALSE(inline_group.forked());
    EXPECT_EQ(inline_group.workers(), 2u);
  }

  const std::string dev_path = testing::TempDir() + "/wg_mode.dev";
  std::remove(dev_path.c_str());
  FileBlockDevice file_dev(dev_path, kBlockBytes);
  Context file_ctx(file_dev, kMemBlocks * kBlockBytes);
  file_ctx.set_worker_tuning({2});
  WorkerGroup forked_group(file_ctx);
  EXPECT_TRUE(forked_group.forked());

  // Checksums no longer force inline: children track their checksum-table
  // updates (set_sum_tracking) and ship them home in the result frame.
  file_dev.set_checksums(true);
  WorkerGroup checksummed_group(file_ctx);
  EXPECT_TRUE(checksummed_group.forked());
  std::remove(dev_path.c_str());
}

// Forked children's writes must land in the parent's checksum table: after a
// forked dsort with checksums on, flipping one bit of the *output* must be
// caught by the next verified read.  (Before the dirty-sum shipping, forked
// mode either fell back to inline or the parent's table silently lacked
// every child-written block.)
TEST(WorkerGroupMode, ForkedChecksumsCoverChildWrites) {
  const auto host = make_workload(Workload::kUniform, kRecords, 74);
  const auto sorted_ref = sorted_copy(host);

  const std::string dev_path = testing::TempDir() + "/wg_cksum.dev";
  std::remove(dev_path.c_str());
  FileBlockDevice dev(dev_path, kBlockBytes);
  dev.set_checksums(true);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  ctx.set_worker_tuning({2});
  {
    WorkerGroup probe(ctx);
    ASSERT_TRUE(probe.forked()) << "checksums must not force inline anymore";
  }
  auto input = materialize<Record>(ctx, std::span<const Record>(host));
  auto out = distribution_sort<Record>(ctx, input);
  EXPECT_EQ(dump(out), sorted_ref);  // dump() re-reads under verification

  // A block deep inside the output was written by a forked child (the
  // scatter round); its checksum must be present and live.
  const BlockId victim = out.extent().first + out.extent().count / 2;
  dev.corrupt_bit(victim, 3);
  std::vector<std::byte> buf(kBlockBytes);
  EXPECT_THROW(dev.read(victim, buf), CorruptBlock)
      << "child-written block was not covered by the merged checksum table";
  std::remove(dev_path.c_str());
}

// ---------------------------------------------------------------------------
// The round supervisor, driven directly with custom bodies: failure
// injection, bounded inline re-execution, worker_retries attribution,
// structured events, retry exhaustion, and elastic degradation.

/// Coordinator-allocated scratch range plus a body writing two blocks per
/// worker (and reading one back), so every recovery has real I/O to re-count.
struct SupervisedRound {
  BlockRange range;

  explicit SupervisedRound(BlockDevice& dev) : range(dev.allocate(8)) {}

  [[nodiscard]] WorkerGroup::RoundBody body() const {
    const BlockRange r = range;
    return [r](Context& wctx, std::size_t w) -> std::vector<std::byte> {
      BlockDevice& d = wctx.device();
      std::vector<std::byte> blk(d.block_bytes(),
                                 std::byte{static_cast<unsigned char>(w + 1)});
      d.write(r.first + 2 * w, blk);
      d.write(r.first + 2 * w + 1, blk);
      d.read(r.first + 2 * w, blk);
      WireWriter wire;
      wire.u64(w);
      return wire.take();
    };
  }

  void check(BlockDevice& dev, const RoundOutcome& out, std::size_t W) const {
    ASSERT_EQ(out.payloads.size(), W);
    ASSERT_EQ(out.rows.size(), W);
    std::vector<std::byte> blk(dev.block_bytes());
    for (std::size_t w = 0; w < W; ++w) {
      WireReader rd(out.payloads[w]);
      EXPECT_EQ(rd.u64(), w) << "payload of worker " << w;
      dev.read(range.first + 2 * w, blk);
      EXPECT_EQ(std::to_integer<unsigned>(blk[0]), w + 1) << "worker " << w;
    }
  }
};

std::vector<std::string> kinds_of(const std::vector<SupervisionEvent>& evs) {
  std::vector<std::string> v;
  v.reserve(evs.size());
  for (const SupervisionEvent& e : evs) v.push_back(e.kind);
  return v;
}

TEST(WorkerSupervision, InlineCrashRecoversWithAttributedRetries) {
  InlineWorkersGuard inline_workers;
  MemoryBlockDevice dev(kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  WorkerTuning wt;
  wt.workers = 2;
  wt.kill_worker = 1;
  wt.kill_round = 1;
  wt.max_worker_retries = 2;
  ctx.set_worker_tuning(wt);
  WorkerGroup group(ctx);
  ASSERT_FALSE(group.forked());

  SupervisedRound round(dev);
  dev.reset_stats();
  RoundOutcome out = group.round("sup", round.body());
  const IoStats io = dev.stats();  // before check()'s verification reads
  round.check(dev, out, 2);

  // The injected failure cost one re-execution: worker 1's row carries its
  // re-executed volume (2 writes + 1 read) as worker_retries, matching the
  // device-level counter, and base counts equal the fault-free schedule.
  EXPECT_EQ(io.reads, 2u);
  EXPECT_EQ(io.writes, 4u);
  EXPECT_EQ(io.worker_retries, 3u);
  EXPECT_EQ(out.rows[0].io.worker_retries, 0u);
  EXPECT_EQ(out.rows[1].io.worker_retries, 3u);
  EXPECT_EQ(out.rows[1].io.reads, 1u);
  EXPECT_EQ(out.rows[1].io.writes, 2u);

  const auto events = ctx.take_supervision();
  EXPECT_EQ(kinds_of(events), (std::vector<std::string>{"death", "retry"}));
  EXPECT_EQ(events[0].round, 1u);
  EXPECT_EQ(events[0].worker, 1u);
}

TEST(WorkerSupervision, RetriesExhaustIntoWorkerDied) {
  InlineWorkersGuard inline_workers;  // a throwing body needs inline units
  MemoryBlockDevice dev(kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  WorkerTuning wt;
  wt.workers = 2;
  wt.kill_worker = 1;
  wt.kill_round = 1;
  wt.max_worker_retries = 2;
  ctx.set_worker_tuning(wt);
  WorkerGroup group(ctx);

  const auto body = [](Context&, std::size_t w) -> std::vector<std::byte> {
    if (w == 1) throw std::runtime_error("unit is cursed");
    return {};
  };
  bool died = false;
  try {
    (void)group.round("sup", body);
  } catch (const WorkerDied& e) {
    died = true;
    EXPECT_EQ(e.worker(), 1u);
    EXPECT_NE(std::string(e.what()).find("cursed"), std::string::npos);
  }
  ASSERT_TRUE(died);
  EXPECT_EQ(kinds_of(ctx.take_supervision()),
            (std::vector<std::string>{"death", "retry", "retry", "give-up"}));
}

enum class Fault { kKill, kHang, kCorrupt };

class ForkedSupervision : public ::testing::TestWithParam<Fault> {};

TEST_P(ForkedSupervision, RecoversWithIdenticalBaseIo) {
  const Fault fault = GetParam();
  const std::string dev_path = testing::TempDir() + "/wg_sup_forked.dev";

  // Fault-free reference round for the base-I/O comparison.
  IoStats ref;
  {
    std::remove(dev_path.c_str());
    FileBlockDevice dev(dev_path, kBlockBytes);
    Context ctx(dev, kMemBlocks * kBlockBytes);
    ctx.set_worker_tuning({2});
    WorkerGroup group(ctx);
    ASSERT_TRUE(group.forked());
    SupervisedRound round(dev);
    dev.reset_stats();
    RoundOutcome out = group.round("sup", round.body());
    round.check(dev, out, 2);
    ref = dev.stats();
    EXPECT_EQ(ref.worker_retries, 0u);
  }

  std::remove(dev_path.c_str());
  FileBlockDevice dev(dev_path, kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  WorkerTuning wt;
  wt.workers = 2;
  wt.max_worker_retries = 2;
  const char* expected_kind = nullptr;
  switch (fault) {
    case Fault::kKill:
      wt.kill_worker = 1;
      wt.kill_round = 1;
      expected_kind = "death";
      break;
    case Fault::kHang:
      wt.hang_worker = 1;
      wt.hang_round = 1;
      wt.worker_timeout = 1.0;
      expected_kind = "timeout";
      break;
    case Fault::kCorrupt:
      wt.corrupt_worker = 1;
      wt.corrupt_round = 1;
      expected_kind = "corrupt-frame";
      break;
  }
  ctx.set_worker_tuning(wt);
  WorkerGroup group(ctx);
  ASSERT_TRUE(group.forked());

  SupervisedRound round(dev);
  dev.reset_stats();
  RoundOutcome out = group.round("sup", round.body());
  round.check(dev, out, 2);

  // Base logical I/O identical to the fault-free round; the re-executed
  // volume reported separately.
  const IoStats io = dev.stats();
  EXPECT_EQ(io.base(), ref.base());
  EXPECT_EQ(io.worker_retries, 3u);
  EXPECT_EQ(out.rows[1].io.worker_retries, 3u);

  const auto events = ctx.take_supervision();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, expected_kind);
  EXPECT_EQ(events[0].round, 1u);
  EXPECT_EQ(events[0].worker, 1u);
  EXPECT_EQ(events[1].kind, "retry");
  std::remove(dev_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Faults, ForkedSupervision,
                         ::testing::Values(Fault::kKill, Fault::kHang,
                                           Fault::kCorrupt),
                         [](const auto& fault_info) {
                           switch (fault_info.param) {
                             case Fault::kKill: return "Kill";
                             case Fault::kHang: return "Hang";
                             default: return "Corrupt";
                           }
                         });

TEST(WorkerSupervision, DegradationHalvesWidthBetweenRounds) {
  MemoryBlockDevice dev(kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  WorkerTuning wt;
  wt.workers = 4;
  wt.kill_worker = 0;
  wt.kill_round = 1;
  wt.max_worker_retries = 1;
  wt.degrade_after = 1;
  ctx.set_worker_tuning(wt);
  WorkerGroup group(ctx);
  ASSERT_EQ(group.workers(), 4u);

  const auto body = [](Context&, std::size_t w) -> std::vector<std::byte> {
    WireWriter wire;
    wire.u64(w);
    return wire.take();
  };
  // Round 1 runs at the full width (degradation only applies *between*
  // rounds -- the caller captured workers() when it built the body).
  RoundOutcome r1 = group.round("sup", body);
  EXPECT_EQ(r1.rows.size(), 4u);
  EXPECT_EQ(group.workers(), 2u) << "width must halve after the failure";

  RoundOutcome r2 = group.round("sup", body);
  EXPECT_EQ(r2.rows.size(), 2u);
  EXPECT_EQ(group.workers(), 2u) << "no further failures, no further halving";

  const auto events = ctx.take_supervision();
  EXPECT_EQ(kinds_of(events),
            (std::vector<std::string>{"death", "retry", "degrade"}));
  EXPECT_EQ(events[2].worker, 2u);  // the new width rides in the event
}

// ---------------------------------------------------------------------------
// Worker-aware memory partitioning: with mem_workers = K every distributed
// worker plans against and is budgeted M / K, so the reported per-worker
// budget peaks are bounded by M / K and any W <= K keeps the sum under M --
// while W itself stays bit-identical at fixed K.

TEST(WorkerSupervision, MemWorkersBoundsChildPeaksAndStaysWInvariant) {
  // 4x the matrix memory so the quartered per-worker plan still satisfies
  // dist_supported (the coordinator's planning tables budget against full M).
  const std::size_t mem_bytes = 4 * kMemBlocks * kBlockBytes;
  const auto host = make_workload(Workload::kUniform, kRecords, 75);
  const auto sorted_ref = sorted_copy(host);

  LegResult ref;
  bool have_ref = false;
  for (const std::size_t W : {1u, 2u, 4u}) {
    const std::string path =
        testing::TempDir() + "/wg_memw_" + std::to_string(W) + ".dev";
    std::remove(path.c_str());
    FileBlockDevice dev(path, kBlockBytes);
    Context ctx(dev, mem_bytes);
    WorkerTuning wt;
    wt.workers = W;
    wt.mem_workers = 4;
    ctx.set_worker_tuning(wt);
    PassTraceLog trace;
    ctx.set_pass_trace(&trace);
    auto input = materialize<Record>(ctx, std::span<const Record>(host));
    ASSERT_TRUE(dist::dist_supported<Record>(ctx, kRecords, 0))
        << "quartered plan no longer fits; grow the test's memory";

    dev.reset_stats();
    auto out = distribution_sort<Record>(ctx, input);
    LegResult leg;
    leg.io = dev.stats().base();
    leg.bytes = dump(out);
    ASSERT_EQ(leg.bytes, sorted_ref) << "W=" << W;

    // Every forked worker's reported budget peak obeys the M/K partition.
    const std::size_t share =
        std::max(mem_bytes / 4, 2 * ctx.block_bytes());
    std::size_t peaks_seen = 0;
    for (const PassTrace& row : trace.rows()) {
      for (const PassWorkerIo& wio : row.worker_io) {
        if (wio.peak_bytes == 0) continue;  // inline / recovered rows
        ++peaks_seen;
        EXPECT_LE(wio.peak_bytes, share)
            << row.pass << " worker " << wio.worker;
      }
    }
    EXPECT_GT(peaks_seen, 0u) << "no forked worker reported a budget peak";

    ctx.set_pass_trace(nullptr);
    std::remove(path.c_str());
    if (!have_ref) {
      ref = std::move(leg);
      have_ref = true;
      continue;
    }
    // Same knob, different W: bytes and logical I/O must not move.
    ASSERT_EQ(leg.bytes, ref.bytes) << "W=" << W;
    ASSERT_EQ(leg.io.reads, ref.io.reads) << "W=" << W;
    ASSERT_EQ(leg.io.writes, ref.io.writes) << "W=" << W;
  }
}

// ---------------------------------------------------------------------------
// Wire framing edge cases: every frame a worker sends home goes through
// WireReader, so a hostile or torn length prefix must fail as a
// runtime_error, never as undefined behaviour or an allocation blow-up.

TEST(WireFraming, EmptyPodVecRoundTrips) {
  WireWriter w;
  w.pod_span(std::span<const std::uint64_t>{});
  w.u64(7);
  const std::vector<std::byte> bytes = w.take();
  WireReader rd(bytes);
  EXPECT_TRUE(rd.pod_vec<std::uint64_t>().empty());
  EXPECT_EQ(rd.u64(), 7u);
  EXPECT_TRUE(rd.done());
}

TEST(WireFraming, WrappingLengthPrefixIsTruncation) {
  // 2^61 eight-byte elements: the byte size wraps to 0 in 64 bits.
  WireWriter w;
  w.u64(std::uint64_t{1} << 61);
  w.u64(0);
  const std::vector<std::byte> bytes = w.take();
  WireReader rd(bytes);
  EXPECT_THROW((void)rd.pod_vec<std::uint64_t>(), std::runtime_error);
}

}  // namespace
}  // namespace emsplit
