// Exhaustive fault-sweep harness: a permanent fault armed at EVERY I/O index
// of a run must unwind cleanly (no device-block or budget leaks), a transient
// fault at every index must be retried to an identical run, and with a
// checkpoint journal attached a crash at every index must resume to
// bit-identical output while repaying only the interrupted pass's I/Os.
//
// The sweeps are exhaustive by I/O index, not sampled — the point of the
// harness is that no fault position, pass boundary included, breaks the
// invariants (docs/model.md, "Failure model, retries, and recovery").
//
// The worker-fault sweep at the bottom is the distributed analogue: a worker
// killed, hung or frame-corrupted at EVERY (worker, round) position of a
// supervised dsort / multi-partition must recover without restarting the
// job — bit-identical output, identical base logical I/O, the re-executed
// volume attributed to worker_retries, and the failure visible as structured
// supervision events (docs/model.md, "Worker supervision").
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/api.hpp"
#include "em/checkpoint.hpp"
#include "em/pass_engine.hpp"
#include "test_helpers.hpp"

namespace emsplit {
namespace {

using testutil::EmEnv;

/// All records of `v`, read back through the stream layer.
std::vector<Record> dump(const EmVector<Record>& v) {
  std::vector<Record> out;
  out.reserve(v.size());
  StreamReader<Record> r(v);
  while (!r.done()) out.push_back(r.next());
  return out;
}

// ---------------------------------------------------------------------------
// Permanent faults: clean unwind at every index.

TEST(ExhaustiveFaultSweep, SortUnwindsCleanlyAtEveryIoIndex) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 1000, 21);
  auto input = materialize<Record>(env.ctx, host);
  env.dev.reset_stats();
  {
    auto s = external_sort<Record>(env.ctx, input);
  }
  const std::uint64_t total = env.dev.stats().total();
  ASSERT_GT(total, 0u);

  const auto blocks_before = env.dev.allocated_blocks();
  const auto mem_before = env.ctx.budget().used();
  for (std::uint64_t i = 0; i < total; ++i) {
    env.dev.arm_fault_after(i);
    bool faulted = false;
    try {
      auto s = external_sort<Record>(env.ctx, input);
    } catch (const DeviceFault&) {
      faulted = true;
    }
    env.dev.disarm_fault();
    ASSERT_TRUE(faulted) << "fault index " << i << " never fired";
    ASSERT_EQ(env.dev.allocated_blocks(), blocks_before)
        << "device blocks leaked at fault index " << i;
    ASSERT_EQ(env.ctx.budget().used(), mem_before)
        << "memory budget leaked at fault index " << i;
  }
  // Afterwards a clean run still succeeds.
  auto s = external_sort<Record>(env.ctx, input);
  EXPECT_TRUE(is_sorted_em(s));
}

TEST(ExhaustiveFaultSweep, PartitionUnwindsCleanlyAtEveryIoIndex) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 1000, 22);
  auto input = materialize<Record>(env.ctx, host);
  const std::vector<std::uint64_t> ranks{250, 500, 750};
  env.dev.reset_stats();
  {
    auto r = multi_partition<Record>(env.ctx, input, ranks);
  }
  const std::uint64_t total = env.dev.stats().total();
  ASSERT_GT(total, 0u);

  const auto blocks_before = env.dev.allocated_blocks();
  const auto mem_before = env.ctx.budget().used();
  for (std::uint64_t i = 0; i < total; ++i) {
    env.dev.arm_fault_after(i);
    bool faulted = false;
    try {
      auto r = multi_partition<Record>(env.ctx, input, ranks);
    } catch (const DeviceFault&) {
      faulted = true;
    }
    env.dev.disarm_fault();
    ASSERT_TRUE(faulted) << "fault index " << i << " never fired";
    ASSERT_EQ(env.dev.allocated_blocks(), blocks_before)
        << "device blocks leaked at fault index " << i;
    ASSERT_EQ(env.ctx.budget().used(), mem_before)
        << "memory budget leaked at fault index " << i;
  }
  auto r = multi_partition<Record>(env.ctx, input, ranks);
  EXPECT_EQ(r.data.size(), input.size());
}

// ---------------------------------------------------------------------------
// Transient faults: retried to an identical run at every index.

TEST(ExhaustiveFaultSweep, SortTransientRetriedAtEveryIoIndex) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 1000, 23);
  auto input = materialize<Record>(env.ctx, host);
  env.dev.reset_stats();
  auto ref_sorted = external_sort<Record>(env.ctx, input);
  const IoStats ref_io = env.dev.stats();  // before dump(): reads count too
  const auto ref_bytes = dump(ref_sorted);

  FaultPolicy policy;
  policy.max_retries = 1;
  env.ctx.set_fault_policy(policy);
  for (std::uint64_t i = 0; i < ref_io.total(); ++i) {
    env.dev.reset_stats();
    env.dev.arm_fault(FaultSchedule::fail_then_succeed(i, 1));
    auto s = external_sort<Record>(env.ctx, input);
    env.dev.disarm_fault();
    const IoStats io = env.dev.stats();
    ASSERT_EQ(io.base(), ref_io.base())
        << "base I/O counts diverged at fault index " << i;
    ASSERT_EQ(io.retries, 1u) << "fault index " << i;
    ASSERT_EQ(dump(s), ref_bytes) << "output diverged at fault index " << i;
  }
}

// ---------------------------------------------------------------------------
// Checkpointed crashes: resume to bit-identical output with exact repay.

TEST(CheckpointFaultSweep, SortResumesBitIdenticalWithExactRepay) {
  // Block-aligned N so each of the three passes costs exactly 2 * nblocks
  // I/Os, making the repay assertion exact: a resumed run costs the
  // reference total minus 2 * nblocks per journaled pass.
  const std::size_t n = 1024;
  auto host = make_workload(Workload::kUniform, n, 24);

  EmEnv ref(256, 8);
  auto ref_in = materialize<Record>(ref.ctx, host);
  ref.dev.reset_stats();
  auto ref_sorted = external_sort<Record>(ref.ctx, ref_in);
  const std::uint64_t ref_total = ref.dev.stats().total();
  const auto ref_bytes = dump(ref_sorted);
  const std::uint64_t nblocks = n / ref.ctx.block_records<Record>();
  ASSERT_EQ(ref_total % (2 * nblocks), 0u)
      << "geometry drifted: passes are no longer uniform full scans";

  for (std::uint64_t i = 0; i < ref_total; ++i) {
    EmEnv env(256, 8);
    const std::string jpath =
        testing::TempDir() + "/sweep_sort_" + std::to_string(i) + ".ckpt";
    std::remove(jpath.c_str());
    {
      CheckpointJournal journal(env.dev, jpath);
      env.ctx.set_checkpoint(&journal);
      auto in = materialize<Record>(env.ctx, host);
      const auto input_blocks = env.dev.allocated_blocks();
      env.dev.arm_fault_after(i);
      bool faulted = false;
      try {
        auto s = external_sort<Record>(env.ctx, in);
      } catch (const DeviceFault&) {
        faulted = true;
      }
      env.dev.disarm_fault();
      ASSERT_TRUE(faulted) << "fault index " << i << " never fired";
      // Nothing leaked: every live block is either the input or owned by
      // the journal on behalf of a completed pass.
      ASSERT_EQ(env.dev.allocated_blocks(),
                input_blocks + journal.owned_blocks())
          << "leak at fault index " << i;

      env.dev.reset_stats();
      auto out = external_sort<Record>(env.ctx, in);
      const std::uint64_t resumed_total = env.dev.stats().total();
      ASSERT_EQ(dump(out), ref_bytes)
          << "resumed output diverged at fault index " << i;
      // Exact repay: only the interrupted pass (and those after it) re-run.
      ASSERT_EQ(resumed_total,
                ref_total - journal.resumed_passes() * 2 * nblocks)
          << "fault index " << i;
      ASSERT_EQ(journal.owned_blocks(), 0u) << "fault index " << i;
      env.ctx.set_checkpoint(nullptr);
    }
    std::remove(jpath.c_str());
  }
}

TEST(CheckpointFaultSweep, PartitionResumesBitIdenticalAtEveryIoIndex) {
  const std::size_t n = 1024;
  auto host = make_workload(Workload::kUniform, n, 25);
  const std::vector<std::uint64_t> ranks{256, 512, 768};

  EmEnv ref(256, 8);
  auto ref_in = materialize<Record>(ref.ctx, host);
  ref.dev.reset_stats();
  auto ref_res = multi_partition<Record>(ref.ctx, ref_in, ranks);
  const std::uint64_t ref_total = ref.dev.stats().total();  // before dump()
  const auto ref_bytes = dump(ref_res.data);

  for (std::uint64_t i = 0; i < ref_total; ++i) {
    EmEnv env(256, 8);
    const std::string jpath =
        testing::TempDir() + "/sweep_part_" + std::to_string(i) + ".ckpt";
    std::remove(jpath.c_str());
    {
      CheckpointJournal journal(env.dev, jpath);
      env.ctx.set_checkpoint(&journal);
      auto in = materialize<Record>(env.ctx, host);
      const auto input_blocks = env.dev.allocated_blocks();
      env.dev.arm_fault_after(i);
      bool faulted = false;
      try {
        auto r = multi_partition<Record>(env.ctx, in, ranks);
      } catch (const DeviceFault&) {
        faulted = true;
      }
      env.dev.disarm_fault();
      ASSERT_TRUE(faulted) << "fault index " << i << " never fired";
      ASSERT_EQ(env.dev.allocated_blocks(),
                input_blocks + journal.owned_blocks())
          << "leak at fault index " << i;

      env.dev.reset_stats();
      auto res = multi_partition<Record>(env.ctx, in, ranks);
      const std::uint64_t resumed_total = env.dev.stats().total();
      ASSERT_EQ(dump(res.data), ref_bytes)
          << "resumed output diverged at fault index " << i;
      ASSERT_EQ(res.bounds, ref_res.bounds) << "fault index " << i;
      // Journaled progress is never repeated: any resumed pass makes the
      // rerun strictly cheaper than the reference run.
      if (journal.resumed_passes() > 0) {
        ASSERT_LT(resumed_total, ref_total) << "fault index " << i;
      }
      ASSERT_EQ(journal.owned_blocks(), 0u) << "fault index " << i;
      env.ctx.set_checkpoint(nullptr);
    }
    std::remove(jpath.c_str());
  }
}

// ---------------------------------------------------------------------------
// Cross-process resume: the journal file plus a preserve_contents
// FileBlockDevice survive a process death; a fresh process restores the
// allocator around the journaled extents and resumes.

TEST(CheckpointResume, SurvivesProcessReopen) {
  const std::size_t n = 1024;
  const std::string dir = testing::TempDir();
  const std::string dev_path = dir + "/xproc_device.bin";
  const std::string jpath = dir + "/xproc_journal.ckpt";
  std::remove(dev_path.c_str());
  std::remove((dev_path + ".sums").c_str());
  std::remove(jpath.c_str());
  auto host = make_workload(Workload::kUniform, n, 26);

  EmEnv ref(256, 8);
  auto ref_in = materialize<Record>(ref.ctx, host);
  ref.dev.reset_stats();
  auto ref_sorted = external_sort<Record>(ref.ctx, ref_in);
  const std::uint64_t ref_total = ref.dev.stats().total();
  const auto ref_bytes = dump(ref_sorted);
  const std::uint64_t nblocks = n / ref.ctx.block_records<Record>();

  {
    // "Process 1": crash inside the second pass.  Destruction here stands in
    // for the kill — the journal file and the device file are the only state
    // that survives a real SIGKILL, and they are all the next block reads.
    FileBlockDevice dev(dev_path, 256, /*keep_file=*/true,
                        /*preserve_contents=*/true);
    Context ctx(dev, 8 * 256);
    CheckpointJournal journal(dev, jpath);
    journal.restore_device();
    ctx.set_checkpoint(&journal);
    auto in = materialize<Record>(ctx, host);
    dev.arm_fault_after(2 * nblocks + nblocks / 2);  // mid pass 2
    bool faulted = false;
    try {
      auto s = external_sort<Record>(ctx, in);
    } catch (const DeviceFault&) {
      faulted = true;
    }
    ASSERT_TRUE(faulted);
    ctx.set_checkpoint(nullptr);
  }
  {
    // "Process 2": reopen, restore the allocator from the journal, resume.
    FileBlockDevice dev(dev_path, 256, /*keep_file=*/true,
                        /*preserve_contents=*/true);
    Context ctx(dev, 8 * 256);
    CheckpointJournal journal(dev, jpath);
    journal.restore_device();
    ctx.set_checkpoint(&journal);
    auto in = materialize<Record>(ctx, host);
    dev.reset_stats();
    auto out = external_sort<Record>(ctx, in);
    EXPECT_EQ(journal.resumed_passes(), 1u);
    EXPECT_EQ(dev.stats().total(), ref_total - 1 * 2 * nblocks);
    EXPECT_EQ(dump(out), ref_bytes);
    ctx.set_checkpoint(nullptr);
  }
  std::remove(dev_path.c_str());
  std::remove((dev_path + ".sums").c_str());
  std::remove(jpath.c_str());
}

// ---------------------------------------------------------------------------
// Worker supervision: a worker fault at every (worker, round) position of a
// distributed job recovers in-place to an identical run.

// The distributed geometry of test_worker_group.cpp: 8-record blocks, 256
// blocks of memory, 6000 records — dist_supported holds for both operations.
constexpr std::size_t kWgBlockBytes = 128;
constexpr std::size_t kWgMemBlocks = 256;
constexpr std::size_t kWgRecords = 6000;
const std::vector<std::uint64_t> kWgRanks{1234, 3000, 4567};

struct SweepRun {
  std::vector<Record> bytes;
  std::vector<std::uint64_t> bounds;          // partition only
  IoStats io;                                 // includes worker_retries
  std::vector<SupervisionEvent> events;       // concatenated over all passes
};

/// One supervised distributed run.  Empty `path` = memory device; otherwise
/// a FileBlockDevice.  Both fork their workers (all devices are fork-safe).
SweepRun run_supervised(const std::string& path, bool partition,
                        const std::vector<Record>& host,
                        const WorkerTuning& wt) {
  MemoryBlockDevice mem_dev(kWgBlockBytes);
  std::unique_ptr<FileBlockDevice> file_dev;
  BlockDevice* dev = &mem_dev;
  if (!path.empty()) {
    std::remove(path.c_str());
    file_dev = std::make_unique<FileBlockDevice>(path, kWgBlockBytes);
    dev = file_dev.get();
  }
  Context ctx(*dev, kWgMemBlocks * kWgBlockBytes);
  ctx.set_worker_tuning(wt);
  PassTraceLog trace;
  ctx.set_pass_trace(&trace);
  auto input = materialize<Record>(ctx, host);
  dev->reset_stats();
  SweepRun run;
  if (partition) {
    auto res = multi_partition<Record>(ctx, input, kWgRanks);
    run.io = dev->stats();
    run.bytes = dump(res.data);
    run.bounds = res.bounds;
  } else {
    auto out = distribution_sort<Record>(ctx, input);
    run.io = dev->stats();
    run.bytes = dump(out);
  }
  for (const PassTrace& row : trace.rows()) {
    run.events.insert(run.events.end(), row.supervision.begin(),
                      row.supervision.end());
  }
  ctx.set_pass_trace(nullptr);
  if (file_dev != nullptr) std::remove(path.c_str());
  return run;
}

enum class WorkerFault { kKill, kHang, kCorrupt };

const char* kind_name(WorkerFault f) {
  switch (f) {
    case WorkerFault::kKill: return "death";
    case WorkerFault::kHang: return "timeout";
    default: return "corrupt-frame";
  }
}

class WorkerFaultSweep : public ::testing::TestWithParam<bool> {};

TEST_P(WorkerFaultSweep, EveryWorkerRoundPositionRecoversToIdenticalRun) {
  const bool use_file = GetParam();
  constexpr std::size_t kW = 2;
  const auto host = make_workload(Workload::kUniform, kWgRecords, 31);

  for (const bool partition : {false, true}) {
    const std::string tag = std::string(use_file ? "file/" : "mem/") +
                            (partition ? "mpart" : "dsort");
    const std::string path =
        use_file ? testing::TempDir() + "/wsweep_" +
                       (partition ? "p" : "s") + ".dev"
                 : std::string();
    WorkerTuning fault_free;
    fault_free.workers = kW;
    const SweepRun ref = run_supervised(path, partition, host, fault_free);
    ASSERT_TRUE(ref.events.empty()) << tag;
    ASSERT_EQ(ref.io.worker_retries, 0u) << tag;

    // Supervision armed with no fault injected is bookkeeping, never
    // geometry or output: the unsupervised run's bytes, bounds and base I/O,
    // no re-executed volume and no supervision events.
    WorkerTuning at_rest = fault_free;
    at_rest.max_worker_retries = 2;
    at_rest.worker_timeout = 30;
    const SweepRun armed = run_supervised(path, partition, host, at_rest);
    EXPECT_EQ(armed.bytes, ref.bytes) << tag << "/at-rest";
    EXPECT_EQ(armed.bounds, ref.bounds) << tag << "/at-rest";
    EXPECT_EQ(armed.io.base(), ref.io.base()) << tag << "/at-rest";
    EXPECT_EQ(armed.io.worker_retries, 0u) << tag << "/at-rest";
    EXPECT_TRUE(armed.events.empty()) << tag << "/at-rest";

    for (const WorkerFault fault :
         {WorkerFault::kKill, WorkerFault::kHang, WorkerFault::kCorrupt}) {
      // Rounds are discovered by sweeping upward until an injection at
      // round R no longer fires (the job has fewer than R rounds).
      std::uint64_t rounds_hit = 0;
      for (std::uint64_t r = 1;; ++r) {
        bool fired = false;
        for (std::size_t w = 0; w < kW; ++w) {
          WorkerTuning wt;
          wt.workers = kW;
          wt.max_worker_retries = 2;
          switch (fault) {
            case WorkerFault::kKill:
              wt.kill_worker = w;
              wt.kill_round = r;
              break;
            case WorkerFault::kHang:
              wt.hang_worker = w;
              wt.hang_round = r;
              wt.worker_timeout = 0.5;  // bodies run in milliseconds
              break;
            case WorkerFault::kCorrupt:
              wt.corrupt_worker = w;
              wt.corrupt_round = r;
              break;
          }
          const SweepRun run = run_supervised(path, partition, host, wt);
          const std::string at = tag + std::string("/") + kind_name(fault) +
                                 " (w=" + std::to_string(w) +
                                 ", r=" + std::to_string(r) + ")";
          if (run.events.empty()) {
            // Round r does not exist: the run must have been fault-free.
            ASSERT_EQ(run.io.worker_retries, 0u) << at;
            continue;
          }
          fired = true;
          // The whole contract at once: the job completed without restart,
          // bytes bit-identical, base logical I/O identical, re-executed
          // volume attributed separately, failure + recovery both recorded.
          ASSERT_EQ(run.bytes, ref.bytes) << at;
          ASSERT_EQ(run.bounds, ref.bounds) << at;
          ASSERT_EQ(run.io.base(), ref.io.base()) << at;
          ASSERT_GT(run.io.worker_retries, 0u) << at;
          bool saw_fault = false;
          bool saw_retry = false;
          for (const SupervisionEvent& e : run.events) {
            if (e.kind == kind_name(fault) && e.round == r && e.worker == w) {
              saw_fault = true;
            }
            if (e.kind == "retry" && e.round == r && e.worker == w) {
              saw_retry = true;
            }
          }
          EXPECT_TRUE(saw_fault) << at << ": no failure event recorded";
          EXPECT_TRUE(saw_retry) << at << ": no retry event recorded";
        }
        if (!fired) break;
        ++rounds_hit;
      }
      // Every distributed job here has at least formation, one selection
      // round and the scatter — if fewer rounds fired, the geometry fell
      // back to the classic path and the sweep proved nothing.
      ASSERT_GE(rounds_hit, 3u) << tag << "/" << kind_name(fault);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, WorkerFaultSweep, ::testing::Bool(),
                         [](const auto& mode_info) {
                           return mode_info.param ? "Forked" : "Inline";
                         });

// The structured events surface in the JSONL trace exactly as documented:
// one "supervision" array per pass row, each event carrying round, worker,
// kind and detail.
TEST(WorkerFaultSweepTrace, SupervisionEventsReachTheJsonTrace) {
  const auto host = make_workload(Workload::kUniform, kWgRecords, 32);
  MemoryBlockDevice dev(kWgBlockBytes);
  Context ctx(dev, kWgMemBlocks * kWgBlockBytes);
  WorkerTuning wt;
  wt.workers = 2;
  wt.kill_worker = 0;
  wt.kill_round = 2;
  wt.max_worker_retries = 1;
  ctx.set_worker_tuning(wt);
  PassTraceLog trace;
  ctx.set_pass_trace(&trace);
  auto input = materialize<Record>(ctx, host);
  auto out = distribution_sort<Record>(ctx, input);
  ASSERT_EQ(out.size(), kWgRecords);

  bool found = false;
  for (const PassTrace& row : trace.rows()) {
    const std::string json = pass_trace_json(row);
    if (row.supervision.empty()) {
      EXPECT_NE(json.find("\"supervision\":[]"), std::string::npos) << row.pass;
      continue;
    }
    found = true;
    EXPECT_NE(json.find("\"supervision\":[{\"round\":2,\"worker\":0,"
                        "\"kind\":\"death\""),
              std::string::npos)
        << json;
    EXPECT_GT(row.io.worker_retries, 0u) << row.pass;
    EXPECT_NE(json.find("\"worker_retries\":"), std::string::npos);
  }
  EXPECT_TRUE(found) << "kill at round 2 left no supervision events";
  ctx.set_pass_trace(nullptr);
}

}  // namespace
}  // namespace emsplit
