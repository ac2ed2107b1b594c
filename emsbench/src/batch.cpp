// batch.cpp — the batch_cold workload: the paper's two problems at N >> M.
//
// Each job stages a cold input file onto a FileBlockDevice (4 KiB blocks,
// batched I/O, W = 2 forked workers), then runs two-sided approx_splitters
// and two-sided approx_partitioning over it.  Set-up (timed as setup_s)
// evicts the input from the page cache, imports it, and makes the staged
// device file durable and cold too, so the job's first pass pays the disk.
// Outputs are checked outside the timed section with verify_splitters /
// verify_partitioning and against a host-side sorted oracle.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "common.hpp"
#include "core/partitioning.hpp"
#include "core/splitters.hpp"
#include "core/verify.hpp"
#include "em/block_device.hpp"
#include "em/context.hpp"
#include "em/file_io.hpp"
#include "em/pass_engine.hpp"
#include "instruments.hpp"
#include "layers.hpp"
#include "oracle.hpp"

namespace emsbench {

using emsplit::Record;

namespace {

constexpr std::size_t kBlockBytes = 4096;
constexpr std::size_t kRecords = std::size_t{1} << 21;     // N = 2M (32 MB)
constexpr std::size_t kMemBytes = std::size_t{8} << 20;    // M = 8 MB = N/4
constexpr std::size_t kBatchBlocks = 32;
constexpr std::size_t kWorkers = 2;
constexpr std::uint64_t kParts = 64;                       // K
constexpr int kMinJobs = 3;

/// One job's measurements.
struct Job {
  double setup_s = 0;
  double splitters_s = 0;
  double partition_s = 0;
  std::uint64_t ios = 0;
  double rss_mb = 0;
  bool ok = false;
  // Traced jobs only.
  TimedDevice::Totals device;
  double budget_peak_frac = 0;
};

Job run_job(const RunArgs& args, const std::string& input_path,
            const Oracle& oracle, std::uint64_t base_rss,
            int index, bool traced, LayerTotals& layers) {
  const emsplit::ApproxSpec spec{.k = kParts,
                                 .a = kRecords / (4 * kParts),
                                 .b = 4 * kRecords / kParts};
  Job job;
  const std::string dev_path =
      args.dir + "/device-" + std::to_string(index) + ".bin";

  // ---- set-up: cold input, staged onto a cold device --------------------
  const auto t0 = Clock::now();
  evict_file(input_path);
  emsplit::FileBlockDevice file_dev(dev_path, kBlockBytes);
  std::optional<TimedDevice> timed;
  emsplit::BlockDevice* dev = &file_dev;
  if (traced) dev = &timed.emplace(file_dev);
  emsplit::Context ctx(*dev, kMemBytes);
  ctx.set_io_tuning(emsplit::IoTuning{kBatchBlocks, 0, false});
  emsplit::WorkerTuning wt;
  wt.workers = kWorkers;
  ctx.set_worker_tuning(wt);
  emsplit::EmVector<Record> input =
      emsplit::import_file<Record>(ctx, input_path);
  evict_file(dev_path);
  job.setup_s = seconds_since(t0);

  emsplit::PassTraceLog passes;
  emsplit::PhaseProfile profile;
  std::optional<PhaseClock> clock;
  if (traced) {
    ctx.set_pass_trace(&passes);
    profile.attach(clock.emplace(*dev));
    ctx.set_profile(&profile);
  }
  const TimedDevice::Totals dev0 = traced ? timed->totals() : TimedDevice::Totals{};

  // ---- timed section -----------------------------------------------------
  ctx.budget().reset_peak();
  reset_peak_rss();
  const emsplit::IoStats io0 = ctx.io();
  const auto t1 = Clock::now();
  const std::vector<Record> splitters =
      emsplit::approx_splitters<Record>(ctx, input, spec);
  const auto t2 = Clock::now();
  emsplit::ApproxPartitioning<Record> part =
      emsplit::approx_partitioning<Record>(ctx, input, spec);
  const auto t3 = Clock::now();
  const emsplit::IoStats io1 = ctx.io();
  const std::uint64_t peak = peak_rss_bytes();

  job.splitters_s = std::chrono::duration<double>(t2 - t1).count();
  job.partition_s = std::chrono::duration<double>(t3 - t2).count();
  job.ios = (io1 - io0).base().total();
  job.rss_mb = static_cast<double>(peak > base_rss ? peak - base_rss : 0) /
               (1024.0 * 1024.0);
  if (traced) {
    const TimedDevice::Totals d = timed->totals();
    job.device.read_s = d.read_s - dev0.read_s;
    job.device.write_s = d.write_s - dev0.write_s;
    job.device.read_blocks = d.read_blocks - dev0.read_blocks;
    job.device.write_blocks = d.write_blocks - dev0.write_blocks;
    job.device.calls = d.calls - dev0.calls;
    job.budget_peak_frac = static_cast<double>(ctx.budget().peak()) /
                           static_cast<double>(ctx.budget().capacity());
    ctx.set_profile(nullptr);
    ctx.set_pass_trace(nullptr);
    layers.add_profile(profile);
    layers.add_passes(passes);
  }

  // ---- oracle, outside the timed section ---------------------------------
  const emsplit::VerifyResult vs =
      emsplit::verify_splitters<Record>(input, splitters, spec);
  const emsplit::VerifyResult vp = emsplit::verify_partitioning<Record>(
      input, part.data, part.bounds, spec);
  job.ok = vs.ok && vp.ok && vs.sizes == vp.sizes &&
           oracle.splitter_ranks_ok(splitters, part.bounds);
  if (!job.ok) {
    std::fprintf(stderr, "batch_cold: job %d failed verification: %s%s\n",
                 index, vs.reason.c_str(), vp.reason.c_str());
  }
  return job;
}

}  // namespace

Report run_batch(const RunArgs& args) {
  const std::string input_path = args.dir + "/input.bin";
  Oracle oracle;
  {
    std::vector<Record> recs = make_records(kRecords, args.seed);
    write_records(input_path, recs);
    oracle.sorted = std::move(recs);
  }
  std::sort(oracle.sorted.begin(), oracle.sorted.end());
  const std::uint64_t base_rss = rss_bytes();

  // Untraced runs time every job clean.  The traced run alternates clean
  // and instrumented jobs: the instrumented ones give the per-layer figures
  // and the difference between the two is the instruments' overhead.
  std::vector<Job> clean, instrumented;
  LayerTotals layers;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    Job job = run_job(args, input_path, oracle, base_rss, i, traced, layers);
    (traced ? instrumented : clean).push_back(job);
    const std::size_t done = std::min(clean.size(), args.trace
                                                        ? instrumented.size()
                                                        : clean.size());
    if (done >= kMinJobs && seconds_since(start) >= args.seconds) break;
  }

  Report r;
  std::vector<double> setup, job_s, ios, rss;
  for (const Job& j : clean) {
    setup.push_back(j.setup_s);
    job_s.push_back(j.splitters_s + j.partition_s);
    ios.push_back(static_cast<double>(j.ios));
    rss.push_back(j.rss_mb);
  }
  for (const std::vector<Job>* jobs : {&clean, &instrumented}) {
    for (const Job& j : *jobs) {
      ++r.attempted;
      if (!j.ok) ++r.failed;
    }
  }
  r.correct = r.failed == 0;

  if (!args.trace) {
    r.set("setup_s", median(setup));
    r.set("p50_ms", 1e3 * median(job_s));
    std::vector<double> tail = job_s;
    r.set("p90_ms", 1e3 * quantile(tail, 0.90));
    r.set("block_ios", median(ios));
    r.set("peak_rss_mb", median(rss));
    return r;
  }

  const double jobs = static_cast<double>(instrumented.size());
  std::vector<double> splitters_s, partition_s, traced_job_s;
  double read_s = 0, write_s = 0, peak_frac = 0;
  std::uint64_t blocks = 0, calls = 0, reads = 0;
  for (const Job& j : instrumented) {
    splitters_s.push_back(j.splitters_s);
    partition_s.push_back(j.partition_s);
    traced_job_s.push_back(j.splitters_s + j.partition_s);
    read_s += j.device.read_s;
    write_s += j.device.write_s;
    blocks += j.device.read_blocks + j.device.write_blocks;
    reads += j.device.read_blocks;
    calls += j.device.calls;
    peak_frac = std::max(peak_frac, j.budget_peak_frac);
  }
  r.set("core.splitters_s", median(splitters_s));
  r.set("core.partition_s", median(partition_s));
  r.set("em.device.read_s", read_s / jobs);
  r.set("em.device.write_s", write_s / jobs);
  r.set("em.device.us_per_block",
        blocks > 0 ? 1e6 * (read_s + write_s) / static_cast<double>(blocks) : 0);
  r.set("em.device.blocks_per_call",
        calls > 0 ? static_cast<double>(blocks) / static_cast<double>(calls) : 0);
  r.set("em.device.reads", static_cast<double>(reads) / jobs);
  r.set("em.compute_s", median(traced_job_s) - (read_s + write_s) / jobs);
  r.set("em.budget.peak_frac", peak_frac);
  layers.report(r, jobs);
  const double clean_s = median(job_s);
  r.set("trace.overhead_pct",
        100.0 * (median(traced_job_s) - clean_s) / clean_s);
  return r;
}

}  // namespace emsbench
