// dist_plan.hpp — geometry of a distributed partition/sort job.
//
// The distributed passes (dist_rounds.hpp, distributed.hpp) obey one
// invariant above all others: **W is geometry, never output**.  Every pass
// decomposes into *work units* whose shape depends only on (n, record size,
// B, M, stream tuning) — never on the worker count — and W merely assigns
// units to workers.  Running all units on one worker or spreading them over
// four executes the identical per-unit I/O schedule against disjoint block
// ranges, so logical IoStats totals and output bytes are equal for every W.
// This header computes that W-free shape:
//
//   * chunk    — the run length of the formation pass.  A multiple of B, so
//                the uniform chunk grid {0, C, 2C, ...} never puts two
//                workers' records in one block (a copy-on-write child whose
//                sibling wrote the other half of a shared block would lose
//                the sibling's half on its own read-modify-write).
//   * stride   — the sample stride of the pivot exchange: every stride-th
//                record of each sorted run, so a splitter candidate's true
//                rank differs from its sampled rank by < U * stride
//                (cf. the paper's per-piece sampling bound).
//   * target   — the part size the splitter grid aims for (chunk / 2, so a
//                part whose candidate ranks land within the sampling error
//                still fits the in-memory bound `limit` = chunk).
//
// The memory plan splits M once and for all: at most 1/4 for the
// coordinator's planning tables (samples, cut matrix, edge records) and at
// most 5/8 for one worker unit (gather buffer or merge cursors, plus the
// part writer and two staging blocks).  Both coexist in inline mode, where
// worker units run in the coordinator's own budget.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "em/checkpoint.hpp"
#include "em/context.hpp"
#include "em/em_vector.hpp"

namespace emsplit::dist {

/// The W-free shape of one distributed job over n records.
struct DistPlan {
  std::size_t n = 0;       ///< record count
  std::size_t b = 0;       ///< records per block
  std::size_t sbr = 0;     ///< records per stream batch (batch_blocks * b)
  std::size_t chunk = 0;   ///< formation run length (multiple of b)
  std::size_t n_runs = 0;  ///< U = ceil(n / chunk)
  std::size_t stride = 0;  ///< sample stride within each sorted run
  std::size_t target = 0;  ///< splitter grid spacing (part size aim)
  std::size_t limit = 0;   ///< max part loadable for an in-memory sort
};

/// The per-worker memory share the plan is computed against: M divided by
/// WorkerTuning::mem_workers, floored at the model's 2B minimum.  mem_workers
/// is geometry (it shapes chunk and therefore the unit grid) but W-free, so
/// any W <= mem_workers keeps the aggregate worker footprint <= M while every
/// W at a fixed mem_workers stays bit-identical.
template <EmRecord T>
[[nodiscard]] std::size_t dist_worker_mem(const Context& ctx) {
  const std::size_t mw = std::max<std::size_t>(
      1, ctx.worker_tuning().mem_workers);
  return std::max(ctx.mem_records<T>() / mw, 2 * ctx.block_records<T>());
}

template <EmRecord T>
[[nodiscard]] DistPlan make_dist_plan(const Context& ctx, std::size_t n) {
  DistPlan p;
  p.n = n;
  p.b = ctx.block_records<T>();
  p.sbr = ctx.batch_blocks() * p.b;
  const std::size_t mem = dist_worker_mem<T>(ctx);
  // Worker-unit cap: 5/8 of the per-worker share, minus the part writer's
  // buffer and staging blocks, floored to a whole number of blocks (the grid
  // alignment above).
  const std::size_t cap = mem - 3 * (mem / 8);
  std::size_t chunk = cap > p.sbr + 3 * p.b ? cap - p.sbr - 3 * p.b : p.b;
  chunk = std::max(p.b, chunk / p.b * p.b);
  p.chunk = chunk;
  p.n_runs = n == 0 ? 0 : (n + chunk - 1) / chunk;
  p.target = std::max<std::size_t>(1, chunk / 2);
  p.limit = chunk;
  std::size_t s = std::max<std::size_t>(
      1, p.target / (2 * std::max<std::size_t>(1, p.n_runs)));
  // Cap total samples at M/16 records so the coordinator's copy stays well
  // inside the planning-table quarter.
  const std::size_t max_samples = std::max<std::size_t>(64, mem / 16);
  if (n / s > max_samples) s = (n + max_samples - 1) / max_samples;
  p.stride = s;
  return p;
}

/// Can the distributed protocol run this job within the memory plan?  False
/// routes the caller to the classic single-process path (identical output —
/// the fallback is itself trivially W-invariant).  `extra_ranks` is the
/// requested split-rank count (0 for a full sort); it widens the cut matrix.
///
/// The `used() == 0` guard rejects *nested* invocations: an algorithm that
/// calls multi_partition while holding reservations (the splitter recursion,
/// a bucket leaf) must not stack a second full memory plan on top.
template <EmRecord T>
[[nodiscard]] bool dist_supported(const Context& ctx, std::size_t n,
                                  std::size_t extra_ranks) {
  if (ctx.workers() == 0 || n == 0) return false;
  if (ctx.budget().used() != 0) return false;
  const DistPlan p = make_dist_plan<T>(ctx, n);
  if (p.n_runs < 2) return true;  // one run: the formation pass finishes it
  // Worker units live in the per-worker share; the coordinator's planning
  // tables (cut matrix, edges) live in the full-M quarter/eighth below.
  const std::size_t mem = dist_worker_mem<T>(ctx);
  const std::size_t cap = mem - 3 * (mem / 8);
  // Streaming merge of an oversized part: one cursor block per run, the part
  // writer's buffer, staging.
  if ((p.n_runs + 1) * p.b + p.sbr + 2 * p.b > cap) return false;
  // Cut matrix: every splitter's per-run cut positions, as u64 ranks.
  const std::size_t max_splitters = n / p.target + extra_ranks + 2;
  if (max_splitters > (ctx.mem_bytes() / 16) /
                          ((p.n_runs + 1) * sizeof(std::uint64_t))) {
    return false;
  }
  // Edge records the coordinator stitches: < 2 blocks per part.
  if (max_splitters + 1 > (ctx.mem_bytes() / 8) / (2 * p.b * sizeof(T))) {
    return false;
  }
  return true;
}

/// Job fingerprint for the distributed chain.  Digests everything that
/// shapes the pass structure — and deliberately *not* W: a job killed under
/// one worker count resumes under any other (the units, and therefore the
/// journaled extents, are identical).
template <EmRecord T>
[[nodiscard]] std::uint64_t dist_fingerprint(
    const Context& ctx, std::size_t n, std::uint64_t tag,
    const std::vector<std::uint64_t>& ranks) {
  std::uint64_t h = fingerprint_mix(kFingerprintSeed, tag);
  h = fingerprint_mix(h, n);
  h = fingerprint_mix(h, sizeof(T));
  h = fingerprint_mix(h, ctx.block_records<T>());
  h = fingerprint_mix(h, ctx.batch_blocks());
  h = fingerprint_mix(h, ctx.mem_records<T>());
  // mem_workers shapes the unit grid (like M itself); W still never does.
  h = fingerprint_mix(h, ctx.worker_tuning().mem_workers);
  h = fingerprint_mix(h, ranks.size());
  for (const std::uint64_t r : ranks) h = fingerprint_mix(h, r);
  return h;
}

inline constexpr std::uint64_t kDistSortTag = 0x44535453;  // "DSTS"
inline constexpr std::uint64_t kDistPartTag = 0x44535450;  // "DSTP"

/// Contiguous balanced unit assignment: worker w owns units
/// [unit_begin(total, W, w), unit_begin(total, W, w + 1)).  Pure arithmetic,
/// identical in every process.
inline std::size_t unit_begin(std::size_t total, std::size_t workers,
                              std::size_t w) {
  return total * w / workers;
}

/// The worker owning unit `u` under the same assignment.
inline std::size_t unit_owner(std::size_t total, std::size_t workers,
                              std::size_t u) {
  std::size_t w = u * workers / total;  // first guess, then walk the rounding
  while (unit_begin(total, workers, w + 1) <= u) ++w;
  while (unit_begin(total, workers, w) > u) --w;
  return w;
}

/// One realized output piece of a distributed job, tiling [0, n).  Same
/// shape as MultiPartitionSpan, redeclared here so the partition layer can
/// include this header without a cycle.
struct DistSpan {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool sorted = false;
};

/// Spans pack into the journal's per-pass offsets array exactly like the
/// distribution sort's encoding: (hi << 1) | sorted, lo implicit.
inline std::vector<std::uint64_t> encode_dist_spans(
    const std::vector<DistSpan>& spans) {
  std::vector<std::uint64_t> enc;
  enc.reserve(spans.size());
  for (const DistSpan& s : spans) enc.push_back((s.hi << 1) | (s.sorted ? 1 : 0));
  return enc;
}

inline std::vector<DistSpan> decode_dist_spans(
    const std::vector<std::uint64_t>& enc) {
  std::vector<DistSpan> spans;
  spans.reserve(enc.size());
  std::uint64_t lo = 0;
  for (const std::uint64_t e : enc) {
    spans.push_back({lo, e >> 1, (e & 1) != 0});
    lo = e >> 1;
  }
  return spans;
}

}  // namespace emsplit::dist
