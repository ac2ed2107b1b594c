// api.hpp — the emsplit public API, one include.
//
//   #include "core/api.hpp"
//
//   using namespace emsplit;
//   MemoryBlockDevice dev(/*block_bytes=*/4096);
//   Context ctx(dev, /*mem_bytes=*/1 << 20);
//   EmVector<Record> data = materialize<Record>(ctx, host_records);
//
//   // K-1 splitters with buckets in [a, b]:
//   auto s = approx_splitters<Record>(ctx, data, {.k = 16, .a = 100, .b = 900});
//
//   // Physical partitioning with sizes in [a, b]:
//   auto p = approx_partitioning<Record>(ctx, data, {.k = 16, .a = 100, .b = 900});
//
//   // The machinery is public too: multi_select / multi_partition /
//   // select_rank / external_sort / intermixed_select.
//
// See README.md for the model, the guarantees, and the experiment harness.
#pragma once

#include "apps/histogram.hpp"      // nearly equi-depth histograms
#include "apps/load_balance.hpp"   // K-machine load balancing
#include "apps/range_count.hpp"    // batched ranks / range counts
#include "apps/top_k.hpp"          // K largest / smallest
#include "baselines/quantile_sketch.hpp"  // one-pass merge-collapse summary
#include "baselines/sort_baseline.hpp"  // sort_* baselines, naive_multi_select
#include "core/partitioning.hpp"   // approx_partitioning (Theorem 6)
#include "core/spec.hpp"           // ApproxSpec, validate_spec
#include "core/splitters.hpp"      // approx_splitters (Theorem 5)
#include "core/verify.hpp"         // verify_splitters / verify_partitioning
#include "em/block_device.hpp"     // MemoryBlockDevice, FileBlockDevice
#include "em/context.hpp"          // Context (M, B, budget, stats)
#include "em/em_vector.hpp"        // EmVector<T>
#include "em/stream.hpp"           // StreamReader/Writer, materialize, to_host
#include "partition/multi_partition.hpp"  // multi_partition, precise_partition
#include "partition/reduction.hpp"        // §3 reduction demo
#include "em/file_io.hpp"                 // streaming file import/export
#include "em/paged_array.hpp"             // LRU buffer pool (counterfactual)
#include "em/phase_profile.hpp"           // per-phase I/O attribution
#include "select/intermixed.hpp"          // intermixed_select (§4.1)
#include "select/multi_select.hpp"        // multi_select (Theorem 4), select_rank
#include "select/sampled_splitters.hpp"   // randomized splitter engine
#include "sort/distribution_sort.hpp"     // the other optimal sort
#include "sort/external_sort.hpp"         // external_sort (the baseline)
#include "sort/merge_sorted.hpp"          // public k-way merge
#include "util/distinct_adapter.hpp"      // multiset -> total order tagging
#include "util/record.hpp"                // Record
#include "util/workload.hpp"              // input generators
