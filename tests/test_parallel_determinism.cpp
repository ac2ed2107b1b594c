// The CPU pool's core contract: the thread count is pure execution width.
// For any number of threads, every algorithm produces bit-identical output
// and identical IoStats totals — parallel kernels are written as exact
// serial equivalents (group-ownership quintet formation, fixed-order
// partial reduction, position-slot classification), and sort-shard geometry
// is a separate knob that does not move with the thread count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <vector>

#include "em/context.hpp"
#include "em/stream.hpp"
#include "partition/multi_partition.hpp"
#include "select/grouped.hpp"
#include "select/intermixed.hpp"
#include "sort/distribution_sort.hpp"
#include "sort/external_sort.hpp"
#include "test_helpers.hpp"
#include "util/workload.hpp"

namespace emsplit {
namespace {

struct Shape {
  const char* name;
  std::size_t block_bytes;
  std::size_t mem_blocks;
  std::size_t n;
  IoTuning io;
};

// One classic-geometry shape, and one whose batches are big enough
// (batch_blocks * block_records >= the scan grain) for the data-parallel
// batch kernels to actually dispatch to the pool.
const Shape kShapes[] = {
    {"classic", 128, 32, 20000, IoTuning{4}},
    {"wide_batches", 512, 256, 60000, IoTuning{64}},
};

// The CI matrix leg sets EMSPLIT_TEST_THREADS to pin the widest point of
// the sweep; locally it defaults to 4.
std::size_t max_threads() {
  if (const char* s = std::getenv("EMSPLIT_TEST_THREADS")) {
    const unsigned long v = std::strtoul(s, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  return 4;
}

struct RunResult {
  IoStats ios;
  std::vector<Record> output;
};

template <typename Algo>
RunResult run_tuned(const Shape& shape, const CpuTuning& cpu, Algo&& algo) {
  testutil::EmEnv env(shape.block_bytes, shape.mem_blocks);
  env.ctx.set_io_tuning(shape.io);
  env.ctx.set_cpu_tuning(cpu);
  const auto data = make_workload(Workload::kUniform, shape.n, 20260806);
  EmVector<Record> input =
      materialize<Record>(env.ctx, std::span<const Record>(data));
  env.dev.reset_stats();
  env.ctx.budget().reset_peak();
  EmVector<Record> out = algo(env.ctx, input);
  RunResult r{env.dev.stats(), to_host(out)};
  // Per-thread scratch is budgeted (or skipped) like everything else:
  // parallelism never puts a run over M.
  EXPECT_LE(env.ctx.budget().peak(), env.ctx.budget().capacity())
      << shape.name << " threads=" << cpu.threads;
  return r;
}

// Outputs and IoStats must match the serial default-geometry run for every
// thread count, at both default and sharded sort geometry.  (Record's
// operator<=> is a total order, so even the shard geometry cannot move the
// output — the sorted permutation is unique — and the shard merge pushes
// the identical record sequence, so I/O counts match too.)
template <typename Algo>
void expect_threads_transparent(const Shape& shape, Algo&& algo) {
  const RunResult base = run_tuned(shape, CpuTuning{1, 1}, algo);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    for (std::size_t threads = 1; threads <= max_threads(); threads *= 2) {
      const RunResult r = run_tuned(shape, CpuTuning{threads, shards}, algo);
      EXPECT_EQ(r.ios.reads, base.ios.reads)
          << shape.name << " threads=" << threads << " shards=" << shards;
      EXPECT_EQ(r.ios.writes, base.ios.writes)
          << shape.name << " threads=" << threads << " shards=" << shards;
      EXPECT_EQ(r.output == base.output, true)
          << shape.name << " threads=" << threads << " shards=" << shards;
    }
  }
}

TEST(ParallelDeterminismTest, ExternalSortMatchesSerial) {
  for (const Shape& shape : kShapes) {
    expect_threads_transparent(shape,
                               [](Context& ctx, EmVector<Record>& input) {
                                 return external_sort<Record>(ctx, input);
                               });
  }
}

TEST(ParallelDeterminismTest, DistributionSortMatchesSerial) {
  for (const Shape& shape : kShapes) {
    expect_threads_transparent(shape,
                               [](Context& ctx, EmVector<Record>& input) {
                                 return distribution_sort<Record>(ctx, input);
                               });
  }
}

TEST(ParallelDeterminismTest, MultiPartitionMatchesSerial) {
  for (const Shape& shape : kShapes) {
    expect_threads_transparent(
        shape, [&](Context& ctx, EmVector<Record>& input) {
          std::vector<std::uint64_t> ranks;
          for (std::uint64_t r = 1; r < 16; ++r) {
            ranks.push_back(r * (shape.n / 16));
          }
          auto res = multi_partition<Record>(ctx, input, ranks);
          return std::move(res.data);
        });
  }
}

// Weak-order comparators (ties the comparator cannot see past) are exactly
// where a naive parallel sort would diverge.  With the shard geometry held
// fixed, the thread count still must not move a single byte.
TEST(ParallelDeterminismTest, WeakOrderComparatorStableAcrossThreads) {
  const auto key_only = [](const Record& a, const Record& b) {
    return a.key < b.key;
  };
  for (const Shape& shape : kShapes) {
    std::vector<RunResult> runs;
    for (std::size_t threads = 1; threads <= max_threads(); threads *= 2) {
      testutil::EmEnv env(shape.block_bytes, shape.mem_blocks);
      env.ctx.set_io_tuning(shape.io);
      env.ctx.set_cpu_tuning(CpuTuning{threads, 8});
      const auto data =
          make_workload(Workload::kFewDistinct, shape.n, 7, 64, 32);
      EmVector<Record> input =
          materialize<Record>(env.ctx, std::span<const Record>(data));
      env.dev.reset_stats();
      EmVector<Record> out = external_sort<Record>(env.ctx, input, key_only);
      runs.push_back({env.dev.stats(), to_host(out)});
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].ios.reads, runs[0].ios.reads) << shape.name;
      EXPECT_EQ(runs[i].ios.writes, runs[0].ios.writes) << shape.name;
      EXPECT_EQ(runs[i].output == runs[0].output, true)
          << shape.name << " run " << i;
    }
  }
}

TEST(ParallelDeterminismTest, IntermixedSelectMatchesSerial) {
  // Grouped<int> is 16 bytes — divides the block size, so the wide-batch
  // shape drives the data-parallel quintet/θ kernels through the pool.
  using G = Grouped<int>;
  const Shape shape{"wide_batches", 512, 256, 40000, IoTuning{64}};
  const std::size_t l = 8;
  std::vector<G> data(shape.n);
  std::vector<std::uint64_t> sizes(l, 0);
  for (std::size_t i = 0; i < shape.n; ++i) {
    data[i] = G{int((i * 2654435761u) % 100000u), i % l};
    ++sizes[i % l];
  }
  std::vector<std::uint64_t> ranks(l);
  for (std::size_t g = 0; g < l; ++g) ranks[g] = (sizes[g] + 1) / 2;

  std::vector<int> base;
  IoStats base_ios{};
  for (std::size_t threads = 1; threads <= max_threads(); threads *= 2) {
    testutil::EmEnv env(shape.block_bytes, shape.mem_blocks);
    env.ctx.set_io_tuning(shape.io);
    env.ctx.set_cpu_tuning(CpuTuning{threads, 1});
    EmVector<G> d = materialize<G>(env.ctx, std::span<const G>(data));
    env.dev.reset_stats();
    env.ctx.budget().reset_peak();
    const std::vector<int> got =
        intermixed_select<int>(env.ctx, std::move(d), ranks);
    EXPECT_LE(env.ctx.budget().peak(), env.ctx.budget().capacity())
        << "threads=" << threads;
    if (threads == 1) {
      base = got;
      base_ios = env.dev.stats();
    } else {
      EXPECT_EQ(got, base) << "threads=" << threads;
      EXPECT_EQ(env.dev.stats().reads, base_ios.reads)
          << "threads=" << threads;
      EXPECT_EQ(env.dev.stats().writes, base_ios.writes)
          << "threads=" << threads;
    }
  }
}

// Tight memory: per-thread scratch must degrade to the serial path (via
// MemoryBudget::try_reserve) rather than blow the budget or throw.
TEST(ParallelDeterminismTest, TightBudgetFallsBackNotOver) {
  testutil::EmEnv env(128, 8);
  env.ctx.set_cpu_tuning(CpuTuning{4, 4});
  const auto data = make_workload(Workload::kUniform, 2000, 11);
  EmVector<Record> input =
      materialize<Record>(env.ctx, std::span<const Record>(data));
  env.ctx.budget().reset_peak();
  EmVector<Record> out = external_sort<Record>(env.ctx, input);
  EXPECT_LE(env.ctx.budget().peak(), env.ctx.budget().capacity());
  EXPECT_EQ(to_host(out), testutil::sorted_copy(data));

  env.ctx.budget().reset_peak();
  EmVector<Record> out2 = distribution_sort<Record>(env.ctx, input);
  EXPECT_LE(env.ctx.budget().peak(), env.ctx.budget().capacity());
  EXPECT_EQ(to_host(out2), testutil::sorted_copy(data));
}

TEST(ParallelDeterminismTest, CpuTuningValidation) {
  testutil::EmEnv env(128, 8);
  EXPECT_THROW(env.ctx.set_cpu_tuning(CpuTuning{0, 1}),
               std::invalid_argument);
  EXPECT_THROW(env.ctx.set_cpu_tuning(CpuTuning{1, 0}),
               std::invalid_argument);
  EXPECT_EQ(env.ctx.cpu_pool(), nullptr);
  env.ctx.set_cpu_tuning(CpuTuning{3, 2});
  ASSERT_NE(env.ctx.cpu_pool(), nullptr);
  EXPECT_EQ(env.ctx.cpu_pool()->lanes(), 3u);
  env.ctx.set_cpu_tuning(CpuTuning{1, 1});
  EXPECT_EQ(env.ctx.cpu_pool(), nullptr);
}

}  // namespace
}  // namespace emsplit
