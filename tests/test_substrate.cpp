// Tests for the EM substrate: devices, allocation, budget, vectors, streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "em/context.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"
#include "util/workload.hpp"

namespace emsplit {
namespace {

constexpr std::size_t kBlockBytes = 256;  // 16 records of 16 bytes

TEST(IoStats, Arithmetic) {
  IoStats a{.reads = 5, .writes = 3};
  IoStats b{.reads = 2, .writes = 1};
  EXPECT_EQ(a.total(), 8u);
  a += b;
  EXPECT_EQ(a.reads, 7u);
  EXPECT_EQ((a - b).writes, 3u);
}

TEST(MemoryBudgetTest, ReserveReleasePeak) {
  MemoryBudget budget(100);
  EXPECT_EQ(budget.available(), 100u);
  {
    auto r1 = budget.reserve(60);
    EXPECT_EQ(budget.used(), 60u);
    auto r2 = budget.reserve(40);
    EXPECT_EQ(budget.used(), 100u);
    EXPECT_THROW((void)budget.reserve(1), BudgetExceeded);
  }
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 100u);
}

TEST(MemoryBudgetTest, ReservationMoveSemantics) {
  MemoryBudget budget(10);
  auto a = budget.reserve(4);
  MemoryReservation b = std::move(a);
  EXPECT_EQ(budget.used(), 4u);
  b.release();
  EXPECT_EQ(budget.used(), 0u);
  b.release();  // idempotent
  EXPECT_EQ(budget.used(), 0u);
}

TEST(TryReserveTest, GrantsWithinCapacityAndCountsTowardPeak) {
  MemoryBudget budget(1000);
  auto r = budget.try_reserve(600);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->bytes(), 600u);
  EXPECT_EQ(budget.used(), 600u);
  EXPECT_EQ(budget.peak(), 600u);
  r->release();
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 600u);
}

TEST(TryReserveTest, DeclinesInsteadOfThrowingWhenFull) {
  MemoryBudget budget(1000);
  auto base = budget.reserve(800);
  EXPECT_FALSE(budget.try_reserve(201).has_value());
  EXPECT_EQ(budget.used(), 800u) << "a declined reserve must not leak";
  auto fits = budget.try_reserve(200);
  EXPECT_TRUE(fits.has_value());
}

TEST(MemoryBlockDeviceTest, ReadWriteRoundTrip) {
  MemoryBlockDevice dev(kBlockBytes);
  auto range = dev.allocate(4);
  ASSERT_TRUE(range.valid());
  std::vector<std::byte> out(kBlockBytes), in(kBlockBytes);
  for (std::size_t i = 0; i < kBlockBytes; ++i) in[i] = std::byte(i % 251);
  dev.write(range.first + 2, in);
  dev.read(range.first + 2, out);
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
}

TEST(MemoryBlockDeviceTest, UnwrittenBlocksReadZero) {
  MemoryBlockDevice dev(kBlockBytes);
  auto range = dev.allocate(1);
  std::vector<std::byte> out(kBlockBytes, std::byte{0xff});
  dev.read(range.first, out);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
}

TEST(MemoryBlockDeviceTest, AllocatorReusesFreedExtents) {
  MemoryBlockDevice dev(kBlockBytes);
  auto a = dev.allocate(8);
  auto b = dev.allocate(8);
  EXPECT_EQ(dev.size_blocks(), 16u);
  dev.deallocate(a);
  auto c = dev.allocate(4);  // should come from the freed extent
  EXPECT_EQ(dev.size_blocks(), 16u);
  EXPECT_EQ(c.first, a.first);
  dev.deallocate(b);
  dev.deallocate(c);
  EXPECT_EQ(dev.allocated_blocks(), 0u);
  // After full coalescing a large extent fits without growth.
  auto d = dev.allocate(16);
  EXPECT_EQ(dev.size_blocks(), 16u);
  dev.deallocate(d);
}

TEST(MemoryBlockDeviceTest, CoalescingMergesNeighbors) {
  MemoryBlockDevice dev(kBlockBytes);
  auto a = dev.allocate(2);
  auto b = dev.allocate(2);
  auto c = dev.allocate(2);
  dev.deallocate(a);
  dev.deallocate(c);
  dev.deallocate(b);  // merges with both neighbors
  auto big = dev.allocate(6);
  EXPECT_EQ(big.first, a.first);
  EXPECT_EQ(dev.size_blocks(), 6u);
}

TEST(MemoryBlockDeviceTest, OutOfRangeAndBadSpanThrow) {
  MemoryBlockDevice dev(kBlockBytes);
  auto range = dev.allocate(1);
  std::vector<std::byte> buf(kBlockBytes);
  EXPECT_THROW(dev.read(range.first + 10, buf), std::out_of_range);
  std::vector<std::byte> oversized(kBlockBytes + 1);
  EXPECT_THROW(dev.read(range.first, oversized), std::invalid_argument);
  EXPECT_THROW(dev.write(range.first, oversized), std::invalid_argument);
  // Prefix transfers are legal and count one I/O each.
  std::vector<std::byte> prefix(8);
  dev.write(range.first, prefix);
  dev.read(range.first, prefix);
}

TEST(MemoryBlockDeviceTest, FaultInjectionFiresOnce) {
  MemoryBlockDevice dev(kBlockBytes);
  auto range = dev.allocate(1);
  std::vector<std::byte> buf(kBlockBytes);
  dev.write(range.first, buf);
  dev.arm_fault_after(1);
  dev.read(range.first, buf);  // countdown 1 -> 0
  EXPECT_THROW(dev.read(range.first, buf), DeviceFault);
  // Disarmed after firing.
  dev.read(range.first, buf);
  EXPECT_EQ(dev.stats().reads, 2u);  // the faulted read did not count
}

TEST(FileBlockDeviceTest, RoundTripAndPersistence) {
  const std::string path = testing::TempDir() + "/emsplit_dev_test.bin";
  FileBlockDevice dev(path, kBlockBytes);
  auto range = dev.allocate(3);
  std::vector<std::byte> in(kBlockBytes), out(kBlockBytes);
  for (std::size_t i = 0; i < kBlockBytes; ++i) in[i] = std::byte(255 - i % 256);
  dev.write(range.first + 1, in);
  dev.read(range.first + 1, out);
  EXPECT_EQ(in, out);
  // Reading an allocated-but-unwritten block yields zeroes (sparse).
  dev.read(range.first + 2, out);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
}

TEST(ContextTest, EnforcesModelPreconditions) {
  MemoryBlockDevice dev(kBlockBytes);
  EXPECT_THROW(Context(dev, kBlockBytes), std::invalid_argument);  // M < 2B
  Context ctx(dev, 4 * kBlockBytes);
  EXPECT_EQ(ctx.block_records<Record>(), kBlockBytes / sizeof(Record));
  EXPECT_EQ(ctx.mem_records<Record>(), 4 * kBlockBytes / sizeof(Record));
}

TEST(EmVectorTest, BlockRoundTrip) {
  MemoryBlockDevice dev(kBlockBytes);
  Context ctx(dev, 64 * kBlockBytes);
  const std::size_t b = ctx.block_records<Record>();
  EmVector<Record> vec(ctx, 3 * b);
  std::vector<Record> blk(b);
  for (std::size_t i = 0; i < b; ++i) blk[i] = Record{.key = i, .payload = 7};
  vec.write_block(1, blk);
  vec.set_size(2 * b);
  std::vector<Record> out(b);
  vec.read_block(1, out);
  EXPECT_EQ(blk, out);
}

TEST(EmVectorTest, MoveTransfersOwnership) {
  MemoryBlockDevice dev(kBlockBytes);
  Context ctx(dev, 64 * kBlockBytes);
  EmVector<Record> a(ctx, 100);
  const auto allocated = dev.allocated_blocks();
  EmVector<Record> b = std::move(a);
  EXPECT_FALSE(a.bound());  // NOLINT(bugprone-use-after-move) intentional
  EXPECT_TRUE(b.bound());
  EXPECT_EQ(dev.allocated_blocks(), allocated);
  b.reset();
  EXPECT_EQ(dev.allocated_blocks(), 0u);
}

TEST(StreamTest, WriterReaderRoundTripCountsIos) {
  MemoryBlockDevice dev(kBlockBytes);
  Context ctx(dev, 64 * kBlockBytes);
  const std::size_t b = ctx.block_records<Record>();
  const std::size_t n = 5 * b + 3;  // partial last block
  EmVector<Record> vec(ctx, n);
  {
    StreamWriter<Record> w(vec);
    for (std::size_t i = 0; i < n; ++i) w.push(Record{.key = i, .payload = i});
    w.finish();
  }
  EXPECT_EQ(vec.size(), n);
  EXPECT_EQ(dev.stats().writes, 6u);  // ceil(n / b)
  dev.reset_stats();
  StreamReader<Record> r(vec);
  std::size_t i = 0;
  while (!r.done()) {
    EXPECT_EQ(r.next().key, i);
    ++i;
  }
  EXPECT_EQ(i, n);
  EXPECT_EQ(dev.stats().reads, 6u);
}

TEST(StreamTest, SubRangeReaderAndSkip) {
  MemoryBlockDevice dev(kBlockBytes);
  Context ctx(dev, 64 * kBlockBytes);
  const std::size_t b = ctx.block_records<Record>();
  const std::size_t n = 4 * b;
  std::vector<Record> host(n);
  for (std::size_t i = 0; i < n; ++i) host[i] = Record{.key = i, .payload = 0};
  auto vec = materialize<Record>(ctx, host);
  StreamReader<Record> r(vec, b + 2, 3 * b);
  EXPECT_EQ(r.remaining(), 2 * b - 2);
  EXPECT_EQ(r.peek().key, b + 2);
  r.skip(b);  // lands in a later block without touching the one in between
  EXPECT_EQ(r.next().key, 2 * b + 2);
}

TEST(StreamTest, BudgetChargesOneBlockPerStream) {
  MemoryBlockDevice dev(kBlockBytes);
  Context ctx(dev, 4 * kBlockBytes);
  EmVector<Record> vec(ctx, 10);
  {
    StreamWriter<Record> w(vec);
    EXPECT_EQ(ctx.budget().used(), kBlockBytes);
    w.push(Record{});
    w.finish();
  }
  EXPECT_EQ(ctx.budget().used(), 0u);
  {
    StreamReader<Record> r1(vec);
    StreamReader<Record> r2(vec);
    EXPECT_EQ(ctx.budget().used(), 2 * kBlockBytes);
  }
  EXPECT_EQ(ctx.budget().used(), 0u);
}

TEST(StreamTest, LoadStoreRangeRoundTrip) {
  MemoryBlockDevice dev(kBlockBytes);
  Context ctx(dev, 64 * kBlockBytes);
  const std::size_t b = ctx.block_records<Record>();
  const std::size_t n = 4 * b;
  std::vector<Record> host(n);
  for (std::size_t i = 0; i < n; ++i) host[i] = Record{.key = i, .payload = 1};
  auto vec = materialize<Record>(ctx, host);
  std::vector<Record> mid(2 * b - 3);
  load_range<Record>(vec, b / 2, mid);
  for (std::size_t i = 0; i < mid.size(); ++i) {
    EXPECT_EQ(mid[i].key, b / 2 + i);
  }
  // Overwrite an unaligned range and verify neighbors survive.
  std::vector<Record> patch(b, Record{.key = 999'999, .payload = 2});
  store_range<Record>(vec, b / 2, patch);
  auto all = to_host(vec);
  EXPECT_EQ(all[b / 2 - 1].key, b / 2 - 1);
  EXPECT_EQ(all[b / 2].key, 999'999u);
  EXPECT_EQ(all[b / 2 + b - 1].key, 999'999u);
  EXPECT_EQ(all[b / 2 + b].key, b / 2 + b);
}

TEST(WorkloadTest, ShapesHaveExpectedStructure) {
  const std::size_t n = 1000;
  for (Workload w : all_workloads()) {
    auto v = make_workload(w, n, /*seed=*/42, /*block_records=*/16);
    ASSERT_EQ(v.size(), n) << to_string(w);
    // All payload-tagged shapes form a strict total order.
    auto sorted_v = v;
    std::sort(sorted_v.begin(), sorted_v.end());
    EXPECT_TRUE(std::adjacent_find(sorted_v.begin(), sorted_v.end()) ==
                sorted_v.end())
        << "duplicate record in " << to_string(w);
  }
  auto s = make_workload(Workload::kSorted, n, 1);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  auto r = make_workload(Workload::kReverse, n, 1);
  EXPECT_TRUE(std::is_sorted(r.rbegin(), r.rend()));
}

TEST(WorkloadTest, DeterministicInSeed) {
  auto a = make_workload(Workload::kUniform, 500, 7);
  auto b = make_workload(Workload::kUniform, 500, 7);
  auto c = make_workload(Workload::kUniform, 500, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(WorkloadTest, BlockStripedRespectsStripeOrder) {
  const std::size_t b = 16, n = 8 * b;
  auto v = make_workload(Workload::kBlockStriped, n, 3, b);
  // Every element in stripe i is smaller than every element in stripe j > i.
  for (std::size_t stripe = 0; stripe + 1 < b; ++stripe) {
    std::uint64_t max_this = 0, min_next = ~0ULL;
    for (std::size_t blk = 0; blk < n / b; ++blk) {
      max_this = std::max(max_this, v[blk * b + stripe].key);
      min_next = std::min(min_next, v[blk * b + stripe + 1].key);
    }
    EXPECT_LT(max_this, min_next) << "stripe " << stripe;
  }
}

}  // namespace
}  // namespace emsplit
