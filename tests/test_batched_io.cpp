// Tests for batched multi-block transfers (read_blocks / write_blocks) and
// the batched stream / bulk-helper paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "em/block_device.hpp"
#include "em/context.hpp"
#include "em/stream.hpp"
#include "test_helpers.hpp"

namespace emsplit {
namespace {

constexpr std::size_t kBlockBytes = 128;

std::vector<std::byte> pattern_block(std::size_t bytes, unsigned seed) {
  std::vector<std::byte> blk(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    blk[i] = std::byte((seed * 131 + i * 7) % 256);
  }
  return blk;
}

/// Fill `count` blocks starting at `first` with a recognizable per-block
/// pattern, one write per block (the reference path).
void fill_blocks(BlockDevice& dev, BlockId first, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    dev.write(first + i, pattern_block(dev.block_bytes(), unsigned(i)));
  }
}

TEST(BatchedIoTest, ReadBlocksMatchesPerBlockLoop) {
  MemoryBlockDevice dev(kBlockBytes);
  const auto range = dev.allocate(6);
  fill_blocks(dev, range.first, 6);
  dev.reset_stats();

  std::vector<std::byte> batched(6 * kBlockBytes);
  dev.read_blocks(range.first, 6, batched);
  EXPECT_EQ(dev.stats().reads, 6u);  // one call, six counted I/Os

  std::vector<std::byte> looped(6 * kBlockBytes);
  for (std::uint64_t i = 0; i < 6; ++i) {
    dev.read(range.first + i,
             std::span<std::byte>(looped).subspan(i * kBlockBytes, kBlockBytes));
  }
  EXPECT_EQ(batched, looped);
  EXPECT_EQ(dev.stats().reads, 12u);
}

TEST(BatchedIoTest, WriteBlocksMatchesPerBlockLoop) {
  MemoryBlockDevice dev(kBlockBytes);
  const auto range = dev.allocate(8);
  std::vector<std::byte> data(4 * kBlockBytes);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::byte(i % 251);

  dev.reset_stats();
  dev.write_blocks(range.first, 4, data);  // batched into blocks 0..3
  EXPECT_EQ(dev.stats().writes, 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {  // reference loop into blocks 4..7
    dev.write(range.first + 4 + i, std::span<const std::byte>(data).subspan(
                                       i * kBlockBytes, kBlockBytes));
  }

  std::vector<std::byte> a(kBlockBytes), b(kBlockBytes);
  for (std::uint64_t i = 0; i < 4; ++i) {
    dev.read(range.first + i, a);
    dev.read(range.first + 4 + i, b);
    EXPECT_EQ(a, b) << "block " << i;
  }
}

TEST(BatchedIoTest, PartialLastBlockSpanIsAllowed) {
  MemoryBlockDevice dev(kBlockBytes);
  const auto range = dev.allocate(3);
  fill_blocks(dev, range.first, 3);
  dev.reset_stats();

  // Two full blocks plus half of the third: legal, still counts 3 I/Os.
  std::vector<std::byte> out(2 * kBlockBytes + kBlockBytes / 2);
  dev.read_blocks(range.first, 3, out);
  EXPECT_EQ(dev.stats().reads, 3u);
  const auto b2 = pattern_block(kBlockBytes, 2);
  EXPECT_TRUE(std::equal(out.begin() + 2 * kBlockBytes, out.end(), b2.begin()));
}

TEST(BatchedIoTest, RejectsBadSpansAndRanges) {
  MemoryBlockDevice dev(kBlockBytes);
  const auto range = dev.allocate(4);
  std::vector<std::byte> buf(4 * kBlockBytes);

  // Span longer than the extent.
  EXPECT_THROW(dev.read_blocks(range.first, 3, buf), std::invalid_argument);
  // Span too short: does not reach into the last block.
  EXPECT_THROW(
      dev.read_blocks(range.first, 3,
                      std::span<std::byte>(buf).first(2 * kBlockBytes)),
      std::invalid_argument);
  // Extent runs past the end of the device.
  EXPECT_THROW(dev.read_blocks(range.first + 2, 4, buf), std::out_of_range);
  // Zero-count transfer must carry an empty span.
  EXPECT_THROW(
      dev.write_blocks(range.first, 0, std::span<const std::byte>(buf)),
      std::invalid_argument);
  dev.write_blocks(range.first, 0, std::span<const std::byte>{});  // no-op
  EXPECT_EQ(dev.stats().writes, 0u);
}

TEST(BatchedIoTest, FaultFiresAtEveryIndexInsideBatch) {
  constexpr std::uint64_t kCount = 6;
  for (std::uint64_t after = 0; after <= kCount; ++after) {
    MemoryBlockDevice dev(kBlockBytes);
    const auto range = dev.allocate(kCount);
    fill_blocks(dev, range.first, kCount);
    dev.reset_stats();
    dev.arm_fault_after(after);

    std::vector<std::byte> out(kCount * kBlockBytes, std::byte{0xAA});
    if (after < kCount) {
      EXPECT_THROW(dev.read_blocks(range.first, kCount, out), DeviceFault);
      // Exactly `after` blocks were transferred and counted...
      EXPECT_EQ(dev.stats().reads, after);
      for (std::uint64_t i = 0; i < after; ++i) {
        const auto expect = pattern_block(kBlockBytes, unsigned(i));
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                               out.begin() + long(i * kBlockBytes)))
            << "after=" << after << " block " << i;
      }
      // ...and the rest of the span was left untouched.
      EXPECT_TRUE(std::all_of(out.begin() + long(after * kBlockBytes),
                              out.end(),
                              [](std::byte x) { return x == std::byte{0xAA}; }));
      // The fault disarmed itself: the retry goes through and counts fully.
      dev.read_blocks(range.first, kCount, out);
      EXPECT_EQ(dev.stats().reads, after + kCount);
    } else {
      dev.read_blocks(range.first, kCount, out);  // countdown survives intact
      EXPECT_EQ(dev.stats().reads, kCount);
      EXPECT_THROW(
          dev.read(range.first, std::span<std::byte>(out).first(kBlockBytes)),
          DeviceFault);
    }
  }
}

TEST(BatchedIoTest, FaultMidBatchOnWriteCountsPartialTransfer) {
  MemoryBlockDevice dev(kBlockBytes);
  const auto range = dev.allocate(4);
  fill_blocks(dev, range.first, 4);  // old contents
  std::vector<std::byte> data(4 * kBlockBytes, std::byte{0x5C});
  dev.reset_stats();
  dev.arm_fault_after(2);
  EXPECT_THROW(dev.write_blocks(range.first, 4, data), DeviceFault);
  EXPECT_EQ(dev.stats().writes, 2u);
  std::vector<std::byte> blk(kBlockBytes);
  dev.read(range.first + 1, blk);  // second block was written...
  EXPECT_TRUE(std::all_of(blk.begin(), blk.end(),
                          [](std::byte x) { return x == std::byte{0x5C}; }));
  dev.read(range.first + 2, blk);  // ...third still holds the old pattern
  EXPECT_EQ(blk, pattern_block(kBlockBytes, 2));
}

TEST(BatchedIoTest, FileDeviceBatchRoundTripAndSparseReads) {
  const std::string path = testing::TempDir() + "/emsplit_batch_test.bin";
  FileBlockDevice dev(path, kBlockBytes);
  const auto range = dev.allocate(8);
  std::vector<std::byte> data(3 * kBlockBytes);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::byte(i % 253);

  dev.reset_stats();
  dev.write_blocks(range.first + 2, 3, data);
  std::vector<std::byte> out(3 * kBlockBytes, std::byte{1});
  dev.read_blocks(range.first + 2, 3, out);
  EXPECT_EQ(out, data);
  // A batch over never-written blocks reads zeroes (sparse tail of the file).
  std::vector<std::byte> sparse(3 * kBlockBytes, std::byte{1});
  dev.read_blocks(range.first + 5, 3, sparse);
  EXPECT_TRUE(std::all_of(sparse.begin(), sparse.end(),
                          [](std::byte x) { return x == std::byte{0}; }));
  EXPECT_EQ(dev.stats().reads, 6u);
  EXPECT_EQ(dev.stats().writes, 3u);
}

TEST(BatchedStreamTest, BatchedRoundTripMatchesDefaultTuning) {
  const std::size_t n = 1000;  // not a multiple of any batch geometry
  std::vector<int> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = int(i * 2654435761u % 9973);

  auto run = [&](const IoTuning& t) {
    testutil::EmEnv env(kBlockBytes, 32);
    env.ctx.set_io_tuning(t);
    EmVector<int> vec = materialize<int>(env.ctx, std::span<const int>(data));
    const IoStats after_write = env.dev.stats();
    auto out = to_host(vec);
    return std::tuple(after_write, env.dev.stats(), out);
  };

  const auto [w0, rw0, out0] = run({1, 0, false});
  EXPECT_EQ(out0, data);
  for (const IoTuning t : {IoTuning{4, 0, false}, IoTuning{8, 0, false},
                           IoTuning{9, 0, false}}) {
    const auto [w, rw, out] = run(t);
    EXPECT_EQ(out, data);
    EXPECT_EQ(w.writes, w0.writes) << "batch=" << t.batch_blocks;
    EXPECT_EQ(rw.reads, rw0.reads) << "batch=" << t.batch_blocks;
  }
}

TEST(BatchedStreamTest, BulkHelpersKeepCountsAcrossTunings) {
  const std::size_t n = 700;
  std::vector<int> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = int(i);

  auto run = [&](const IoTuning& t, std::size_t first, std::size_t len) {
    testutil::EmEnv env(kBlockBytes, 64);
    env.ctx.set_io_tuning(t);
    EmVector<int> vec = materialize<int>(env.ctx, std::span<const int>(data));
    env.dev.reset_stats();
    std::vector<int> chunk(len);
    load_range<int>(vec, first, std::span<int>(chunk));
    for (auto& v : chunk) v += 1;
    store_range<int>(vec, first, std::span<const int>(chunk));
    return std::tuple(env.dev.stats(), to_host(vec));
  };

  // Aligned bulk extent and an unaligned range crossing block edges.
  for (const auto& [first, len] :
       {std::pair<std::size_t, std::size_t>{0, 640},
        std::pair<std::size_t, std::size_t>{33, 241}}) {
    const auto [s0, v0] = run({1, 0, false}, first, len);
    const auto [s1, v1] = run({8, 0, false}, first, len);
    EXPECT_EQ(v1, v0) << "first=" << first;
    EXPECT_EQ(s1.reads, s0.reads) << "first=" << first;
    EXPECT_EQ(s1.writes, s0.writes) << "first=" << first;
  }
}

struct Padded {
  int key;
  char tag[8];
  friend bool operator==(const Padded&, const Padded&) = default;
};

TEST(BatchedStreamTest, PaddedLayoutFallsBackToSingleBlockBatches) {
  static_assert(kBlockBytes % sizeof(Padded) != 0);
  std::vector<Padded> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = Padded{int(i), {char('a' + i % 26)}};
  }
  testutil::EmEnv env(kBlockBytes, 32);
  env.ctx.set_io_tuning({8, 0, false});
  EmVector<Padded> vec =
      materialize<Padded>(env.ctx, std::span<const Padded>(data));
  EXPECT_EQ(to_host(vec), data);
}

TEST(BatchedStreamTest, WriterSurfacesDeviceFaults) {
  testutil::EmEnv env(kBlockBytes, 32);
  env.ctx.set_io_tuning({4, 0, false});
  const std::size_t b = env.ctx.block_records<int>();
  EmVector<int> vec(env.ctx, 40 * b);
  env.dev.arm_fault_after(3);
  EXPECT_THROW(
      {
        StreamWriter<int> w(vec);
        for (std::size_t i = 0; i < 40 * b; ++i) w.push(int(i));
        w.finish();
      },
      DeviceFault);
  env.dev.disarm_fault();
}

TEST(BatchedStreamTest, ReaderSkipsPastTheBufferedBatch) {
  testutil::EmEnv env(kBlockBytes, 32);
  env.ctx.set_io_tuning({4, 0, false});
  const std::size_t b = env.ctx.block_records<int>();
  std::vector<int> data(50 * b);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = int(i);
  EmVector<int> vec = materialize<int>(env.ctx, std::span<const int>(data));
  env.dev.reset_stats();

  StreamReader<int> r(vec);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(r.next(), i);
  r.skip(30 * b);  // jump far past the resident batch
  EXPECT_EQ(r.next(), int(30 * b + 5));
  while (!r.done()) (void)r.next();
  // One batch before the skip, then blocks 30..49: the skipped blocks are
  // never read.
  EXPECT_EQ(env.dev.stats().reads, 4u + 20u);
}

TEST(TuningTest, RejectsInvalidTunings) {
  testutil::EmEnv env(kBlockBytes, 8);
  EXPECT_THROW(env.ctx.set_io_tuning({0, 0, false}), std::invalid_argument);
  // A reader/writer pair at this tuning would need 2*5 = 10 > 8 blocks.
  EXPECT_THROW(env.ctx.set_io_tuning({5, 0, false}), std::invalid_argument);
  env.ctx.set_io_tuning({4, 0, false});
  EXPECT_EQ(env.ctx.batch_blocks(), 4u);
}

TEST(TuningTest, RejectsRetiredFields) {
  testutil::EmEnv env(kBlockBytes, 64);
  EXPECT_THROW(env.ctx.set_io_tuning({2, 1, false}), std::invalid_argument);
  EXPECT_THROW(env.ctx.set_io_tuning({2, 0, true}), std::invalid_argument);
  EXPECT_THROW(env.ctx.set_io_tuning({2, 1, true}), std::invalid_argument);
  // A rejected tuning leaves the previous one in force.
  EXPECT_EQ(env.ctx.batch_blocks(), 1u);
  env.ctx.set_io_tuning({2, 0, false});
  EXPECT_EQ(env.ctx.batch_blocks(), 2u);
}

}  // namespace
}  // namespace emsplit
