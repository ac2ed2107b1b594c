// ShardedBlockDevice: striping is geometry, never output.
//
// The facade's contract (docs/model.md, "Sharded devices and the D-disk
// model"): for any member count D, stripe width, I/O tuning and thread
// count, every algorithm produces bit-identical output and identical
// *logical* IoStats to the same run on a single device — the stripe map
// only decides which member executes each transfer.  On top of that the
// facade must keep per-shard counters that partition its totals exactly,
// pass member faults through with the logical block range attached, and
// honor the whole fault/retry/checksum substrate of PR 3.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "em/context.hpp"
#include "em/pass_engine.hpp"
#include "em/sharded_device.hpp"
#include "em/stream.hpp"
#include "partition/multi_partition.hpp"
#include "select/multi_select.hpp"
#include "sort/external_sort.hpp"
#include "test_helpers.hpp"
#include "util/record.hpp"

namespace emsplit {
namespace {

constexpr std::size_t kBlockBytes = 64;   // 4 records per block
constexpr std::size_t kMemBlocks = 256;   // M = 1024 records
constexpr std::size_t kRecords = 4096;    // N/M = 4: real multi-pass runs

std::unique_ptr<ShardedBlockDevice> make_sharded(std::size_t d,
                                                 std::size_t stripe_blocks) {
  std::vector<std::unique_ptr<BlockDevice>> members;
  members.reserve(d);
  for (std::size_t i = 0; i < d; ++i) {
    members.push_back(std::make_unique<MemoryBlockDevice>(kBlockBytes));
  }
  return std::make_unique<ShardedBlockDevice>(std::move(members),
                                              stripe_blocks);
}

std::vector<Record> workload(std::uint64_t seed) {
  return make_workload(Workload::kUniform, kRecords, seed);
}

// ---------------------------------------------------------------------------
// Placement: the stripe map is RAID-0 — stripe s lives on member s mod D at
// member-local stripe s / D.
// ---------------------------------------------------------------------------

TEST(ShardedDeviceTest, StripePlacementIsRoundRobin) {
  constexpr std::size_t kD = 3;
  constexpr std::size_t kStripe = 2;
  auto dev = make_sharded(kD, kStripe);
  constexpr std::uint64_t kBlocks = 13;  // not a multiple of D * stripe
  const auto range = dev->allocate(kBlocks);
  ASSERT_EQ(range.first, 0u);

  std::vector<std::byte> buf(kBlockBytes);
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    std::memset(buf.data(), static_cast<int>(b + 1), buf.size());
    dev->write(b, buf);
  }

  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    const std::uint64_t stripe = b / kStripe;
    const std::size_t member = stripe % kD;
    const std::uint64_t member_block =
        (stripe / kD) * kStripe + b % kStripe;
    ASSERT_LT(member_block, dev->member(member).size_blocks());
    dev->member(member).read(member_block, buf);
    EXPECT_EQ(std::to_integer<int>(buf[0]), static_cast<int>(b + 1))
        << "logical block " << b;
    EXPECT_EQ(std::to_integer<int>(buf[kBlockBytes - 1]),
              static_cast<int>(b + 1));
  }

  // Growth is balanced: member i holds ceil((stripes - i) / D) stripes.
  const std::uint64_t stripes = (kBlocks + kStripe - 1) / kStripe;
  for (std::size_t i = 0; i < kD; ++i) {
    const std::uint64_t my_stripes = (stripes + kD - 1 - i) / kD;
    EXPECT_EQ(dev->member(i).size_blocks(), my_stripes * kStripe)
        << "member " << i;
  }
}

// ---------------------------------------------------------------------------
// The determinism matrix: D x tuning, for sort / multi-partition /
// multi-select, against a single MemoryBlockDevice at the same tuning.
// ---------------------------------------------------------------------------

struct AlgoResult {
  IoStats ios;                 // logical, retry-free
  std::uint64_t checksum = 0;  // FNV-1a over the output bytes
};

std::uint64_t fnv_records(const std::vector<Record>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Record& r : v) {
    h = (h ^ r.key) * 1099511628211ull;
    h = (h ^ r.payload) * 1099511628211ull;
  }
  return h;
}

enum class Algo { kSort, kPartition, kSelect };

AlgoResult run_algo(BlockDevice& dev, const IoTuning& tuning, Algo algo) {
  Context ctx(dev, kMemBlocks * kBlockBytes);
  ctx.set_io_tuning(tuning);
  const auto host = workload(7);
  auto data = materialize<Record>(ctx, std::span<const Record>(host));
  dev.reset_stats();
  ctx.budget().reset_peak();
  AlgoResult res;
  switch (algo) {
    case Algo::kSort: {
      auto sorted = external_sort<Record>(ctx, data);
      res.checksum = fnv_records(to_host(sorted));
      break;
    }
    case Algo::kPartition: {
      std::vector<std::uint64_t> ranks;
      for (std::uint64_t r = 1; r < 16; ++r) ranks.push_back(r * kRecords / 16);
      auto part = multi_partition<Record>(ctx, data, ranks);
      res.checksum = fnv_records(to_host(part.data));
      break;
    }
    case Algo::kSelect: {
      std::vector<std::uint64_t> ranks;
      for (std::uint64_t r = 13; r < kRecords; r += 17) ranks.push_back(r);
      auto answers = multi_select<Record>(ctx, data, ranks);
      res.checksum = fnv_records(answers);
      break;
    }
  }
  EXPECT_LE(ctx.budget().peak(), ctx.budget().capacity());
  res.ios = dev.stats().base();
  return res;
}

TEST(ShardedDeterminismTest, MatrixMatchesSingleDevice) {
  struct Tuning {
    const char* name;
    IoTuning io;
  };
  const Tuning tunings[] = {
      {"sync", IoTuning{1, 0, false}},
      {"batched", IoTuning{8, 0, false}},
  };
  const Algo algos[] = {Algo::kSort, Algo::kPartition, Algo::kSelect};

  for (const Algo algo : algos) {
    for (const Tuning& t : tunings) {
      MemoryBlockDevice base(kBlockBytes);
      const AlgoResult want = run_algo(base, t.io, algo);
      for (const std::size_t d : {1u, 2u, 3u, 4u}) {
        auto dev = make_sharded(d, /*stripe_blocks=*/4);
        const AlgoResult got = run_algo(*dev, t.io, algo);
        EXPECT_EQ(got.checksum, want.checksum)
            << "algo " << static_cast<int>(algo) << " tuning " << t.name
            << " D " << d;
        EXPECT_EQ(got.ios, want.ios)
            << "algo " << static_cast<int>(algo) << " tuning " << t.name
            << " D " << d;

        // Per-shard counters partition the facade totals exactly.
        const auto shards = dev->shard_stats();
        ASSERT_EQ(shards.size(), d);
        IoStats sum;
        for (const IoStats& s : shards) sum += s;
        const IoStats total = dev->stats();
        EXPECT_EQ(sum.reads, total.reads);
        EXPECT_EQ(sum.writes, total.writes);
        EXPECT_EQ(sum.retries, total.retries);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Observability: every PassTrace row on a sharded run carries per-shard
// deltas that partition the row's totals, and a balance ratio >= 1.
// ---------------------------------------------------------------------------

TEST(ShardedDeterminismTest, PassTraceRowsPartitionTotals) {
  auto dev = make_sharded(3, 4);
  Context ctx(*dev, kMemBlocks * kBlockBytes);
  PassTraceLog trace;
  ctx.set_pass_trace(&trace);
  const auto host = workload(11);
  auto data = materialize<Record>(ctx, std::span<const Record>(host));
  auto sorted = external_sort<Record>(ctx, data);
  ASSERT_EQ(sorted.size(), kRecords);

  ASSERT_FALSE(trace.rows().empty());
  for (const PassTrace& row : trace.rows()) {
    ASSERT_EQ(row.shard_io.size(), 3u) << row.pass;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t max_total = 0;
    for (const IoStats& s : row.shard_io) {
      reads += s.reads;
      writes += s.writes;
      max_total = std::max(max_total, s.total());
    }
    EXPECT_EQ(reads, row.io.reads) << row.pass;
    EXPECT_EQ(writes, row.io.writes) << row.pass;
    EXPECT_GE(row.balance, 1.0) << row.pass;
    if (row.io.total() > 0) {
      // balance = max * D / sum, so max I/Os reconstructs from the row.
      EXPECT_NEAR(row.balance,
                  static_cast<double>(max_total) * 3.0 /
                      static_cast<double>(row.io.total()),
                  1e-9)
          << row.pass;
    }
    // The JSON-lines form of the row is exactly what --trace=FILE writes.
    const std::string json = pass_trace_json(row);
    EXPECT_NE(json.find("\"shards\":[{"), std::string::npos);
    EXPECT_NE(json.find("\"balance\":"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Fault pass-through.
// ---------------------------------------------------------------------------

// A transient fault armed on one member is absorbed by the facade-forwarded
// retry policy; the retry is charged to the faulting shard alone and the
// run's base counts are unchanged.
TEST(ShardedFaultTest, MemberTransientFaultRetriesOnThatShard) {
  auto sort_on = [](ShardedBlockDevice& dev, bool arm) {
    Context ctx(dev, kMemBlocks * kBlockBytes);
    const auto host = workload(7);
    auto data = materialize<Record>(ctx, std::span<const Record>(host));
    dev.reset_stats();
    if (arm) {
      // Armed after materialize so the fault fires inside the sort passes
      // being accounted, not during data loading.
      dev.set_fault_policy(FaultPolicy{.max_retries = 3});
      dev.member(1).arm_fault(
          FaultSchedule::fail_then_succeed(/*remaining=*/50, /*times=*/2));
    }
    auto sorted = external_sort<Record>(ctx, data);
    return fnv_records(to_host(sorted));
  };

  auto ref_dev = make_sharded(3, 4);
  const std::uint64_t want = sort_on(*ref_dev, false);
  const IoStats want_ios = ref_dev->stats().base();

  auto dev = make_sharded(3, 4);
  const std::uint64_t got = sort_on(*dev, true);
  EXPECT_EQ(got, want);
  // base() strips retries: the re-issued blocks never double-count.
  EXPECT_EQ(dev->stats().base(), want_ios);

  const auto shards = dev->shard_stats();
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].retries, 0u);
  EXPECT_EQ(shards[1].retries, 2u);
  EXPECT_EQ(shards[2].retries, 0u);
  EXPECT_EQ(dev->stats().retries, 2u);
}

// A transient fault armed on the *facade itself* (a logical fault with no
// member of its own) is retried by the facade's policy and *attributed*:
// locate() charges each retry to the shard owning the first block of the
// faulted request, so the per-shard rows keep partitioning the facade
// totals exactly — retries included.
TEST(ShardedFaultTest, FacadeArmedFaultAttributesRetryToOwningShard) {
  auto sort_on = [](ShardedBlockDevice& dev, bool arm) {
    Context ctx(dev, kMemBlocks * kBlockBytes);
    const auto host = workload(9);
    auto data = materialize<Record>(ctx, std::span<const Record>(host));
    dev.reset_stats();
    if (arm) {
      dev.set_fault_policy(FaultPolicy{.max_retries = 3});
      dev.arm_fault(
          FaultSchedule::fail_then_succeed(/*remaining=*/40, /*times=*/2));
    }
    auto sorted = external_sort<Record>(ctx, data);
    dev.disarm_fault();
    return fnv_records(to_host(sorted));
  };

  auto ref_dev = make_sharded(3, 4);
  const std::uint64_t want = sort_on(*ref_dev, false);
  const IoStats want_ios = ref_dev->stats().base();

  auto dev = make_sharded(3, 4);
  const std::uint64_t got = sort_on(*dev, true);
  EXPECT_EQ(got, want);
  // base() strips retries: the re-issued blocks never double-count.
  EXPECT_EQ(dev->stats().base(), want_ios);

  EXPECT_EQ(dev->stats().retries, 2u);
  const auto shards = dev->shard_stats();
  ASSERT_EQ(shards.size(), 3u);
  IoStats sum;
  for (const IoStats& s : shards) sum += s;
  EXPECT_EQ(sum.reads, dev->stats().reads);
  EXPECT_EQ(sum.writes, dev->stats().writes);
  EXPECT_EQ(sum.retries, dev->stats().retries);
  // Both retries hit the same logical request, so exactly one shard's row
  // carries the attributed pair.
  std::size_t carrying = 0;
  for (const IoStats& s : shards) carrying += s.retries != 0 ? 1 : 0;
  EXPECT_EQ(carrying, 1u);
}

// A permanent member fault escapes the facade as a DeviceFault that names
// the shard and carries the *logical* request range.
TEST(ShardedFaultTest, MemberPermanentFaultSurfacesLogicalRange) {
  auto dev = make_sharded(2, 2);
  const auto range = dev->allocate(8);
  std::vector<std::byte> buf(kBlockBytes);
  for (std::uint64_t b = 0; b < 8; ++b) dev->write(range.first + b, buf);

  dev->member(1).arm_fault(FaultSchedule::one_shot_after(0));
  std::vector<std::byte> out(4 * kBlockBytes);
  try {
    // Blocks [0, 4): stripes 0 (member 0) and 1 (member 1) — the member-1
    // sub-request faults on its first transfer.
    dev->read_blocks(0, 4, out);
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& f) {
    EXPECT_FALSE(f.transient());
    EXPECT_NE(std::string(f.what()).find("shard 1"), std::string::npos)
        << f.what();
    EXPECT_STREQ(f.op(), "read_blocks");
    EXPECT_EQ(f.first_block(), 0u);
    EXPECT_EQ(f.block_count(), 4u);
    EXPECT_LE(f.completed(), 4u);
  }

  // The injector disarmed after firing: the same logical request now
  // succeeds — the facade state survived the member fault.
  EXPECT_NO_THROW(dev->read_blocks(0, 4, out));
}

// Facade-level checksums catch a bit flipped on a member: corrupt_bit routes
// through the stripe map, the next facade read throws CorruptBlock with the
// logical block id.
TEST(ShardedFaultTest, CorruptBitSurfacesThroughFacadeChecksums) {
  auto dev = make_sharded(3, 2);
  dev->set_checksums(true);
  const auto range = dev->allocate(6);
  std::vector<std::byte> buf(kBlockBytes, std::byte{0x5A});
  for (std::uint64_t b = 0; b < 6; ++b) dev->write(range.first + b, buf);

  const BlockId victim = 4;  // stripe 2 -> member 2, local block 0
  dev->corrupt_bit(victim, 17);
  std::vector<std::byte> out(kBlockBytes);
  EXPECT_NO_THROW(dev->read(victim - 1, out));
  try {
    dev->read(victim, out);
    FAIL() << "expected CorruptBlock";
  } catch (const CorruptBlock& c) {
    EXPECT_EQ(c.first_block(), victim);
  }
}

// The retirement invariant behind stats(): facade construction rejects
// member lists that could double-count (different block sizes, pre-used
// devices) so the per-shard partition stays exact by construction.
TEST(ShardedDeviceTest, ConstructorRejectsUnusableMembers) {
  {
    std::vector<std::unique_ptr<BlockDevice>> members;
    EXPECT_THROW(ShardedBlockDevice(std::move(members), 4),
                 std::invalid_argument);
  }
  {
    std::vector<std::unique_ptr<BlockDevice>> members;
    members.push_back(std::make_unique<MemoryBlockDevice>(64));
    members.push_back(std::make_unique<MemoryBlockDevice>(128));
    EXPECT_THROW(ShardedBlockDevice(std::move(members), 4),
                 std::invalid_argument);
  }
  {
    std::vector<std::unique_ptr<BlockDevice>> members;
    members.push_back(std::make_unique<MemoryBlockDevice>(64));
    members.push_back(std::make_unique<MemoryBlockDevice>(64));
    (void)members.front()->allocate(1);
    EXPECT_THROW(ShardedBlockDevice(std::move(members), 4),
                 std::invalid_argument);
  }
  {
    std::vector<std::unique_ptr<BlockDevice>> members;
    members.push_back(std::make_unique<MemoryBlockDevice>(64));
    EXPECT_THROW(ShardedBlockDevice(std::move(members), 0),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Persistent member sidecars: the facade's checksum table (logical ids)
// partitions by owning member into ".ssums" files on destruction and merges
// back on set_member_sidecars(), so end-to-end verification survives a
// process restart — including corruption that happened while the process
// was down.
// ---------------------------------------------------------------------------

TEST(ShardedSidecarTest, ChecksumsPersistAcrossSessions) {
  constexpr std::size_t kD = 3;
  constexpr std::size_t kStripe = 2;
  constexpr std::uint64_t kBlocks = 12;  // 6 stripes, 4 blocks per member
  std::vector<std::string> paths;
  std::vector<std::string> sidecars;
  for (std::size_t i = 0; i < kD; ++i) {
    paths.push_back(testing::TempDir() + "/ssums_member_" +
                    std::to_string(i) + ".bin");
    sidecars.push_back(paths.back() + ".ssums");
    std::remove(paths.back().c_str());
    std::remove(sidecars.back().c_str());
    std::remove((paths.back() + ".sums").c_str());
  }

  const auto open_session = [&](bool preserve_contents) {
    std::vector<std::unique_ptr<BlockDevice>> members;
    for (std::size_t i = 0; i < kD; ++i) {
      members.push_back(std::make_unique<FileBlockDevice>(
          paths[i], kBlockBytes, /*keep_file=*/true, preserve_contents));
    }
    auto dev =
        std::make_unique<ShardedBlockDevice>(std::move(members), kStripe);
    dev->set_member_sidecars(sidecars, /*preserve=*/true);
    dev->set_checksums(true);
    return dev;
  };

  // Session 1: write a patterned extent, then tear down — the facade
  // destructor persists each member's share of the checksum table.
  {
    auto dev = open_session(/*preserve_contents=*/false);
    const auto range = dev->allocate(kBlocks);
    ASSERT_EQ(range.first, 0u);
    std::vector<std::byte> buf(kBlockBytes);
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      std::memset(buf.data(), static_cast<int>(b + 1), buf.size());
      dev->write(b, buf);
    }
  }
  for (const std::string& s : sidecars) {
    std::FILE* f = std::fopen(s.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "missing sidecar " << s;
    std::fclose(f);
  }

  // Session 2: reopen, reload sidecars, re-derive the (deterministic)
  // stripe map — every verified read still passes.
  {
    auto dev = open_session(/*preserve_contents=*/true);
    const auto range = dev->allocate(kBlocks);
    ASSERT_EQ(range.first, 0u);
    std::vector<std::byte> buf(kBlockBytes);
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      ASSERT_NO_THROW(dev->read(b, buf)) << "block " << b;
      EXPECT_EQ(buf.front(), std::byte{static_cast<unsigned char>(b + 1)});
    }
  }

  // Corrupt logical block 4 (stripe 2 -> member 2, local block 0) directly
  // in the member file while no process holds it open.
  {
    std::FILE* f = std::fopen(paths[2].c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }

  // Session 3: the persisted sums catch offline corruption on first touch.
  {
    auto dev = open_session(/*preserve_contents=*/true);
    (void)dev->allocate(kBlocks);
    std::vector<std::byte> buf(kBlockBytes);
    EXPECT_NO_THROW(dev->read(3, buf));
    try {
      dev->read(4, buf);
      FAIL() << "expected CorruptBlock from persisted sidecar sums";
    } catch (const CorruptBlock& c) {
      EXPECT_EQ(c.first_block(), 4u);
    }
  }

  for (std::size_t i = 0; i < kD; ++i) {
    std::remove(paths[i].c_str());
    std::remove(sidecars[i].c_str());
    std::remove((paths[i] + ".sums").c_str());
  }
}

// The CLI teardown order on an interrupted run: the checkpoint journal's
// destructor returns its still-owned extents to the device (dropping their
// checksum entries) *before* the device destructs.  An explicit
// flush_member_sidecars() snapshots the table first; the later deallocation
// and destructor must not erase the persisted record.
TEST(ShardedSidecarTest, FlushSurvivesLaterDeallocation) {
  constexpr std::size_t kD = 2;
  constexpr std::size_t kStripe = 2;
  constexpr std::uint64_t kBlocks = 8;
  std::vector<std::string> paths;
  std::vector<std::string> sidecars;
  for (std::size_t i = 0; i < kD; ++i) {
    paths.push_back(testing::TempDir() + "/flushsums_member_" +
                    std::to_string(i) + ".bin");
    sidecars.push_back(paths.back() + ".ssums");
    std::remove(paths.back().c_str());
    std::remove(sidecars.back().c_str());
    std::remove((paths.back() + ".sums").c_str());
  }

  const auto open_session = [&](bool preserve_contents) {
    std::vector<std::unique_ptr<BlockDevice>> members;
    for (std::size_t i = 0; i < kD; ++i) {
      members.push_back(std::make_unique<FileBlockDevice>(
          paths[i], kBlockBytes, /*keep_file=*/true, preserve_contents));
    }
    auto dev =
        std::make_unique<ShardedBlockDevice>(std::move(members), kStripe);
    dev->set_member_sidecars(sidecars, /*preserve=*/true);
    dev->set_checksums(true);
    return dev;
  };

  // Session 1: write, snapshot, then deallocate (the journal-dtor stand-in).
  {
    auto dev = open_session(/*preserve_contents=*/false);
    const auto range = dev->allocate(kBlocks);
    std::vector<std::byte> buf(kBlockBytes);
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      std::memset(buf.data(), static_cast<int>(b + 7), buf.size());
      dev->write(b, buf);
    }
    dev->flush_member_sidecars();
    dev->deallocate(range);  // drops every entry from the live table
  }
  for (const std::string& s : sidecars) {
    std::FILE* f = std::fopen(s.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "sidecar erased after flush: " << s;
    std::fclose(f);
  }

  // Session 2: the snapshot is live — reads verify, corruption is caught.
  {
    std::FILE* f = std::fopen(paths[1].c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
    std::fputc(c ^ 0x20, f);
    std::fclose(f);

    auto dev = open_session(/*preserve_contents=*/true);
    (void)dev->allocate(kBlocks);
    std::vector<std::byte> buf(kBlockBytes);
    EXPECT_NO_THROW(dev->read(0, buf));
    EXPECT_EQ(buf.front(), std::byte{7});
    // Logical block 2 = stripe 1 -> member 1, local block 0 (the flipped
    // byte).
    EXPECT_THROW(dev->read(2, buf), CorruptBlock);
  }

  for (std::size_t i = 0; i < kD; ++i) {
    std::remove(paths[i].c_str());
    std::remove(sidecars[i].c_str());
    std::remove((paths[i] + ".sums").c_str());
  }
}

}  // namespace
}  // namespace emsplit
