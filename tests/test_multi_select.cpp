// Tests for multi-selection (paper §4.2, Theorem 4) and single-rank
// selection built on the base case.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "em/stream.hpp"
#include "select/linear_splitters.hpp"
#include "select/multi_select.hpp"
#include "sort/external_sort.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/workload.hpp"

namespace emsplit {
namespace {

using testutil::EmEnv;

TEST(SelectRankTest, MedianMinMaxOnUniform) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 9999, 13);
  auto input = materialize<Record>(env.ctx, host);
  auto sorted_ref = testutil::sorted_copy(host);
  EXPECT_EQ(select_rank<Record>(env.ctx, input, 1), sorted_ref.front());
  EXPECT_EQ(select_rank<Record>(env.ctx, input, 9999), sorted_ref.back());
  EXPECT_EQ(select_rank<Record>(env.ctx, input, 5000), sorted_ref[4999]);
}

TEST(SelectRankTest, LinearIosForSingleRank) {
  EmEnv env(256, 16);
  auto host = make_workload(Workload::kUniform, 50000, 13);
  auto input = materialize<Record>(env.ctx, host);
  env.dev.reset_stats();
  (void)select_rank<Record>(env.ctx, input, 25000);
  const double b = static_cast<double>(env.ctx.block_records<Record>());
  const double n = 50000.0;
  EXPECT_LE(static_cast<double>(env.dev.stats().total()), 40.0 * n / b + 64.0);
}

TEST(SelectRankTest, SubRangeSelection) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 10000, 17);
  auto input = materialize<Record>(env.ctx, host);
  std::vector<Record> mid(host.begin() + 3000, host.begin() + 8000);
  std::sort(mid.begin(), mid.end());
  EXPECT_EQ(select_rank<Record>(env.ctx, input, 3000, 8000, 42), mid[41]);
}

struct MsCase {
  Workload workload;
  std::size_t n;
  std::size_t k;
  std::size_t mem_blocks;
  std::uint64_t seed;
};

class MultiSelectTest : public testing::TestWithParam<MsCase> {};

TEST_P(MultiSelectTest, MatchesOracleWithinBudgetAndBound) {
  const auto& p = GetParam();
  EmEnv env(256, p.mem_blocks);
  auto host = make_workload(p.workload, p.n, p.seed,
                            env.ctx.block_records<Record>());
  auto input = materialize<Record>(env.ctx, host);
  auto sorted_ref = testutil::sorted_copy(host);

  SplitMix64 rng(p.seed * 977 + 5);
  std::vector<std::uint64_t> ranks(p.k);
  for (auto& r : ranks) r = 1 + rng.next_below(p.n);

  env.dev.reset_stats();
  env.ctx.budget().reset_peak();
  auto got = multi_select<Record>(env.ctx, input, ranks);
  EXPECT_LE(env.ctx.budget().peak(), env.ctx.budget().capacity());

  ASSERT_EQ(got.size(), p.k);
  for (std::size_t i = 0; i < p.k; ++i) {
    EXPECT_EQ(got[i], testutil::rank_element(sorted_ref, ranks[i]))
        << "rank " << ranks[i];
  }

  // Theorem 4 shape: O((N/B) lg_{M/B}(K/B)) with a generous constant (the
  // multi-partition detour costs several scans per level).
  const double n = static_cast<double>(p.n);
  const double b = static_cast<double>(env.ctx.block_records<Record>());
  const double m = static_cast<double>(env.ctx.mem_records<Record>());
  const double k = static_cast<double>(p.k);
  const double bound =
      60.0 * (n / b + 1.0) * formulas::lg_clamped(m / b, k / b) + 64.0;
  EXPECT_LE(static_cast<double>(env.dev.stats().total()), bound)
      << "n=" << p.n << " k=" << p.k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiSelectTest,
    testing::Values(
        MsCase{Workload::kUniform, 5000, 1, 8, 1},
        MsCase{Workload::kUniform, 5000, 3, 8, 2},
        MsCase{Workload::kUniform, 20000, 8, 96, 3},
        MsCase{Workload::kUniform, 20000, 40, 480, 4},
        // General case: K far beyond the group cap forces multi-partition.
        MsCase{Workload::kUniform, 30000, 200, 96, 5},
        MsCase{Workload::kUniform, 30000, 1000, 96, 6},
        MsCase{Workload::kSorted, 20000, 100, 96, 7},
        MsCase{Workload::kReverse, 20000, 100, 96, 8},
        MsCase{Workload::kFewDistinct, 20000, 100, 96, 9},
        MsCase{Workload::kOrganPipe, 20000, 100, 96, 10},
        MsCase{Workload::kZipfian, 20000, 100, 96, 11},
        MsCase{Workload::kBlockStriped, 20000, 100, 96, 12},
        MsCase{Workload::kUniform, 100000, 5000, 128, 13}),
    [](const auto& ti) {
      return to_string(ti.param.workload) + "_n" + std::to_string(ti.param.n) +
             "_k" + std::to_string(ti.param.k) + "_mb" +
             std::to_string(ti.param.mem_blocks);
    });

TEST(MultiSelectTest, DuplicateAndUnsortedRanksReturnInQueryOrder) {
  EmEnv env(256, 16);
  auto host = make_workload(Workload::kUniform, 4000, 3);
  auto input = materialize<Record>(env.ctx, host);
  auto sorted_ref = testutil::sorted_copy(host);
  std::vector<std::uint64_t> ranks{3999, 17, 17, 1, 2000, 17};
  auto got = multi_select<Record>(env.ctx, input, ranks);
  ASSERT_EQ(got.size(), ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_EQ(got[i], testutil::rank_element(sorted_ref, ranks[i]));
  }
}

TEST(MultiSelectTest, AllRanksEqualsSorting) {
  EmEnv env(256, 96);
  const std::size_t n = 2000;
  auto host = make_workload(Workload::kUniform, n, 4);
  auto input = materialize<Record>(env.ctx, host);
  std::vector<std::uint64_t> ranks(n);
  for (std::size_t i = 0; i < n; ++i) ranks[i] = i + 1;
  auto got = multi_select<Record>(env.ctx, input, ranks);
  EXPECT_EQ(got, testutil::sorted_copy(host));
}

TEST(MultiSelectTest, RejectsOutOfRangeRanks) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 100, 5);
  auto input = materialize<Record>(env.ctx, host);
  EXPECT_THROW((void)multi_select<Record>(env.ctx, input, {0}),
               std::invalid_argument);
  EXPECT_THROW((void)multi_select<Record>(env.ctx, input, {101}),
               std::invalid_argument);
}

TEST(MultiSelectTest, EmptyRankList) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 100, 5);
  auto input = materialize<Record>(env.ctx, host);
  EXPECT_TRUE(multi_select<Record>(env.ctx, input, {}).empty());
}

TEST(MultiSelectTest, RankEqualToNInGeneralCase) {
  // Rank n as the last pivot candidate exercises the dropped-pivot path.
  EmEnv env(256, 96);
  const std::size_t n = 30000;
  auto host = make_workload(Workload::kUniform, n, 6);
  auto input = materialize<Record>(env.ctx, host);
  auto sorted_ref = testutil::sorted_copy(host);
  const std::size_t m = intermixed_max_groups<Record>(env.ctx);
  // Build ranks so that rank n lands exactly at a pivot index (i*m - 1).
  std::vector<std::uint64_t> ranks;
  for (std::size_t i = 0; i < 2 * m; ++i) {
    ranks.push_back(i + 1);  // 1..2m
  }
  ranks[2 * m - 1] = n;  // the 2m-th unique rank is n
  auto got = multi_select<Record>(env.ctx, input, ranks);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_EQ(got[i], testutil::rank_element(sorted_ref, ranks[i]));
  }
}

// --- Base-case edge cases against the sorted oracle. -----------------------
// Each runs detail::multi_select_base at EmEnv's default M (16 blocks) and
// at the smallest M the base case accepts for that many ranks, where the
// splitter table and the queried-bucket table are at their smallest too.

/// Smallest memory (in 256-byte blocks) at which the base case accepts
/// `groups` ranks: its floor of 4 blocks (BaseCaseFloorTest.FourBlocks)
/// or more, until intermixed_max_groups admits every group.
std::size_t smallest_base_case_blocks(std::size_t groups) {
  for (std::size_t mb = 4;; ++mb) {
    EmEnv env(256, mb);
    if (intermixed_max_groups<Record>(env.ctx) >= groups) return mb;
  }
}

/// Prefix bucket counts of the splitters the base case computes over
/// `input` at this context: bucket j holds ranks (prefix[j], prefix[j+1]].
std::vector<std::uint64_t> bucket_prefix(
    Context& ctx, const EmVector<Record>& input,
    const std::vector<Record>& sorted_ref) {
  const auto sp = linear_splitters<Record>(ctx, input).splitters;
  const auto sizes = testutil::bucket_sizes(sorted_ref, sp);
  std::vector<std::uint64_t> prefix(sizes.size() + 1, 0);
  for (std::size_t j = 0; j < sizes.size(); ++j) {
    prefix[j + 1] = prefix[j] + sizes[j];
  }
  return prefix;
}

/// Runs the base case at sorted `ranks` and checks every answer.
void expect_oracle(Context& ctx, const EmVector<Record>& input,
                   const std::vector<Record>& sorted_ref,
                   const std::vector<std::uint64_t>& ranks) {
  ctx.budget().reset_peak();
  const auto got = detail::multi_select_base<Record>(
      ctx, input, 0, input.size(), ranks, std::less<Record>{});
  EXPECT_LE(ctx.budget().peak(), ctx.budget().capacity());
  ASSERT_EQ(got.size(), ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_EQ(got[i], testutil::rank_element(sorted_ref, ranks[i]))
        << "rank " << ranks[i];
  }
}

class BaseCaseEdgeTest : public testing::TestWithParam<bool> {
 protected:
  /// Memory in blocks for a run with `groups` ranks: the default, or the
  /// smallest the base case accepts (the test parameter).
  static std::size_t mem_blocks(std::size_t groups) {
    return GetParam() ? smallest_base_case_blocks(groups) : 16;
  }
};

TEST_P(BaseCaseEdgeTest, FirstAndLastRank) {
  // Rank 1 sits in bucket 0 (nothing precedes the first splitter) and rank
  // n in the last non-empty bucket.
  EmEnv env(256, mem_blocks(2));
  const std::size_t n = 5000;
  auto host = make_workload(Workload::kUniform, n, 21);
  auto input = materialize<Record>(env.ctx, host);
  const auto sorted_ref = testutil::sorted_copy(host);
  const auto prefix = bucket_prefix(env.ctx, input, sorted_ref);
  ASSERT_GT(prefix.size(), 3u);  // several buckets: the ranks are apart
  EXPECT_GE(prefix[1], 1u);      // rank 1 is in bucket 0
  expect_oracle(env.ctx, input, sorted_ref, {1});
  expect_oracle(env.ctx, input, sorted_ref, {n});
  expect_oracle(env.ctx, input, sorted_ref, {1, n});
}

TEST_P(BaseCaseEdgeTest, TwoRanksInOneBucketAndAdjacentBuckets) {
  // Ranks prefix[j]+1 and prefix[j+1] are the first and last of bucket j;
  // prefix[j+1]+1 is the first of bucket j+1, so the queried buckets j and
  // j+1 share the boundary splitter s_j.
  EmEnv env(256, mem_blocks(3));
  const std::size_t n = 5000;
  auto host = make_workload(Workload::kUniform, n, 22);
  auto input = materialize<Record>(env.ctx, host);
  const auto sorted_ref = testutil::sorted_copy(host);
  const auto prefix = bucket_prefix(env.ctx, input, sorted_ref);
  // A few buckets j spread over the middle, each holding two records or
  // more and followed by a non-empty bucket.
  std::size_t tried = 0;
  for (std::size_t j = 1; j + 2 < prefix.size(); j += (prefix.size() / 4) + 1) {
    if (prefix[j + 1] - prefix[j] < 2 || prefix[j + 2] == prefix[j + 1]) {
      continue;
    }
    expect_oracle(env.ctx, input, sorted_ref,
                  {prefix[j] + 1, prefix[j + 1], prefix[j + 1] + 1});
    ++tried;
  }
  EXPECT_GT(tried, 0u);
}

TEST_P(BaseCaseEdgeTest, RepeatedRanks) {
  // Repeated ranks are separate groups over the same bucket: each copy of
  // every record of that bucket is emitted once per group.
  EmEnv env(256, mem_blocks(5));
  const std::size_t n = 5000;
  auto host = make_workload(Workload::kUniform, n, 23);
  auto input = materialize<Record>(env.ctx, host);
  const auto sorted_ref = testutil::sorted_copy(host);
  expect_oracle(env.ctx, input, sorted_ref, {7, 7, 7, 2500, 2500});
  expect_oracle(env.ctx, input, sorted_ref, {1, 1, n, n, n});
}

TEST_P(BaseCaseEdgeTest, WholeInputIsTheSplitterSet) {
  // n <= M/4: linear_splitters keeps every record, so each record is its
  // own bucket (bucket j = {s_j}) and the last bucket is empty.
  EmEnv env(256, mem_blocks(5));
  const std::size_t n = env.ctx.mem_records<Record>() / 4;
  auto host = make_workload(Workload::kUniform, n, 24);
  auto input = materialize<Record>(env.ctx, host);
  const auto sorted_ref = testutil::sorted_copy(host);
  ASSERT_EQ(linear_splitters<Record>(env.ctx, input).splitters.size(), n);
  expect_oracle(env.ctx, input, sorted_ref, {1, 2, n - 1, n});
  expect_oracle(env.ctx, input, sorted_ref, {1, 1, n / 2, n / 2 + 1, n});
}

INSTANTIATE_TEST_SUITE_P(Memory, BaseCaseEdgeTest, testing::Bool(),
                         [](const auto& ti) {
                           return ti.param ? "SmallestM" : "DefaultM";
                         });

TEST(BaseCaseFloorTest, FourBlocks) {
  // Pins the floor smallest_base_case_blocks starts from.
  const std::size_t n = 5000;
  auto host = make_workload(Workload::kUniform, n, 25);
  {
    EmEnv env(256, 3);
    auto input = materialize<Record>(env.ctx, host);
    EXPECT_THROW((void)detail::multi_select_base<Record>(
                     env.ctx, input, 0, n, {n / 2}, std::less<Record>{}),
                 BudgetExceeded);
  }
  EmEnv env(256, 4);
  auto input = materialize<Record>(env.ctx, host);
  expect_oracle(env.ctx, input, testutil::sorted_copy(host), {n / 2});
}

}  // namespace
}  // namespace emsplit
