// Tests for BucketLocator (select/bucket_locator.hpp): the Eytzinger splitter
// table must answer exactly what std::lower_bound answers over the sorted
// splitters, for every tree shape, with no memory beyond the splitters and
// the caller's scratch bitmap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <span>
#include <vector>

#include "select/bucket_locator.hpp"
#include "util/record.hpp"
#include "util/rng.hpp"

namespace emsplit {
namespace {

using U64Less = std::less<std::uint64_t>;
using U64Table = BucketLocator<std::uint64_t, U64Less>;

/// Sorted splitters 2, 4, ..., 2n: every odd query falls strictly between
/// two of them, every even one hits one exactly.
std::vector<std::uint64_t> even_splitters(std::size_t n) {
  std::vector<std::uint64_t> sp(n);
  for (std::size_t i = 0; i < n; ++i) sp[i] = 2 * (i + 1);
  return sp;
}

/// Scratch of exactly the size the constructor asks for.
std::vector<std::uint64_t> scratch_for(std::size_t n) {
  return std::vector<std::uint64_t>(
      U64Table::scratch_words(n));
}

std::size_t reference(const std::vector<std::uint64_t>& sp, std::uint64_t x) {
  return static_cast<std::size_t>(std::lower_bound(sp.begin(), sp.end(), x) -
                                  sp.begin());
}

TEST(BucketLocatorTest, LocateMatchesLowerBoundForEveryShape) {
  // 0..600 covers empty, single-node, perfect trees and every fill of the
  // last level for heights up to 9.
  for (std::size_t n = 0; n <= 600; ++n) {
    const auto sp = even_splitters(n);
    auto scratch = scratch_for(n);
    const U64Table table(sp, U64Less{}, scratch);
    ASSERT_EQ(table.size(), n);
    // Queries 0 .. 2n+2: below the first, at and between every splitter,
    // and above the last.
    std::vector<std::uint64_t> queries(2 * n + 3);
    for (std::size_t q = 0; q < queries.size(); ++q) queries[q] = q;
    for (const std::uint64_t x : queries) {
      ASSERT_EQ(table.locate(x), reference(sp, x)) << "n=" << n << " x=" << x;
    }
    std::vector<std::uint64_t> seen_x;
    std::vector<std::size_t> seen_j;
    table.locate_each(std::span<const std::uint64_t>(queries),
                      [&](const std::uint64_t& x, std::size_t j) {
                        seen_x.push_back(x);
                        seen_j.push_back(j);
                      });
    ASSERT_EQ(seen_x, queries) << "n=" << n;  // stream order, every query
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(seen_j[q], reference(sp, queries[q]))
          << "n=" << n << " x=" << queries[q];
    }
  }
}

TEST(BucketLocatorTest, AtRankRoundTripsTheSortedInput) {
  for (std::size_t n = 0; n <= 600; ++n) {
    const auto sp = even_splitters(n);
    auto scratch = scratch_for(n);
    const U64Table table(sp, U64Less{}, scratch);
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(table.at_rank(r), sp[r]) << "n=" << n << " r=" << r;
    }
  }
}

TEST(BucketLocatorTest, KeyOnlyWeakOrderOverDuplicateKeys) {
  // Records ordered by key alone: runs of equal keys with distinct payloads.
  // lower_bound finds the first record of a run; so must the table, and
  // at_rank must return each record (payload included) at its sorted rank.
  const auto key_less = [](const Record& a, const Record& b) {
    return a.key < b.key;
  };
  SplitMix64 rng(7);
  for (const std::size_t n : {1u, 2u, 3u, 15u, 16u, 17u, 100u, 257u, 511u}) {
    std::vector<Record> sp(n);
    for (std::size_t i = 0; i < n; ++i) sp[i] = {rng.next_below(12), i};
    std::stable_sort(sp.begin(), sp.end(), key_less);
    auto scratch = scratch_for(n);
    const BucketLocator<Record, decltype(key_less)> table(sp, key_less,
                                                          scratch);
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(table.at_rank(r), sp[r]) << "n=" << n << " r=" << r;
    }
    std::vector<Record> queries;
    for (std::uint64_t key = 0; key <= 13; ++key) {
      queries.push_back({key, 0});
      queries.push_back({key, ~std::uint64_t{0}});
    }
    std::vector<std::size_t> got;
    table.locate_each(std::span<const Record>(queries),
                      [&](const Record&, std::size_t j) { got.push_back(j); });
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto want = static_cast<std::size_t>(
          std::lower_bound(sp.begin(), sp.end(), queries[q], key_less) -
          sp.begin());
      ASSERT_EQ(table.locate(queries[q]), want) << "n=" << n << " q=" << q;
      ASSERT_EQ(got[q], want) << "n=" << n << " q=" << q;
    }
  }
}

TEST(BucketLocatorTest, NeedsOnlyTheSplittersAndABitmap) {
  // The table allocates nothing: its only working memory is the caller's
  // scratch, one bit per splitter rounded up to whole words.  Every shape
  // above ran with exactly that much; one word less is refused before any
  // splitter moves.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 1000u, 4096u}) {
    const auto sp = even_splitters(n);
    EXPECT_EQ(U64Table::scratch_words(n),
              (n + 63) / 64);
    std::vector<std::uint64_t> short_scratch((n + 63) / 64 - 1);
    EXPECT_THROW((U64Table(sp, U64Less{}, short_scratch)),
                 std::invalid_argument)
        << "n=" << n;
    // Scratch comes back dirty; the table is correct whatever it held.
    std::vector<std::uint64_t> dirty((n + 63) / 64, ~std::uint64_t{0});
    const U64Table table(sp, U64Less{}, dirty);
    for (std::size_t r = 0; r < n; ++r) ASSERT_EQ(table.at_rank(r), sp[r]);
  }
  EXPECT_EQ(U64Table::scratch_words(0), 0u);
}

TEST(BucketLocatorTest, HeterogeneousQueriesThroughPointers) {
  // A table of pointers into another table's records, queried with records
  // — the shape the base case uses for its queried-bucket boundaries.
  const auto sp = even_splitters(300);
  auto scratch = scratch_for(sp.size());
  const U64Table big(sp, U64Less{}, scratch);
  std::vector<const std::uint64_t*> bounds;
  std::vector<std::uint64_t> picked;
  for (const std::size_t r : {0u, 1u, 7u, 8u, 150u, 298u, 299u}) {
    bounds.push_back(&big.at_rank(r));
    picked.push_back(sp[r]);
  }
  auto deref_less = [](const std::uint64_t* s, std::uint64_t x) {
    return *s < x;
  };
  const BucketLocator<const std::uint64_t*, decltype(deref_less)> small(
      bounds, deref_less, scratch);
  for (std::uint64_t x = 0; x <= 602; ++x) {
    ASSERT_EQ(small.locate(x), reference(picked, x)) << "x=" << x;
  }
}

}  // namespace
}  // namespace emsplit
