// base_case.hpp — multi-selection for K <= m ranks in linear I/Os
// (paper §4.2, "Base Case").
//
// Given records [first, last) of an external vector and up to m = Θ(M)
// target ranks, report the element at each rank using O(n/B) I/Os:
//
//   1. linear_splitters() produces a memory-resident splitter set whose
//      buckets are small (our substitute for the Hu et al. [6] subroutine —
//      see DESIGN.md §4).  The sorted splitters are permuted in place into
//      a BucketLocator (select/bucket_locator.hpp): the same bytes in
//      Eytzinger order, answering the same lower_bound question.
//   2. One counting scan obtains every bucket's size, locating the records
//      with interleaved table descents; prefix sums locate the bucket j(i)
//      containing each target rank r_i and its local rank
//      t_i = r_i - prefix[j(i)-1].
//   3. One more scan builds the intermixed instance: every element of a
//      bucket that contains at least one queried rank is emitted once per
//      querying rank, tagged with that query's group id.  This scan looks
//      records up in a second table over just the queried buckets'
//      boundaries (at most 2K splitters, cache-resident), whose slots map
//      to a precomputed run of querying groups or to none.
//   4. intermixed_select() solves all K rank queries concurrently.
//
// |D| = sum of the queried buckets' sizes <= K * bucket_bound; with
// K <= Θ(M) and bucket_bound = O((n/M) log(n/M)) this is O(n log(n/M)) in
// the worst case and O(n) whenever K is at most M / log(n/M) — in
// particular, in every configuration the experiments run.  The extra log
// comes from our splitter substitute and is measured, not hidden
// (bench_intermixed sweeps it).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "em/context.hpp"
#include "em/pass_engine.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"
#include "select/bucket_locator.hpp"
#include "select/intermixed.hpp"
#include "select/linear_splitters.hpp"

namespace emsplit {
namespace detail {

/// Multi-selection over records [first, last) of `vec` at `ranks` (1-based
/// within the range, sorted ascending, size <= intermixed_max_groups).
/// Returns the selected elements in rank order.
template <EmRecord T, typename Less>
std::vector<T> multi_select_base(Context& ctx, const EmVector<T>& vec,
                                 std::size_t first, std::size_t last,
                                 const std::vector<std::uint64_t>& ranks,
                                 Less less) {
  const std::size_t n = last - first;
  const std::size_t k = ranks.size();
  if (k == 0) return {};
  assert(std::is_sorted(ranks.begin(), ranks.end()));
  if (ranks.front() < 1 || ranks.back() > n) {
    throw std::invalid_argument("multi_select_base: rank out of range");
  }
  if (k > intermixed_max_groups<T>(ctx)) {
    throw std::invalid_argument("multi_select_base: too many ranks for M");
  }

  // Steps 1-3 hold the splitters and counters in memory; all of it is
  // released before step 4 hands the full budget to intermixed_select.
  // Each step is one engine pass (step 1's passes trace under the
  // linear_splitters job; step 4's under intermixed's).
  PassRunner runner(ctx, {"msel-base", 0});
  EmVector<Grouped<T>> d;
  std::vector<std::uint64_t> local_ranks(k);
  {
    // Step 1: splitters (memory-resident; <= M/4 records).
    auto split = linear_splitters<T, Less>(ctx, vec, first, last, less);
    const std::size_t num_sp = split.splitters.size();
    const std::size_t num_buckets = num_sp + 1;
    auto sp_res = ctx.budget().reserve(num_sp * sizeof(T));

    // Step 2: bucket sizes -> prefix sums (num_buckets <= M/4 + 1 counters).
    std::vector<std::uint64_t> prefix(num_buckets + 1, 0);
    auto cnt_res =
        ctx.budget().reserve((num_buckets + 1) * sizeof(std::uint64_t));
    // An element e belongs to bucket j = index of the first splitter >= e
    // (buckets are (s_{j-1}, s_j], left-closed at -inf, right-open at +inf):
    // exactly the table's locate().  The counters lend the table its
    // permutation bitmap (one bit per splitter) before they count, so the
    // table takes no reservation of its own: an extra reserve() would also
    // make a service's bucket cache give back entries on every rebuild.
    const BucketLocator<T, Less> table(std::move(split.splitters), less,
                                       prefix);
    std::fill(prefix.begin(), prefix.end(), 0);
    runner.run("msel/count-buckets", [&] {
      StreamReader<T> reader(vec, first, last);
      while (!reader.done()) {
        const std::span<const T> span = reader.peek_span();
        table.locate_each(span,
                          [&](const T&, std::size_t j) { ++prefix[j + 1]; });
        reader.consume(span.size());
      }
    });
    for (std::size_t j = 1; j <= num_buckets; ++j) prefix[j] += prefix[j - 1];

    // Locate each rank's bucket.  Ranks are sorted, buckets scan forward.
    std::vector<std::size_t> rank_bucket(k);
    std::size_t j = 0;
    std::uint64_t d_size = 0;
    for (std::size_t i = 0; i < k; ++i) {
      while (prefix[j + 1] < ranks[i]) ++j;
      rank_bucket[i] = j;
      d_size += prefix[j + 1] - prefix[j];
      local_ranks[i] = ranks[i] - prefix[j];
    }

    // Only the queried buckets matter to step 3.  Their boundary splitters
    // (at most 2k, held as pointers into `table`) form a second, tiny table
    // whose slots are either exactly one queried bucket or a run of
    // unqueried ones: slot t < size covers (bounds[t-1], bounds[t]], the
    // last slot everything above bounds.back().  A queried bucket J has
    // both J-1 and J among the bounds, so its slot holds bucket J alone.
    std::vector<std::size_t> bounds;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t jb = rank_bucket[i];
      if (i > 0 && jb == rank_bucket[i - 1]) continue;
      if (jb > 0 && (bounds.empty() || bounds.back() != jb - 1)) {
        bounds.push_back(jb - 1);
      }
      if (jb < num_sp) bounds.push_back(jb);
    }
    // Per slot, the groups querying its bucket: a contiguous run of the
    // sorted rank list (empty for a slot no rank falls in).
    std::vector<std::size_t> run_lo(bounds.size() + 1);
    std::vector<std::size_t> run_hi(bounds.size() + 1);
    std::vector<const T*> bound_elems(bounds.size());
    for (std::size_t t = 0; t <= bounds.size(); ++t) {
      const std::size_t jb = t < bounds.size() ? bounds[t] : num_sp;
      const auto [lo, hi] =
          std::equal_range(rank_bucket.begin(), rank_bucket.end(), jb);
      run_lo[t] = static_cast<std::size_t>(lo - rank_bucket.begin());
      run_hi[t] = static_cast<std::size_t>(hi - rank_bucket.begin());
      if (t < bounds.size()) bound_elems[t] = &table.at_rank(jb);
    }
    auto deref_less = [&less](const T* s, const T& x) { return less(*s, x); };
    // The prefix sums are spent; their words are the bitmap this time.
    const BucketLocator<const T*, decltype(deref_less)> queried(
        std::move(bound_elems), deref_less, prefix);

    // Step 3: build the intermixed instance.  Every element of a queried
    // bucket is emitted once per querying group, in stream order.
    runner.run("msel/build-instance", [&] {
      d = EmVector<Grouped<T>>(ctx, static_cast<std::size_t>(d_size));
      StreamReader<T> scan(vec, first, last);
      StreamWriter<Grouped<T>> writer(d);
      while (!scan.done()) {
        const std::span<const T> span = scan.peek_span();
        queried.locate_each(span, [&](const T& e, std::size_t t) {
          for (std::size_t g = run_lo[t]; g < run_hi[t]; ++g) {
            writer.push(Grouped<T>{e, static_cast<std::uint64_t>(g)});
          }
        });
        scan.consume(span.size());
      }
      writer.finish();
    });
  }

  // Step 4: solve all rank queries at once, with the budget back to empty.
  return intermixed_select<T, Less>(ctx, std::move(d), std::move(local_ranks),
                                    less);
}

}  // namespace detail

/// Single-rank selection (the k = 1 special case): the element of rank
/// `rank` (1-based) among records [first, last) in O(n/B) I/Os.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] T select_rank(Context& ctx, const EmVector<T>& vec,
                            std::size_t first, std::size_t last,
                            std::uint64_t rank, Less less = {}) {
  return detail::multi_select_base<T, Less>(ctx, vec, first, last, {rank},
                                            less)[0];
}

/// Whole-vector convenience overload.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] T select_rank(Context& ctx, const EmVector<T>& vec,
                            std::uint64_t rank, Less less = {}) {
  return select_rank<T, Less>(ctx, vec, 0, vec.size(), rank, less);
}

}  // namespace emsplit
