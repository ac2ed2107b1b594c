// multi_select.hpp — optimal multi-selection (paper §4.2, Theorem 4).
//
// Report the element at each of K given ranks in O((N/B) log_{M/B}(K/B))
// I/Os — the paper's main algorithmic contribution, closing the gap to the
// Arge–Knudsen–Larsen lower bound and separating multi-selection from
// multi-partition (which costs log_{M/B} K) for small K.
//
//   * K <= m = Θ(M): the base case (base_case.hpp) — linear splitters, one
//     counting scan, one instance of L-intermixed selection.  O(N/B) I/Os.
//   * K > m: multi-partition S at every m-th target rank into g = ceil(K/m)
//     pieces — O((N/B) log_{M/B} g) = O((N/B) log_{M/B}(K/B)) I/Os — then
//     run one base case inside each piece: O(sum |P_i| / B) = O(N/B).
//
// Input ranks may arrive in any order and may repeat; results are returned
// in the order the ranks were given.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "em/context.hpp"
#include "em/pass_engine.hpp"
#include "em/em_vector.hpp"
#include "partition/multi_partition.hpp"
#include "select/base_case.hpp"

namespace emsplit {
namespace detail {

/// Base-case selection allowing any number of (sorted, unique) ranks by
/// batching them into groups of at most `max_groups` per intermixed run.
/// Each batch costs one more O(n/B) pass; callers arrange for O(1) batches.
template <EmRecord T, typename Less>
void multi_select_batched(Context& ctx, const EmVector<T>& vec,
                          std::size_t first, std::size_t last,
                          const std::vector<std::uint64_t>& ranks,
                          std::vector<T>& out, Less less) {
  const std::size_t max_groups = intermixed_max_groups<T>(ctx);
  for (std::size_t lo = 0; lo < ranks.size(); lo += max_groups) {
    const std::size_t hi = std::min(lo + max_groups, ranks.size());
    const std::vector<std::uint64_t> batch(
        ranks.begin() + static_cast<std::ptrdiff_t>(lo),
        ranks.begin() + static_cast<std::ptrdiff_t>(hi));
    auto part = multi_select_base<T, Less>(ctx, vec, first, last, batch, less);
    out.insert(out.end(), part.begin(), part.end());
  }
}

/// Job fingerprint for the multi-select checkpoint (see sort_fingerprint):
/// digests everything that shapes the partition + base-case pass structure —
/// the query ranks included, since they pick the pivots.
template <EmRecord T>
std::uint64_t msel_fingerprint(const Context& ctx, std::size_t first,
                               std::size_t n,
                               const std::vector<std::uint64_t>& rs) {
  std::uint64_t h = fingerprint_mix(kFingerprintSeed, 0x4D53454C);  // "MSEL"
  h = fingerprint_mix(h, first);
  h = fingerprint_mix(h, n);
  h = fingerprint_mix(h, sizeof(T));
  h = fingerprint_mix(h, ctx.block_records<T>());
  h = fingerprint_mix(h, ctx.batch_blocks());
  h = fingerprint_mix(h, ctx.mem_records<T>());
  for (const std::uint64_t r : rs) h = fingerprint_mix(h, r);
  return h;
}

}  // namespace detail

/// Multi-selection over records [first, last) of `input`.
///
/// `ranks` are 1-based ranks within the range, in any order, duplicates
/// allowed.  Returns the element of rank ranks[i] at position i.
/// Cost: O((n/B) log_{M/B}(K/B)) I/Os.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] std::vector<T> multi_select(Context& ctx,
                                          const EmVector<T>& input,
                                          std::size_t first, std::size_t last,
                                          const std::vector<std::uint64_t>& ranks,
                                          Less less = {}) {
  const std::size_t n = last - first;
  const std::size_t k = ranks.size();
  if (k == 0) return {};
  for (const auto r : ranks) {
    if (r < 1 || r > n) {
      throw std::invalid_argument("multi_select: rank out of range");
    }
  }

  // Sorted unique rank values; remember where each original query maps.
  std::vector<std::uint64_t> rs(ranks);
  std::sort(rs.begin(), rs.end());
  rs.erase(std::unique(rs.begin(), rs.end()), rs.end());
  const std::size_t u = rs.size();

  const std::size_t m = intermixed_max_groups<T>(ctx);
  std::vector<T> unique_answers;
  unique_answers.reserve(u);

  // Pass structure via the engine (em/pass_engine.hpp): one base-case pass
  // when all ranks fit one intermixed instance, otherwise a partition pass
  // followed by a base-case pass per piece.  The envelope performs no I/O,
  // so the scan sequence is exactly the seed's.
  PassRunner runner(ctx, {"msel", detail::msel_fingerprint<T>(ctx, first, n, rs)});
  if (u <= m) {
    unique_answers = runner.run("msel/base-case", [&] {
      return detail::multi_select_base<T, Less>(ctx, input, first, last, rs,
                                                less);
    });
  } else {
    // General case: split at every m-th unique rank.  The partition result
    // is installed as pass 1 of a sort-shaped chain: with a journal attached
    // a crash during the base cases resumes with the partition already paid
    // for (a crash *inside* the partition resumes multi_partition's own
    // journaled root as before); without a journal install/take degrade to
    // plain moves — the seed code path.
    PassChain<T> chain(runner, "msel/partition");
    if (!chain.resumed()) {
      const std::size_t g = (u + m - 1) / m;
      std::vector<std::uint64_t> pivot_ranks;
      pivot_ranks.reserve(g - 1);
      for (std::size_t i = 1; i < g; ++i) {
        const std::uint64_t r = rs[i * m - 1];
        if (r < n) pivot_ranks.push_back(r);  // a split at n would be empty
      }
      auto part = runner.run("msel/partition", [&] {
        return multi_partition<T, Less>(ctx, input, first, last, pivot_ranks,
                                        less);
      });
      chain.install(std::move(part.data), std::move(part.bounds));
    }
    const auto& bounds = chain.offsets();

    // Each piece q covers global ranks (pivot_{q-1}, pivot_q]; its targets
    // are a contiguous run of rs.  Dropping a rank-n pivot can at most merge
    // two runs, so the batched base case below runs O(1) times per piece.
    std::size_t i = 0;
    for (std::size_t q = 0; q + 1 < bounds.size(); ++q) {
      const std::uint64_t lo = bounds[q];
      const std::uint64_t hi = bounds[q + 1];
      std::vector<std::uint64_t> local;
      while (i < u && rs[i] <= hi) {
        local.push_back(rs[i] - lo);
        ++i;
      }
      if (local.empty()) continue;
      runner.run("msel/base-case", [&] {
        detail::multi_select_batched<T, Less>(ctx, chain.data(), lo, hi,
                                              local, unique_answers, less);
      });
    }
    (void)chain.take();  // retire the journal entry and free the scratch
  }

  // Fan unique answers back out to the original query order.
  std::vector<T> answers(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto it = std::lower_bound(rs.begin(), rs.end(), ranks[i]);
    answers[i] = unique_answers[static_cast<std::size_t>(it - rs.begin())];
  }
  return answers;
}

/// Whole-vector convenience overload.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] std::vector<T> multi_select(Context& ctx,
                                          const EmVector<T>& input,
                                          const std::vector<std::uint64_t>& ranks,
                                          Less less = {}) {
  return multi_select<T, Less>(ctx, input, 0, input.size(), ranks, less);
}

}  // namespace emsplit
