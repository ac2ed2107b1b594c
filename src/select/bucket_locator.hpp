// bucket_locator.hpp — splitter lookup in Eytzinger (BFS) order.
//
// The base case (select/base_case.hpp) and the cut selection of
// multi_partition (partition/multi_partition.hpp) both scan their input once
// per step and ask, for every record, which splitter bucket it falls in:
// the index of the first splitter not below it, i.e. std::lower_bound over
// the sorted splitters.  With Θ(M) splitters that array is megabytes, and a
// binary search over it costs a cache miss (and a mispredicted branch) per
// level on nearly every probe.
//
// BucketLocator answers exactly the same question from the same bytes laid
// out in Eytzinger order: node k (1-based) lives at slot k-1, its children
// are nodes 2k and 2k+1, and an in-order walk of the complete tree visits
// the splitters in sorted order.  A descent touches one node per level, the
// hot top levels share a few cache lines, and the comparison result feeds
// the next index arithmetically instead of through a branch.
// locate_each() runs kLanes descents level by level, interleaved, so their
// cache misses overlap instead of queueing behind each other.
//
// Layout, with n splitters, H = floor(log2 n) and L = n - (2^H - 1) nodes
// on the partially filled last level.  In the perfect tree of height H the
// in-order position of node k at depth d is
//     p(k) = (2 (k - 2^d) + 1) 2^(H-d) - 1 ,
// and the last level's missing leaves sit at the even positions >= 2L, so
//     rank(k) = p < 2L ? p : (p - 1) / 2 + L .
// Both directions are O(1) bit arithmetic, so at_rank() needs no side array
// and the constructor permutes the sorted input in place by following the
// permutation's cycles, marking visited slots in an n-bit bitmap.  The
// table allocates nothing: the bitmap lives in scratch words the caller
// lends from memory it has already charged to its budget.
//
// Every answer is the sorted-order answer: lookup geometry, never output.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace emsplit {

/// A sorted table of splitters S answering lower_bound queries: locate(x)
/// is the index of the first splitter s with !less(s, x) (size() if none),
/// exactly std::lower_bound(sorted.begin(), sorted.end(), x, less).
/// `less(s, x)` compares a splitter with a query; `Q` may differ from `S`
/// (a table of pointers can compare through another table's records).
template <typename S, typename Less>
class BucketLocator {
 public:
  /// Descents interleaved per locate_each() step.
  static constexpr std::size_t kLanes = 16;

  /// Words of visited-bitmap scratch the constructor needs for n splitters.
  [[nodiscard]] static constexpr std::size_t scratch_words(std::size_t n) {
    return (n + 63) / 64;
  }

  /// Takes the sorted splitters and permutes them into Eytzinger order in
  /// place, marking visited slots in `scratch` (at least scratch_words(n)
  /// words; overwritten).
  BucketLocator(std::vector<S> sorted, Less less,
                std::span<std::uint64_t> scratch)
      : tree_(std::move(sorted)), less_(std::move(less)), n_(tree_.size()) {
    if (scratch.size() < scratch_words(n_)) {
      throw std::invalid_argument("BucketLocator: scratch too small");
    }
    if (n_ == 0) return;
    height_ = static_cast<unsigned>(std::bit_width(n_) - 1);
    last_level_ = n_ - ((std::size_t{1} << height_) - 1);
    permute_in_place(scratch.first(scratch_words(n_)));
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// The splitter of sorted rank r (0-based, r < size()).
  [[nodiscard]] const S& at_rank(std::size_t r) const {
    return tree_[node_of_rank(r) - 1];
  }

  /// Number of splitters s with less(s, x): the lower_bound index.
  template <typename Q>
  [[nodiscard]] std::size_t locate(const Q& x) const {
    if (n_ == 0) return 0;
    std::size_t k = 1;
    for (unsigned d = 0; d < height_; ++d) k = step(k, x);
    return finish(last_step(k, x));
  }

  /// Calls f(x, locate(x)) for every x of `xs`, in order.  The descents of
  /// kLanes consecutive queries advance together one level at a time.
  template <typename Q, typename F>
  void locate_each(std::span<const Q> xs, F&& f) const {
    std::size_t i = 0;
    if (n_ > 0) {
      for (; i + kLanes <= xs.size(); i += kLanes) {
        const Q* x = xs.data() + i;
        std::array<std::size_t, kLanes> k;
        k.fill(1);
        for (unsigned d = 0; d < height_; ++d) {
          for (std::size_t l = 0; l < kLanes; ++l) {
            k[l] = step(k[l], x[l]);
          }
        }
        for (std::size_t l = 0; l < kLanes; ++l) k[l] = last_step(k[l], x[l]);
        for (std::size_t l = 0; l < kLanes; ++l) f(x[l], finish(k[l]));
      }
    }
    for (; i < xs.size(); ++i) f(xs[i], locate(xs[i]));
  }

 private:
  /// One level down from an existing node k: left child 2k when the
  /// splitter is not below x, right child 2k+1 when it is.
  template <typename Q>
  [[nodiscard]] std::size_t step(std::size_t k, const Q& x) const {
    return 2 * k + static_cast<std::size_t>(less_(tree_[k - 1], x));
  }

  /// The step below depth H: node k exists only if k <= n.  A missing node
  /// is taken as "splitter below x" (go right), which appends a 1 bit that
  /// finish() strips again — the answer is decided by the levels above.
  template <typename Q>
  [[nodiscard]] std::size_t last_step(std::size_t k, const Q& x) const {
    const bool missing = k > n_;
    const std::size_t probe = missing ? n_ : k;
    const bool below = missing | less_(tree_[probe - 1], x);
    return 2 * k + static_cast<std::size_t>(below);
  }

  /// Past the leaves, the answer is the last node where the descent went
  /// left: strip the trailing right turns and that left turn.  Node 0 means
  /// every splitter is below x.
  [[nodiscard]] std::size_t finish(std::size_t k) const {
    k >>= std::countr_one(k) + 1;
    return k == 0 ? n_ : rank_of_node(k);
  }

  [[nodiscard]] std::size_t rank_of_node(std::size_t k) const {
    const auto d = static_cast<unsigned>(std::bit_width(k) - 1);
    const std::size_t p =
        ((2 * (k - (std::size_t{1} << d)) + 1) << (height_ - d)) - 1;
    return p < 2 * last_level_ ? p : (p - 1) / 2 + last_level_;
  }

  [[nodiscard]] std::size_t node_of_rank(std::size_t r) const {
    const std::size_t p =
        r < 2 * last_level_ ? r : 2 * (r - last_level_) + 1;
    const auto t = static_cast<unsigned>(std::countr_zero(p + 1));
    return (std::size_t{1} << (height_ - t)) + ((p + 1) >> (t + 1));
  }

  /// Sorted order -> Eytzinger order: the record of rank r moves to slot
  /// node_of_rank(r) - 1.  A slot nobody has written yet still holds its
  /// sorted-rank record, so each cycle is followed by carrying one record.
  void permute_in_place(std::span<std::uint64_t> visited) {
    std::fill(visited.begin(), visited.end(), 0);
    for (std::size_t start = 0; start < n_; ++start) {
      if ((visited[start / 64] >> (start % 64)) & 1) continue;
      S carry = std::move(tree_[start]);
      std::size_t r = start;
      for (;;) {
        const std::size_t to = node_of_rank(r) - 1;
        visited[to / 64] |= std::uint64_t{1} << (to % 64);
        std::swap(carry, tree_[to]);
        if (to == start) break;
        r = to;
      }
    }
  }

  std::vector<S> tree_;  // tree_[k - 1] holds node k
  Less less_;
  std::size_t n_ = 0;
  unsigned height_ = 0;         // H: depth of the deepest level
  std::size_t last_level_ = 0;  // L: nodes present at depth H
};

}  // namespace emsplit
