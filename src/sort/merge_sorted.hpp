// merge_sorted.hpp — public k-way merge of sorted external vectors.
//
// The loser-tree merge that powers external_sort, exposed as an API: merge
// any number of individually sorted vectors into one, in passes of fan-in
// M/B - 1.  Useful on its own whenever sorted runs arrive from elsewhere
// (pre-sorted shards, the outputs of per-partition sorts, log segments).
// Cost: Θ(((Σ n_i)/B) · ceil(log_{M/B} k)).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "em/context.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"
#include "sort/external_sort.hpp"

namespace emsplit {

/// Merge `inputs` (each sorted under `less`) into one sorted vector.
/// The inputs are consumed (their device space is recycled pass by pass).
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] EmVector<T> merge_sorted(Context& ctx,
                                       std::vector<EmVector<T>> inputs,
                                       Less less = {}) {
  if (inputs.empty()) return EmVector<T>(ctx, 0);
  const std::size_t b = ctx.block_records<T>();
  // As in external_sort: each stream owns batch_blocks() blocks of buffer.
  const std::size_t fan_in = std::max<std::size_t>(
      2, ctx.mem_records<T>() / (b * ctx.batch_blocks()) - 1);

  while (inputs.size() > 1) {
    std::vector<EmVector<T>> next;
    for (std::size_t group = 0; group < inputs.size(); group += fan_in) {
      const std::size_t last = std::min(group + fan_in, inputs.size());
      std::size_t total = 0;
      for (std::size_t i = group; i < last; ++i) total += inputs[i].size();
      EmVector<T> out(ctx, total);
      {
        std::vector<ReaderCursor<T>> cursors;
        cursors.reserve(last - group);
        for (std::size_t i = group; i < last; ++i) {
          cursors.emplace_back(inputs[i], 0, inputs[i].size());
        }
        LoserTree<T, ReaderCursor<T>, Less> tree(std::move(cursors), less);
        StreamWriter<T> writer(out);
        while (!tree.done()) writer.push(tree.next());
        writer.finish();
      }
      for (std::size_t i = group; i < last; ++i) inputs[i].reset();
      next.push_back(std::move(out));
    }
    inputs = std::move(next);
  }
  return std::move(inputs.front());
}

}  // namespace emsplit
