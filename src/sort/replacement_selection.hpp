// replacement_selection.hpp — snow-plow run formation.
//
// Knuth's replacement selection (TAOCP vol. 3 §5.4.1R): stream the input
// through an M-record min-heap, emitting the smallest element that can
// still extend the current run; elements smaller than the last one written
// are parked for the next run.  On random input the runs come out about
// 2M long — half the number of chunk-sorted runs — which can remove a
// whole merge pass.  On already-sorted input one giant run emerges and the
// sort degenerates to a copy; on reverse-sorted input runs are exactly M
// and the trick buys nothing.  Experiment E17 measures all three.
//
// The heap orders by (run id, record): current-run elements first, parked
// elements after, so one heap serves both runs with no second buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "em/context.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"

namespace emsplit {
namespace detail {

/// Split `input` into sorted runs via replacement selection; returns the
/// run vector and its boundaries (the same contract as form_runs).
template <EmRecord T, typename Less>
std::pair<EmVector<T>, std::vector<std::size_t>> form_runs_replacement(
    Context& ctx, const EmVector<T>& input, Less less) {
  const std::size_t b = ctx.block_records<T>();
  using Entry = std::pair<std::uint64_t, T>;  // (run id, record)
  // Heap capacity: memory minus reader/writer buffers, in heap entries.
  // The run-id tag is the snow plow's memory overhead — it shrinks the heap
  // below M records, which is why the expected run length on random input
  // is 2 * M * sizeof(T)/sizeof(Entry) rather than the textbook 2M.
  // (The reader and writer each buffer batch_blocks() blocks under the
  // current I/O tuning.)
  const std::size_t heap_cap = std::max<std::size_t>(
      2, (ctx.mem_bytes() - 2 * ctx.batch_blocks() * b * sizeof(T)) /
             sizeof(Entry));

  auto heap_res = ctx.budget().reserve(heap_cap * sizeof(Entry));
  const auto entry_greater = [less](const Entry& x, const Entry& y) {
    if (x.first != y.first) return x.first > y.first;
    if (less(y.second, x.second)) return true;
    if (less(x.second, y.second)) return false;
    return false;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(entry_greater)>
      heap(entry_greater);

  EmVector<T> runs(ctx, input.size());
  std::vector<std::size_t> offsets{0};
  StreamReader<T> reader(input);
  StreamWriter<T> writer(runs);

  // Prime the heap.
  while (heap.size() < heap_cap && !reader.done()) {
    heap.emplace(0, reader.next());
  }

  std::uint64_t current_run = 0;
  bool have_last = false;
  T last{};
  while (!heap.empty()) {
    const auto [run, v] = heap.top();
    heap.pop();
    if (run != current_run) {
      offsets.push_back(writer.count());
      current_run = run;
      have_last = false;
    }
    writer.push(v);
    last = v;
    have_last = true;
    if (!reader.done()) {
      const T next = reader.next();
      // An element smaller than the last output cannot join this run.
      const bool fits = !have_last || !less(next, last);
      heap.emplace(fits ? current_run : current_run + 1, next);
    }
  }
  writer.finish();
  offsets.push_back(writer.count());
  if (input.empty() && offsets.size() == 1) offsets.push_back(0);
  return {std::move(runs), std::move(offsets)};
}

}  // namespace detail
}  // namespace emsplit
