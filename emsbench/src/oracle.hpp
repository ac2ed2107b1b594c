// oracle.hpp — host-side answers the benchmark checks the library against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/record.hpp"

namespace emsbench {

/// Every input record, in order.  Keys are distinct (make_records), so key
/// probes have exact answers.
struct Oracle {
  std::vector<emsplit::Record> sorted;

  /// #records with key <= `key`.
  [[nodiscard]] std::uint64_t rank(std::uint64_t key) const {
    return static_cast<std::uint64_t>(
        std::upper_bound(sorted.begin(), sorted.end(), key,
                         [](std::uint64_t k, const emsplit::Record& r) {
                           return k < r.key;
                         }) -
        sorted.begin());
  }

  /// #records with key in (lo, hi].
  [[nodiscard]] std::uint64_t count(std::uint64_t lo, std::uint64_t hi) const {
    return hi > lo ? rank(hi) - rank(lo) : 0;
  }

  /// The wire reply to "TOPK k" (largest) or "TOPK k MIN".
  [[nodiscard]] std::string topk_reply(std::uint64_t k, bool largest) const {
    const std::size_t first = largest ? sorted.size() - k : 0;
    std::string s = "OK " + std::to_string(k) + "\n";
    for (std::size_t i = first; i < first + k; ++i) {
      s += "REC " + std::to_string(sorted[i].key) + " " +
           std::to_string(sorted[i].payload) + "\n";
    }
    return s + "END\n";
  }

  /// Check a "HIST k" reply: k buckets, total N, increasing boundary keys,
  /// and every bucket's size exactly the count between its boundaries.
  [[nodiscard]] bool hist_reply_ok(const std::string& text,
                                   std::uint64_t k) const {
    std::istringstream in(text);
    std::string word;
    std::uint64_t nb = 0, total = 0;
    if (!(in >> word >> nb >> total) || word != "OK" || nb != k ||
        total != sorted.size()) {
      return false;
    }
    std::uint64_t prev = 0, sum = 0;
    for (std::uint64_t i = 0; i < nb; ++i) {
      std::uint64_t size = 0;
      if (!(in >> word >> size) || word != "BUCKET") return false;
      std::uint64_t key = ~0ULL;  // the last bucket is open above
      if (i + 1 < nb && !(in >> key)) return false;
      if (i > 0 && key <= prev) return false;
      if (size != (i == 0 ? rank(key) : count(prev, key))) return false;
      sum += size;
      prev = key;
    }
    return (in >> word) && word == "END" && !(in >> word) &&
           sum == sorted.size();
  }

  /// Exact ranks of a splitters answer: splitter i has exactly bounds[i + 1]
  /// records at or below it (the partitioning of the same spec cuts there).
  [[nodiscard]] bool splitter_ranks_ok(
      const std::vector<emsplit::Record>& splitters,
      const std::vector<std::uint64_t>& bounds) const {
    if (bounds.size() != splitters.size() + 2) return false;
    for (std::size_t i = 0; i < splitters.size(); ++i) {
      const auto r = static_cast<std::uint64_t>(
          std::upper_bound(sorted.begin(), sorted.end(), splitters[i]) -
          sorted.begin());
      if (r != bounds[i + 1]) return false;
    }
    return true;
  }
};

}  // namespace emsbench
