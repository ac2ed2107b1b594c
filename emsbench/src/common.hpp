// common.hpp — shared plumbing of the emsplit benchmark: clock, percentiles,
// resident-memory probes, seeded inputs, the metric sink and its JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/record.hpp"

namespace emsbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile q in [0, 1] of `v` with linear interpolation between closest
/// ranks (the "type 7" estimator numpy uses by default).  Reorders `v`.
/// Empty input gives 0.
[[nodiscard]] double quantile(std::vector<double>& v, double q);

/// Median of `v` (copied, so the caller's order survives).
[[nodiscard]] double median(std::vector<double> v);

/// Current resident set size of this process, in bytes.
[[nodiscard]] std::uint64_t rss_bytes();

/// Peak resident set size since the last reset_peak_rss(), in bytes.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Restart the kernel's peak-RSS tracking at the current RSS.
void reset_peak_rss();

/// `n` records with distinct keys drawn from a seeded bijection (so every
/// seed gives another key set and another order) and payload = position.
[[nodiscard]] std::vector<emsplit::Record> make_records(std::size_t n,
                                                        std::uint64_t seed);

/// Write records as a flat record file.
void write_records(const std::string& path,
                   const std::vector<emsplit::Record>& recs);

/// fsync `path` and evict its pages from the page cache
/// (posix_fadvise(DONTNEED)), so the next read pays the device.
void evict_file(const std::string& path);

/// Create a directory (and its parents); remove a tree.
void make_dirs(const std::string& path);
void remove_tree(const std::string& path);

/// What one run reports.  Metric units live in main.cpp's tables, which
/// mirror BENCHMARK.json.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// Sizes and switches of one run, fixed per workload (see BENCHMARK.json).
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;  ///< scratch directory for this run's files
};

Report run_batch(const RunArgs& args);
Report run_serve(const RunArgs& args);
int run_selftest(const std::string& dir);

}  // namespace emsbench
