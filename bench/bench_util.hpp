// bench_util.hpp — shared infrastructure for the experiment binaries.
//
// Every experiment binary (E1-E9 and E11-E17, see DESIGN.md §3) measures
// *exact* I/O counts on a MemoryBlockDevice and prints one table: the sweep
// parameters, the measured I/Os, the value of the paper's bound formula,
// their ratio (shape validation: the ratio must stay within a constant band
// across the sweep), and reference costs (full scan, full sort).
// EXPERIMENTS.md records these tables against the paper's claims.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/api.hpp"

namespace emsplit::bench {

/// Machine geometry for one experiment.
struct Geometry {
  std::size_t block_bytes = 4096;  ///< B = 256 records of 16 bytes
  std::size_t mem_blocks = 32;     ///< M = 8192 records (131072 bytes)

  [[nodiscard]] std::size_t mem_bytes() const {
    return block_bytes * mem_blocks;
  }
};

/// A device + context pair for one measurement run.
struct Env {
  explicit Env(const Geometry& g)
      : dev(g.block_bytes), ctx(dev, g.mem_bytes()) {}

  MemoryBlockDevice dev;
  Context ctx;

  [[nodiscard]] std::size_t b() const { return ctx.block_records<Record>(); }
  [[nodiscard]] std::size_t m() const { return ctx.mem_records<Record>(); }
};

/// Measure the I/Os of `fn` on a fresh stats window.
template <typename Fn>
std::uint64_t measure(Env& env, Fn&& fn) {
  env.dev.reset_stats();
  env.ctx.budget().reset_peak();
  fn();
  return env.dev.stats().total();
}

inline void print_header(const char* exp_id, const char* claim,
                         const Geometry& g) {
  const double b = static_cast<double>(g.block_bytes) / sizeof(Record);
  const double m = static_cast<double>(g.mem_bytes()) / sizeof(Record);
  std::printf("# %s\n# claim: %s\n", exp_id, claim);
  std::printf("# geometry: B = %.0f records/block, M = %.0f records (M/B = %.0f)\n",
              b, m, m / b);
}

inline void print_columns(const std::vector<std::string>& cols) {
  std::printf("#");
  for (const auto& c : cols) std::printf(" %12s", c.c_str());
  std::printf("\n");
}

inline void print_row(const std::vector<double>& vals) {
  std::printf(" ");
  for (const double v : vals) {
    if (v == std::floor(v) && std::fabs(v) < 1e12) {
      std::printf(" %12.0f", v);
    } else {
      std::printf(" %12.3f", v);
    }
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// The paper's bound formulas (Table 1), in I/O units.  lg_x(y) follows the
// paper's convention lg = max{1, log}.
// ---------------------------------------------------------------------------

using formulas::lg_clamped;
using formulas::sort_ios;

/// E1 upper bound: (1 + aK/B) lg_{M/B}(K/B).
inline double splitters_right_ios(double n, double m, double b, double k,
                                  double a) {
  (void)n;
  return (1.0 + a * k / b) * lg_clamped(m / b, k / b);
}

/// E2: (N/B) lg_{M/B}(N/(bB)).
inline double splitters_left_ios(double n, double m, double b, double k,
                                 double bb) {
  (void)k;
  return (n / b) * lg_clamped(m / b, n / (bb * b));
}

/// E3: (aK/B) lg_{M/B}(K/B) + (N/B) lg_{M/B}(N/(bB)).
inline double splitters_two_sided_ios(double n, double m, double b, double k,
                                      double a, double bb) {
  return splitters_right_ios(n, m, b, k, a) +
         splitters_left_ios(n, m, b, k, bb);
}

/// E4: N/B + (aK/B) lg_{M/B} min{K, aK/B}.
inline double partitioning_right_ios(double n, double m, double b, double k,
                                     double a) {
  return n / b +
         (a * k / b) * lg_clamped(m / b, std::min(k, a * k / b));
}

/// E5: (N/B) lg_{M/B} min{N/b', N/B}.
inline double partitioning_left_ios(double n, double m, double b, double bb) {
  return (n / b) * lg_clamped(m / b, std::min(n / bb, n / b));
}

/// E6: sum of the right and left shapes.
inline double partitioning_two_sided_ios(double n, double m, double b,
                                         double k, double a, double bb) {
  return (a * k / b) * lg_clamped(m / b, std::min(k, a * k / b)) +
         partitioning_left_ios(n, m, b, bb);
}

/// Theorem 4: (N/B) lg_{M/B}(K/B).
inline double multi_select_ios(double n, double m, double b, double k) {
  return (n / b) * lg_clamped(m / b, k / b);
}

/// Aggarwal–Vitter: (N/B) lg_{M/B} K.
inline double multi_partition_ios(double n, double m, double b, double k) {
  return (n / b) * lg_clamped(m / b, k);
}

}  // namespace emsplit::bench
