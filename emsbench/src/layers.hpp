// layers.hpp — fold the library's own pass records into per-module figures.
//
// Self time and self I/O per pass label come from a PhaseProfile whose
// counter source is a PhaseClock (instruments.hpp); worker-round figures come
// from the PassTraceLog rows of distributed passes.  Labels map to the
// library's modules by their job prefix:
//
//   select     msel/, msel-base/, intermixed/, splitters/
//   partition  mpart/ (except run formation)
//   sort       sort/, dsort/, and every */dist-runs run-formation pass
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "common.hpp"
#include "em/pass_engine.hpp"
#include "em/phase_profile.hpp"

namespace emsbench {

struct LayerTotals {
  double select_s = 0, partition_s = 0, sort_s = 0;
  std::uint64_t select_ios = 0, partition_ios = 0, sort_ios = 0;
  std::uint64_t dist_rounds = 0;
  double dist_busy_s = 0, dist_barrier_s = 0;
  double round_max_s = 0, round_mean_s = 0;  ///< imbalance numerator/denominator

  void add_profile(const emsplit::PhaseProfile& profile) {
    for (const auto& [label, io] : profile.rows()) {
      // PhaseClock: reads = self nanoseconds, writes = self block I/Os.
      const double s = static_cast<double>(io.reads) * 1e-9;
      const std::uint64_t ios = io.writes;
      const std::string job = label.substr(0, label.find('/'));
      const bool runs = label.size() >= 10 &&
                        label.compare(label.size() - 10, 10, "/dist-runs") == 0;
      if (runs || job == "sort" || job == "dsort") {
        sort_s += s;
        sort_ios += ios;
      } else if (job == "msel" || job == "msel-base" || job == "intermixed" ||
                 job == "splitters") {
        select_s += s;
        select_ios += ios;
      } else if (job == "mpart") {
        partition_s += s;
        partition_ios += ios;
      }
    }
  }

  void add_passes(const emsplit::PassTraceLog& log) {
    for (const emsplit::PassTrace& row : log.rows()) {
      // Worker rows arrive round by round, workers in ascending order.
      std::size_t i = 0;
      while (i < row.worker_io.size()) {
        double mx = 0, sum = 0;
        std::size_t n = 0;
        std::size_t prev = 0;
        for (; i < row.worker_io.size(); ++i) {
          const emsplit::PassWorkerIo& w = row.worker_io[i];
          if (n > 0 && w.worker <= prev) break;
          prev = w.worker;
          mx = std::max(mx, w.seconds);
          sum += w.seconds;
          dist_busy_s += w.seconds;
          dist_barrier_s += w.barrier_seconds;
          ++n;
        }
        ++dist_rounds;
        round_max_s += mx;
        round_mean_s += sum / static_cast<double>(n);
      }
    }
  }

  /// Report every module figure, each divided by `units` (jobs or rounds).
  void report(Report& r, double units) const {
    const double u = units > 0 ? units : 1;
    r.set("select.s", select_s / u);
    r.set("select.ios", static_cast<double>(select_ios) / u);
    r.set("partition.s", partition_s / u);
    r.set("partition.ios", static_cast<double>(partition_ios) / u);
    r.set("sort.s", sort_s / u);
    r.set("sort.ios", static_cast<double>(sort_ios) / u);
    r.set("dist.rounds", static_cast<double>(dist_rounds) / u);
    r.set("dist.busy_s", dist_busy_s / u);
    r.set("dist.barrier_s", dist_barrier_s / u);
    r.set("dist.imbalance", round_mean_s > 0 ? round_max_s / round_mean_s : 0);
  }
};

}  // namespace emsbench
