// main.cpp — emsbench: the emsplit benchmark.
//
//   emsbench --workload <batch_cold|serve_hot|serve_refresh> --seed <n>
//            --seconds <s> --trace <0|1> [--dir <scratch dir>]
//   emsbench --selftest [--dir <scratch dir>]
//
// Prints progress on stderr and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  Exits non-zero, without
// a result line, when the run cannot be measured.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace {

using emsbench::Report;

/// Metric names and units, as BENCHMARK.json lists them.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},          {"p50_ms", "ms"},      {"p90_ms", "ms"},
    {"block_ios", "blocks/op"}, {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"core.splitters_s", "s"},
    {"core.partition_s", "s"},
    {"em.device.read_s", "s"},
    {"em.device.write_s", "s"},
    {"em.device.us_per_block", "us"},
    {"em.device.blocks_per_call", "blocks"},
    {"em.device.reads", "blocks"},
    {"em.compute_s", "s"},
    {"em.budget.peak_frac", "ratio"},
    {"select.s", "s"},
    {"select.ios", "blocks"},
    {"partition.s", "s"},
    {"partition.ios", "blocks"},
    {"sort.s", "s"},
    {"sort.ios", "blocks"},
    {"dist.rounds", "count"},
    {"dist.busy_s", "s"},
    {"dist.barrier_s", "s"},
    {"dist.imbalance", "ratio"},
    {"service.server.qps", "1/s"},
    {"service.server.p99_ms", "ms"},
    {"service.server.rtt_us", "us"},
    {"service.server.query_us", "us"},
    {"service.server.frontend_us", "us"},
    {"service.server.trace_bytes", "bytes"},
    {"service.server.admission_wait_ms", "ms"},
    {"service.server.shed", "count"},
    {"service.server.retire_waits", "count"},
    {"service.server.refresh_build_s", "s"},
    {"service.server.refresh_s", "s"},
    {"service.index.rank_us", "us"},
    {"service.index.range_us", "us"},
    {"service.index.topk_us", "us"},
    {"service.index.hist_us", "us"},
    {"service.index.reads_per_query", "blocks"},
    {"service.index.bucket_cache.hit_ratio", "ratio"},
    {"service.index.bucket_cache.misses", "count"},
    {"service.index.bucket_cache.coalesced", "count"},
    {"trace.overhead_pct", "%"},
};

/// The result line: exactly the declared metrics, each with its unit and
/// every digit of its value.  A layer a workload does not exercise reports
/// 0; a missing end-to-end metric is an error ("" returned).
std::string result_json(const Report& r, bool trace) {
  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : trace ? kPerLayer : kEndToEnd) {
    const auto it = r.metrics.find(name);
    if (it == r.metrics.end() && !trace) {
      std::fprintf(stderr, "emsbench: metric %s missing\n", name);
      return "";
    }
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name, std::isfinite(v) ? v : 0.0, unit);
    out += buf;
    first = false;
  }
  return out + "}}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "emsbench: %s\n"
               "usage: emsbench --workload W --seed N --seconds S --trace 0|1 "
               "[--dir D]\n"
               "       emsbench --selftest [--dir D]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  emsbench::RunArgs args;
  args.dir = ".bench_build/run-" + std::to_string(::getpid());
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        args.workload = value();
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        args.trace = std::stoi(value()) != 0;
      } else if (a == "--dir") {
        args.dir = value();
      } else if (a == "--selftest") {
        selftest = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }

  emsbench::make_dirs(args.dir);
  if (selftest) {
    const int rc = emsbench::run_selftest(args.dir);
    emsbench::remove_tree(args.dir);
    return rc;
  }
  if (args.seconds <= 0) usage("--seconds must be positive");

  Report report;
  try {
    if (args.workload == "batch_cold") {
      report = emsbench::run_batch(args);
    } else if (args.workload == "serve_hot" || args.workload == "serve_refresh") {
      report = emsbench::run_serve(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "emsbench: %s: %s\n", args.workload.c_str(), ex.what());
    emsbench::remove_tree(args.dir);
    return 1;
  }
  emsbench::remove_tree(args.dir);
  const std::string line = result_json(report, args.trace);
  if (line.empty()) return 1;
  std::printf("%s\n", line.c_str());
  return 0;
}
