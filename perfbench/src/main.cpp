// perfbench: runs one named topocon workload and prints its
// metrics. Usually started through perfbench/run.py, which builds this
// binary and topocon from the checkout first:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --topocon PATH --out-dir DIR
//
// The last line of stdout is the result object; everything else goes to
// stderr. Exit code 0 means the run completed (correct or not); any
// setup or I/O failure exits 1 without a result line.
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>

#include "workloads.hpp"

namespace {

using perfbench::Result;

/// Per-layer metrics with their units; a traced run reports all of them
/// (a layer a workload never enters reports 0).
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"sweep.expand_s", "s"},
    {"sweep.tail_s", "s"},
    {"sweep.budget_retry_s", "s"},
    {"sweep.abort_s", "s"},
    {"sweep.certify_s", "s"},
    {"sweep.shallow_s", "s"},
    {"sweep.chunks", "count"},
    {"sweep.levels", "count"},
    {"core.components_s", "s"},
    {"core.table_build_s", "s"},
    {"core.bytes_per_leaf", "B"},
    {"core.leaf_classes", "count"},
    {"core.table_entries", "count"},
    {"ptg.views_interned", "count"},
    {"api.dispatch_s", "s"},
    {"api.return_s", "s"},
    {"scenario.render_s", "s"},
    {"service.accept_ms", "ms"},
    {"service.exec_ms", "ms"},
    {"service.parse_us", "us"},
    {"service.cache_key_us", "us"},
    {"service.render_artifact_us", "us"},
    {"service.cache_hit_frac", "frac"},
    {"service.rss_per_submit_kib", "KiB"},
    {"service.rtt_samples", "count"},
    {"proc.cpu_s", "s"},
    {"proc.parallelism", "ratio"},
    {"proc.minflt", "count"},
    {"proc.nivcsw", "count"},
    {"trace.overhead_frac", "frac"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --topocon PATH --out-dir DIR\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--topocon") {
        options.topocon = value;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else if (flag == "--setup-only") {
        options.setup_only = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag);
    }
  }
  if (argc % 2 == 0) usage("flags come in pairs");
  if (options.workload.empty() || options.seconds < 1 ||
      options.out_dir.empty()) {
    usage("missing flags");
  }

  perfbench::SpanRecorder spans(options.trace);
  Result result;
  try {
    if (options.setup_only && perfbench::is_batch_workload(options.workload)) {
      perfbench::run_batch_setup_only(options);
      return 0;
    }
    if (perfbench::is_batch_workload(options.workload)) {
      perfbench::run_batch(options, spans, result);
    } else if (options.workload == "serve-mix") {
      perfbench::run_serve_mix(options, spans, result);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << ": " << e.what()
              << "\n";
    return 1;
  }

  if (options.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      if (!result.has(name)) result.add(name, 0.0, unit);
    }
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    spans.write_chrome_trace(path);
    std::cerr << "self time by layer (" << path << "):\n";
    for (const auto& [layer, seconds] : spans.self_seconds_by_layer()) {
      std::cerr << "  " << std::left << std::setw(12) << layer << std::right
                << std::setw(14) << std::setprecision(6) << seconds
                << " s\n";
    }
  }
  result.print(std::cerr, std::cout);
  return 0;
}
