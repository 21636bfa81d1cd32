// The perfbench workloads. Each one sets up, runs its timed region,
// checks every output outside that region, and fills the Result with
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). See perfbench/README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <string>

#include "probe.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// The topocon CLI binary (serve-mix spawns `topocon serve`).
  std::string topocon;
  /// Scratch directory inside the checkout: sockets and trace files.
  std::string out_dir;
  /// Set up, report the time, exit (see run_batch_setup_only).
  bool setup_only = false;
};

/// Batch session threads, and the serve daemon's pool size (daemon and
/// its one client connection share a single CPU; see serve_mix.cpp).
inline constexpr int kBatchThreads = 4;
inline constexpr int kServeThreads = 1;

bool is_batch_workload(const std::string& name);

/// n4-cert, n4-limit, n5-table.
void run_batch(const Options& options, SpanRecorder& spans, Result& result);

/// The child side of a batch setup_s sample: sets up like run_batch,
/// prints the steady-clock time (ns) when done, and returns.
void run_batch_setup_only(const Options& options);

/// serve-mix.
void run_serve_mix(const Options& options, SpanRecorder& spans,
                   Result& result);

}  // namespace perfbench
