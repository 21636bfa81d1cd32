// Measurement plumbing shared by every perfbench workload: clocks,
// process counters (getrusage and /proc), order statistics, the span
// recorder behind the traced run, and the result line.
//
// Nothing here reaches into topocon: spans are recorded at the
// benchmark's own call boundaries and at api::Observer callbacks only.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// getrusage(RUSAGE_SELF) snapshot; subtract two to get a delta.
struct Usage {
  double cpu_s = 0;
  double minflt = 0;
  double nivcsw = 0;
};
Usage self_usage();
/// The same counters for another process, all threads summed, from
/// /proc/<pid>/stat and /proc/<pid>/task/*/status.
Usage process_usage(pid_t pid);
Usage operator-(const Usage& a, const Usage& b);

/// VmRSS and VmHWM of a process (0 = this process), in MiB. Throws
/// std::runtime_error when /proc/<pid>/status cannot be read.
struct Memory {
  double rss_mib = 0;
  double hwm_mib = 0;
};
Memory read_memory(pid_t pid = 0);

/// Heap bytes this process has allocated and not freed (all malloc
/// arenas plus mmapped chunks), in MiB.
double heap_in_use_mib();

/// Returns freed heap to the kernel, then resets this process's VmHWM to
/// its current VmRSS (/proc/self/clear_refs), so the next read_memory()
/// reports the peak of what runs in between. Returns false when the reset
/// is not permitted (VmHWM then stays the lifetime peak).
bool reset_peak_memory();

/// Order statistics; the input must be non-empty.
double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q);

/// One traced interval. `parent` indexes the recorder's span list (-1 =
/// root); `request` groups the spans of one serve request (-1 = none);
/// `thread` numbers the recording threads from 1 in first-use order.
struct Span {
  std::string name;
  std::string layer;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  std::int64_t request = -1;
  int thread = 0;
};

/// In-memory span list, written out only at exit. Thread-safe. A
/// disabled recorder records nothing and costs one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Appends a finished span and returns its index (-1 when disabled).
  int add(std::string name, std::string layer, Clock::time_point start,
          Clock::time_point end, int parent = -1, std::int64_t request = -1);

  /// Wall time spent inside add() so far: the recorder's own overhead.
  double recording_seconds() const;

  /// Self time per layer: each span's duration minus the part of it its
  /// child spans cover, summed by layer.
  std::vector<std::pair<std::string, double>> self_seconds_by_layer() const;

  /// Chrome Trace Event JSON ("ph":"X", microseconds from the first span).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> threads_;
  double recording_seconds_ = 0;
};

/// What the benchmark prints: every metric by name and unit, plus the
/// outcome of its correctness checks.
class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  /// Counts one checked operation; `ok == false` records a failure and
  /// prints `what` to stderr.
  void check(bool ok, const std::string& what);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// stderr: one aligned line per metric plus failed_frac;
  /// stdout: the result object as the last line.
  void print(std::ostream& human, std::ostream& machine) const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
