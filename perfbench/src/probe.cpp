#include "probe.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Usage self_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return Usage{secs(usage.ru_utime) + secs(usage.ru_stime),
               static_cast<double>(usage.ru_minflt),
               static_cast<double>(usage.ru_nivcsw)};
}

Usage process_usage(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid);
  std::ifstream stat(dir + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const std::size_t comm_end = text.rfind(')');
  if (!stat || comm_end == std::string::npos) {
    throw std::runtime_error("cannot read " + dir + "/stat");
  }
  // Fields after the command name, starting at field 3 (state).
  std::istringstream fields(text.substr(comm_end + 2));
  std::vector<std::string> field;
  for (std::string f; fields >> f;) field.push_back(f);
  if (field.size() < 13) throw std::runtime_error(dir + "/stat is short");
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  Usage usage;
  usage.minflt = std::stod(field[7]);                                 // 10
  usage.cpu_s = (std::stod(field[11]) + std::stod(field[12])) / ticks;  // 14, 15
  for (const auto& task :
       std::filesystem::directory_iterator(dir + "/task")) {
    std::ifstream status(task.path() / "status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
        usage.nivcsw += std::stod(line.substr(line.find(':') + 1));
      }
    }
  }
  return usage;
}

Usage operator-(const Usage& a, const Usage& b) {
  return Usage{a.cpu_s - b.cpu_s, a.minflt - b.minflt, a.nivcsw - b.nivcsw};
}

Memory read_memory(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Memory memory;
  bool have_rss = false;
  bool have_hwm = false;
  std::string line;
  while (std::getline(in, line)) {
    const auto kib = [&line]() {
      return std::stod(line.substr(line.find(':') + 1)) / 1024.0;
    };
    if (line.rfind("VmRSS:", 0) == 0) {
      memory.rss_mib = kib();
      have_rss = true;
    } else if (line.rfind("VmHWM:", 0) == 0) {
      memory.hwm_mib = kib();
      have_hwm = true;
    }
  }
  if (!have_rss || !have_hwm) {
    throw std::runtime_error(path + " has no VmRSS/VmHWM");
  }
  return memory;
}

double heap_in_use_mib() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1048576.0;
}

bool reset_peak_memory() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

int SpanRecorder::add(std::string name, std::string layer,
                      Clock::time_point start, Clock::time_point end,
                      int parent, std::int64_t request) {
  if (!enabled_) return -1;
  const Clock::time_point entered = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  const int thread =
      threads_.try_emplace(std::this_thread::get_id(), threads_.size() + 1)
          .first->second;
  spans_.push_back(Span{std::move(name), std::move(layer), start, end,
                        parent, request, thread});
  const int index = static_cast<int>(spans_.size()) - 1;
  recording_seconds_ += seconds_between(entered, Clock::now());
  return index;
}

double SpanRecorder::recording_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recording_seconds_;
}

std::vector<std::pair<std::string, double>>
SpanRecorder::self_seconds_by_layer() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    for (const int c : children[i]) {
      const Span& child = spans_[static_cast<std::size_t>(c)];
      covered.emplace_back(std::max(child.start, span.start),
                           std::min(child.end, span.end));
    }
    std::sort(covered.begin(), covered.end());
    double covered_s = 0;
    Clock::time_point reach = span.start;
    for (const auto& [start, end] : covered) {
      const Clock::time_point from = std::max(start, reach);
      if (end > from) {
        covered_s += seconds_between(from, end);
        reach = end;
      }
    }
    by_layer[span.layer] += seconds_between(span.start, span.end) - covered_s;
  }
  return {by_layer.begin(), by_layer.end()};
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& span : spans_) origin = std::min(origin, span.start);
  const auto micros = [&origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << std::fixed << std::setprecision(3)
        << "{\"name\":\"" << span.name << "\",\"cat\":\"" << span.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
        << ",\"ts\":" << micros(span.start)
        << ",\"dur\":" << micros(span.end) - micros(span.start)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}}";
  }
  out << "\n]}\n";
}

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

bool Result::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&name](const Metric& m) { return m.name == name; });
}

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

void Result::print(std::ostream& human, std::ostream& machine) const {
  const double failed_frac =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  for (const Metric& metric : metrics_) {
    human << std::left << std::setw(28) << metric.name << std::right
          << std::setw(18) << std::setprecision(6) << metric.value << " "
          << metric.unit << "\n";
  }
  human << std::left << std::setw(28) << "failed_frac" << std::right
        << std::setw(18) << failed_frac << " frac (" << failed_ << " of "
        << attempted_ << ")\n";

  std::ostringstream line;
  line << std::setprecision(17) << "{\"correct\": "
       << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    line << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
         << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
  }
  line << "}}\n";
  machine << line.str() << std::flush;
}

}  // namespace perfbench
