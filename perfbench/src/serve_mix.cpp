// serve-mix: a seeded closed loop over one connection to a `topocon
// serve --threads=1` daemon, daemon and client sharing one CPU.
//
// The request list is a pure function of --seed and --seconds, fixed
// before the daemon starts, so two commits do identical work. The
// connection submits, in a seeded order:
//   * fresh fuzz-composed plans (n in {2,3}, 1-4 points, a fixed mix of
//     shapes) whose memo keys
//     are new to the daemon: cache misses that insert, and -- past
//     kCacheEntries -- evict;
//   * kRepeatShare repeats of one of the last kRepeatWindow distinct
//     plans: cache hits by construction (the entry cannot have been
//     evicted in between);
//   * a few fresh decision-tables / atlas scenario submits.
// The daemon's `stats` hit count over the timed loop must equal the
// designed repeat count exactly, and every artifact must be byte-equal to
// render_artifact of the same plan run in a fresh in-process Session.
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/api.hpp"
#include "runtime/sweep/json.hpp"
#include "scenario/scenario.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace topocon;

/// Submits per second at the commit that introduced the benchmark;
/// sizes the fixed list from --seconds.
constexpr double kRate = 450;
constexpr int kWarmup = 200;
constexpr int kRepeatWindow = 8;
constexpr double kRepeatShare = 0.25;
constexpr int kAtlas = 2;
constexpr int kTables = 8;
constexpr int kSetupRepetitions = 5;
constexpr int kCacheEntries = 256;
/// The timed loop is cut into this many equal time windows; rates and
/// latency percentiles are medians over the windows, so a burst of host
/// noise in one window does not move them.
constexpr int kWindows = 8;
/// Daemon and client run on one CPU at a time and move to the next CPU
/// this many times per request list (see run_serve_mix).
constexpr std::size_t kCpuSegments = 16;

struct Request {
  std::string line;
  std::size_t plan = 0;  // index into Workload::plans
  bool repeat = false;
};

struct Workload {
  /// Distinct plans of the timed list, in first-use order.
  std::vector<api::Plan> plans;
  std::vector<Request> warmup;
  std::vector<Request> timed;
  std::size_t repeats = 0;
};

std::string submit_line(const std::string& scenario,
                        const scenario::GridOverrides& o) {
  std::ostringstream out;
  sweep::JsonWriter writer(out, sweep::JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "submit");
  writer.member("scenario", scenario);
  if (o.n) writer.member("n", *o.n);
  if (o.param_min) writer.member("param_min", *o.param_min);
  if (o.param_max) writer.member("param_max", *o.param_max);
  if (o.seed) writer.member("seed", *o.seed);
  if (o.count) writer.member("count", *o.count);
  writer.end_object();
  return out.str();
}

/// Seeded request-list generator. Draws map to choices by plain modulus
/// over std::mt19937_64, so a seed means the same list everywhere.
class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}

  Workload build(int submits) {
    Workload w;
    for (int i = 0; i < kWarmup; ++i) w.warmup.push_back(fresh_fuzz(nullptr));
    std::vector<Request> atlas = scenario_pool(&w, "atlas", kAtlas);
    std::vector<Request> tables =
        scenario_pool(&w, "decision-tables", kTables);
    const int repeats = static_cast<int>(kRepeatShare * submits + 0.5);
    enum Slot { kFreshSlot, kRepeatSlot, kAtlasSlot, kTablesSlot };
    // The first kRepeatWindow slots are fresh so repeats have origins.
    std::vector<Slot> slots(static_cast<std::size_t>(submits - kRepeatWindow),
                            kFreshSlot);
    std::fill_n(slots.begin(), repeats, kRepeatSlot);
    std::fill_n(slots.begin() + repeats, kAtlas, kAtlasSlot);
    std::fill_n(slots.begin() + repeats + kAtlas, kTables, kTablesSlot);
    shuffle(slots);
    slots.insert(slots.begin(), kRepeatWindow, kFreshSlot);
    std::vector<Request> distinct;  // the non-repeats so far
    for (const Slot slot : slots) {
      Request request;
      if (slot == kRepeatSlot) {
        request = distinct[distinct.size() - 1 - draw(kRepeatWindow)];
        request.repeat = true;
        ++w.repeats;
      } else {
        request = slot == kFreshSlot   ? fresh_fuzz(&w)
                  : slot == kAtlasSlot ? take(atlas)
                                       : take(tables);
        distinct.push_back(request);
      }
      w.timed.push_back(request);
    }
    return w;
  }

 private:
  std::size_t draw(std::size_t bound) { return rng_() % bound; }

  template <class T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[draw(i)]);
    }
  }

  static Request take(std::vector<Request>& pool) {
    Request request = pool.back();
    pool.pop_back();
    return request;
  }

  /// Expands the submit in-process; nullopt when it is invalid, empty, or
  /// its memo key was already used (it would not be a miss).
  std::optional<Request> admit(Workload* w, const std::string& name,
                               const scenario::GridOverrides& overrides) {
    api::Plan plan;
    try {
      plan = scenario::expand_scenario(*scenario::find_scenario(name),
                                       overrides);
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
    if (plan.queries.empty() ||
        !keys_.insert(service::plan_cache_key(plan)).second) {
      return std::nullopt;
    }
    Request request{submit_line(name, overrides), 0, false};
    if (w != nullptr) {
      request.plan = w->plans.size();
      w->plans.push_back(std::move(plan));
    }
    return request;
  }

  /// The next fresh fuzz-composed submit. Plan shapes (n, count) come
  /// round-robin from kShapes in seeded order within each round, so
  /// every seed submits the same mix of shapes; only the fuzzer seed is
  /// redrawn when a plan's key was already used.
  Request fresh_fuzz(Workload* w) {
    if (shape_order_.empty()) {
      for (std::size_t i = 0; i < std::size(kShapes); ++i) {
        shape_order_.push_back(i);
      }
      shuffle(shape_order_);
    }
    const auto [n, count] = kShapes[shape_order_.back()];
    shape_order_.pop_back();
    for (int attempt = 0; attempt < 1000; ++attempt) {
      scenario::GridOverrides o;
      o.n = n;
      o.count = count;
      o.seed = rng_();
      if (auto request = admit(w, "fuzz-composed", o)) return *request;
    }
    throw std::runtime_error("fuzz-composed plans exhausted");
  }

  /// `count` distinct fresh submits of a scenario, drawn from its
  /// override grid in seeded order.
  std::vector<Request> scenario_pool(Workload* w, const std::string& name,
                                     int count) {
    std::vector<scenario::GridOverrides> grid;
    const auto add = [&grid](std::optional<int> n, int lo, int hi) {
      scenario::GridOverrides overrides;
      overrides.n = n;
      overrides.param_min = lo;
      overrides.param_max = hi;
      grid.push_back(overrides);
    };
    if (name == "atlas") {
      for (const int n : {2, 3}) {
        for (int p = 0; p <= 7; ++p) add(n, p, p);
      }
    } else {
      for (int lo = 1; lo <= 7; ++lo) {
        for (int hi = lo; hi <= 7; ++hi) add(std::nullopt, lo, hi);
      }
    }
    shuffle(grid);
    std::vector<Request> pool;
    for (const auto& overrides : grid) {
      if (static_cast<int>(pool.size()) == count) break;
      if (auto request = admit(w, name, overrides)) pool.push_back(*request);
    }
    if (static_cast<int>(pool.size()) != count) {
      throw std::runtime_error("too few distinct " + name + " submits");
    }
    return pool;
  }

  /// (n, count) of fresh plans; n = 2 single points are few, so n = 2
  /// plans carry at least two.
  static constexpr std::pair<int, int> kShapes[] = {
      {2, 2}, {2, 3}, {2, 4}, {3, 1}, {3, 2}, {3, 3}, {3, 4}};

  std::mt19937_64 rng_;
  std::set<std::string> keys_;
  std::vector<std::size_t> shape_order_;
};

/// A `topocon serve` child process; the destructor stops it if it still
/// runs and always reaps it.
class Daemon {
 public:
  Daemon(const std::string& topocon, const std::string& socket)
      : socket_(socket) {
    ::unlink(socket.c_str());
    const std::vector<std::string> args = {
        topocon,
        "serve",
        "--socket=" + socket,
        "--threads=" + std::to_string(kServeThreads),
        "--queue-limit=16",
        "--cache-entries=" + std::to_string(kCacheEntries),
        "--cache-mb=256",
        "--quiet"};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(2, 1);  // the result line owns our stdout
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      ::waitpid(pid_, nullptr, 0);
    }
    ::unlink(socket_.c_str());
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  /// Connects once the socket accepts, within 30 s.
  std::unique_ptr<service::ServeClient> connect() {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("topocon serve exited early");
      }
      try {
        return std::make_unique<service::ServeClient>(socket_);
      } catch (const std::runtime_error&) {
        if (Clock::now() > deadline) throw;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Clean shutdown over `client`, then reap.
  void stop(service::ServeClient& client) {
    client.send_line(R"({"op":"shutdown"})");
    client.read_line();  // bye
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// Keeps the calling thread -- and so the daemon it starts -- on one CPU
/// at a time, starting from the first CPU the benchmark may use;
/// restores the calling thread's CPU set when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
    }
    pin(0);
  }
  ~CpuRotation() { ::sched_setaffinity(0, sizeof saved_, &saved_); }

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves the calling thread and every thread of `daemon` to the next
  /// CPU, round-robin.
  void next(pid_t daemon) {
    slot_ = (slot_ + 1) % cpus_.size();
    pin(0);
    const std::string tasks = "/proc/" + std::to_string(daemon) + "/task";
    for (const auto& task : std::filesystem::directory_iterator(tasks)) {
      pin(static_cast<pid_t>(std::stol(task.path().filename().string())));
    }
  }

 private:
  void pin(pid_t tid) const {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot_], &one);
    // ESRCH: the thread exited after the task listing.
    if (::sched_setaffinity(tid, sizeof one, &one) != 0 && errno != ESRCH) {
      throw std::runtime_error("sched_setaffinity failed");
    }
  }

  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t slot_ = 0;
};

struct Sample {
  /// Completion time, seconds after the loop started.
  double done_s = 0;
  double rtt_ms = 0;
  double accept_ms = 0;
  double exec_ms = 0;
  bool cached = false;
  bool ok = false;
  std::string artifact;
};

/// The closed loop: send, wait for the whole answer, repeat. Client and
/// daemon move to the next CPU kCpuSegments times over the list, between
/// submits. `error` and `overloaded` frames count as failed samples.
std::vector<Sample> drive(service::ServeClient& client, const Daemon& daemon,
                          CpuRotation& cpus, const std::vector<Request>& list,
                          bool keep_artifacts, SpanRecorder& spans) {
  const Clock::time_point origin = Clock::now();
  const std::size_t segment =
      std::max<std::size_t>(1, list.size() / kCpuSegments);
  std::vector<Sample> samples(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i > 0 && i % segment == 0) cpus.next(daemon.pid());
    Sample& s = samples[i];
    const Clock::time_point sent = Clock::now();
    client.send_line(list[i].line);
    sweep::JsonValue frame = sweep::JsonReader::parse(client.read_line());
    Clock::time_point accepted = Clock::now();
    Clock::time_point answered = accepted;
    if (frame.at("op").as_string() == "accepted") {
      s.cached = frame.at("cached").as_bool();
      frame = sweep::JsonReader::parse(client.read_line());
      answered = Clock::now();
      if (frame.at("op").as_string() == "result") {
        std::string artifact =
            client.read_bytes(frame.at("artifact_bytes").as_uint());
        s.ok = true;
        if (keep_artifacts) s.artifact = std::move(artifact);
      }
    }
    const Clock::time_point done = Clock::now();
    s.done_s = seconds_between(origin, done);
    s.rtt_ms = 1e3 * seconds_between(sent, done);
    s.accept_ms = 1e3 * seconds_between(sent, accepted);
    s.exec_ms = 1e3 * seconds_between(accepted, answered);
    if (spans.enabled()) {
      const auto id = static_cast<std::int64_t>(i);
      const int request = spans.add("request", "client", sent, done, -1, id);
      spans.add("accept", "service", sent, accepted, request, id);
      spans.add("exec", "service", accepted, answered, request, id);
      spans.add("transfer", "client", answered, done, request, id);
    }
  }
  return samples;
}

struct Counters {
  std::uint64_t submits = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

Counters query_stats(service::ServeClient& client) {
  client.send_line(R"({"op":"stats"})");
  const sweep::JsonValue frame = sweep::JsonReader::parse(client.read_line());
  return Counters{frame.at("submits").as_uint(),
                  frame.at("cache_hits").as_uint(),
                  frame.at("cache_misses").as_uint()};
}

/// Observer for the verification runs: Session::run entry to the first
/// job start, and last job end to the return, are the api layer's own
/// time per plan.
class EdgeObserver final : public api::Observer {
 public:
  void on_job_start(std::size_t, const api::Query&) override {
    if (!started) first_start = Clock::now();
    started = true;
  }
  void on_job_done(std::size_t, const sweep::JobOutcome&) override {
    last_done = Clock::now();
  }
  bool started = false;
  Clock::time_point first_start;
  Clock::time_point last_done;
};

double mean_micros(double seconds, std::size_t calls) {
  return 1e6 * seconds / static_cast<double>(calls);
}

}  // namespace

void run_serve_mix(const Options& options, SpanRecorder& spans,
                   Result& result) {
  const int submits = std::max(
      4 * kRepeatWindow, static_cast<int>(options.seconds * kRate));
  const Clock::time_point generating = Clock::now();
  const Workload w = Generator(options.seed).build(submits);
  std::cerr << "serve-mix: " << w.timed.size() << " timed submits, "
            << w.plans.size() << " distinct plans, generated in "
            << seconds_between(generating, Clock::now()) << " s\n";
  const std::string socket = options.out_dir + "/serve-" +
                             std::to_string(::getpid()) + ".sock";

  // Daemon and client share one CPU at a time from daemon start to
  // shutdown: on a VM, cross-CPU wake-ups between client, I/O thread,
  // executor and pool made the same seed's loop take anywhere from 17 to
  // 32 s. With one connection and a one-thread pool, a submit is a strict
  // hand-off chain (client, I/O thread, executor and back); a second
  // connection or pool thread on the same CPU only added preemption. The
  // shared CPU rotates because the host can run this loop up to 25%
  // slower on some vCPUs than on others at the same time; a run pinned to
  // one vCPU measured that vCPU's luck.
  std::optional<CpuRotation> cpus(std::in_place);

  // ---- Setup, repeated: daemon ready, client connected, warm-up.
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<service::ServeClient> client;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    if (daemon) {
      daemon->stop(*client);
      client.reset();
      daemon.reset();
    }
    const Clock::time_point start = Clock::now();
    daemon = std::make_unique<Daemon>(options.topocon, socket);
    client = daemon->connect();
    SpanRecorder off(false);
    const std::vector<Sample> warm =
        drive(*client, *daemon, *cpus, w.warmup, false, off);
    setup_s.push_back(seconds_between(start, Clock::now()));
    for (const Sample& s : warm) {
      if (!s.ok) throw std::runtime_error("warm-up submit failed");
    }
  }

  // ---- Timed loop over the fixed list.
  const Counters before = query_stats(*client);
  const double rss_before = read_memory(daemon->pid()).rss_mib;
  const Usage usage_before = process_usage(daemon->pid());
  const double recording_before = spans.recording_seconds();
  const Clock::time_point start = Clock::now();
  const std::vector<Sample> samples =
      drive(*client, *daemon, *cpus, w.timed, true, spans);
  const double loop_s = seconds_between(start, Clock::now());
  const double recording_s = spans.recording_seconds() - recording_before;
  const Usage daemon_usage = process_usage(daemon->pid()) - usage_before;
  const Memory memory = read_memory(daemon->pid());
  const Counters after = query_stats(*client);
  daemon->stop(*client);
  client.reset();
  daemon.reset();
  cpus.reset();

  // ---- Checks: the designed hit share, and every artifact against a
  // fresh in-process Session run of the same plan.
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  const std::size_t computed = w.timed.size() - w.repeats;
  result.check(hits == w.repeats && misses == computed,
               "stats hits " + std::to_string(hits) + " / misses " +
                   std::to_string(misses) + ", designed " +
                   std::to_string(w.repeats) + " / " +
                   std::to_string(computed));
  const Clock::time_point verifying = Clock::now();
  // Verification runs on kBatchThreads workers, each with its own fresh
  // single-threaded Session (results never depend on either count).
  std::vector<std::string> expected(w.plans.size());
  std::array<std::vector<double>, kBatchThreads> dispatch_by;
  std::array<std::vector<double>, kBatchThreads> return_by;
  std::array<double, kBatchThreads> render_by{};
  std::array<std::exception_ptr, kBatchThreads> errors;
  std::vector<std::thread> workers;
  for (int k = 0; k < kBatchThreads; ++k) {
    workers.emplace_back([&, k] {
      try {
        api::Session session(
            api::SessionOptions{.num_threads = 1, .record_global = false});
        for (std::size_t p = static_cast<std::size_t>(k); p < w.plans.size();
             p += kBatchThreads) {
          EdgeObserver observer;
          const Clock::time_point entry = Clock::now();
          session.run(w.plans[p].name, w.plans[p].queries, &observer);
          const Clock::time_point exit = Clock::now();
          dispatch_by[k].push_back(
              seconds_between(entry, observer.first_start));
          return_by[k].push_back(seconds_between(observer.last_done, exit));
          const Clock::time_point t0 = Clock::now();
          expected[p] = service::render_artifact(
              w.plans[p].name, session.history().back().second);
          render_by[k] += seconds_between(t0, Clock::now());
          session.clear_history();
        }
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<double> dispatch_s;
  std::vector<double> return_s;
  double render_s = 0;
  for (int k = 0; k < kBatchThreads; ++k) {
    dispatch_s.insert(dispatch_s.end(), dispatch_by[k].begin(),
                      dispatch_by[k].end());
    return_s.insert(return_s.end(), return_by[k].begin(), return_by[k].end());
    render_s += render_by[k];
  }
  std::cerr << "serve-mix: re-ran " << w.plans.size() << " plans in "
            << seconds_between(verifying, Clock::now()) << " s\n";
  std::vector<double> rtt;
  std::vector<double> accept;
  std::vector<double> exec;
  std::array<std::vector<double>, kWindows> window_rtt;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const Request& r = w.timed[i];
    result.check(
        s.ok && s.cached == r.repeat && s.artifact == expected[r.plan],
        "submit " + std::to_string(i) + ": " + r.line);
    rtt.push_back(s.rtt_ms);
    window_rtt[std::clamp(static_cast<int>(s.done_s / loop_s * kWindows), 0,
                          kWindows - 1)]
        .push_back(s.rtt_ms);
    accept.push_back(s.accept_ms);
    if (!s.cached) exec.push_back(s.exec_ms);
  }

  const double growth_mib = memory.rss_mib - rss_before;
  if (!options.trace) {
    std::vector<double> rate;
    std::vector<double> p50;
    std::vector<double> p99;
    for (const std::vector<double>& window : window_rtt) {
      if (window.empty()) continue;
      rate.push_back(static_cast<double>(window.size()) * kWindows / loop_s);
      p50.push_back(median(window));
      p99.push_back(percentile(window, 0.99));
    }
    result.add("solve_s", loop_s, "s");
    result.add("peak_rss_mib", memory.hwm_mib, "MiB");
    result.add("setup_s", median(setup_s), "s");
    result.add("rps", median(rate), "1/s");
    result.add("rtt_p50_ms", median(p50), "ms");
    result.add("rtt_p99_ms", median(p99), "ms");
    result.add("mem_growth_mib", growth_mib, "MiB");
    std::cerr << "serve-mix: " << rtt.size() << " rtt samples, "
              << w.repeats << " designed hits\n";
    return;
  }

  // Direct timed calls over the workload's own requests and plans.
  std::size_t lines = 0;
  Clock::time_point t0 = Clock::now();
  for (const Request& r : w.timed) {
    service::parse_request(r.line);
    ++lines;
  }
  const double parse_s = seconds_between(t0, Clock::now());
  t0 = Clock::now();
  for (const api::Plan& plan : w.plans) service::plan_cache_key(plan);
  const double key_s = seconds_between(t0, Clock::now());

  result.add("service.accept_ms", median(accept), "ms");
  result.add("service.exec_ms", median(exec), "ms");
  result.add("service.parse_us", mean_micros(parse_s, lines), "us");
  result.add("service.cache_key_us", mean_micros(key_s, w.plans.size()),
             "us");
  result.add("service.render_artifact_us",
             mean_micros(render_s, w.plans.size()), "us");
  result.add("service.cache_hit_frac",
             static_cast<double>(hits) /
                 static_cast<double>(after.submits - before.submits),
             "frac");
  result.add("service.rss_per_submit_kib",
             growth_mib * 1024.0 / static_cast<double>(misses), "KiB");
  result.add("service.rtt_samples", static_cast<double>(rtt.size()),
             "count");
  result.add("api.dispatch_s", median(dispatch_s), "s");
  result.add("api.return_s", median(return_s), "s");
  result.add("proc.cpu_s", daemon_usage.cpu_s, "s");
  result.add("proc.parallelism", daemon_usage.cpu_s / loop_s, "ratio");
  result.add("proc.minflt", daemon_usage.minflt, "count");
  result.add("proc.nivcsw", daemon_usage.nivcsw, "count");
  result.add("trace.overhead_frac", recording_s / loop_s, "frac");
}

}  // namespace perfbench
