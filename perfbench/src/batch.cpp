// Batch workloads: one solvability query per Session::run on a 4-thread
// Session, built from the scenario catalog.
//
//   n4-cert   omission n=4 f=2, depth <= 3, 8M states, no table:
//             SOLVABLE at depth 3 (7,888,624 leaf classes).
//   n4-limit  omission n=4 f=3, same options: RESOURCE-LIMIT at depth 3.
//   n5-table  omission n=5 f=2, depth <= 2, decision table extracted:
//             SOLVABLE at depth 2 (1,424,672 leaves, 197,955 entries).
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "api/api.hpp"
#include "core/decision_table.hpp"
#include "core/epsilon_approx.hpp"
#include "runtime/falsifier.hpp"
#include "runtime/sweep/json.hpp"
#include "runtime/universal_runner.hpp"
#include "scenario/render.hpp"
#include "scenario/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace topocon;

struct BatchSpec {
  const char* name;
  const char* scenario;
  int f;
  /// Run the query as a decision-table extraction.
  bool table;
  /// Wall seconds of one solve at the commit that introduced the
  /// benchmark; sizes the fixed solve count of a run from --seconds.
  double nominal_solve_s;
  /// Record label in tests/golden/omission-n4.json (nullptr: none).
  const char* golden_label;
  SolvabilityVerdict verdict;
  int certified_depth;
  std::uint64_t leaf_classes;
  std::uint64_t table_entries;
};

constexpr BatchSpec kSpecs[] = {
    {"n4-cert", "omission-n4", 2, false, 10.0, "n=4 f=2",
     SolvabilityVerdict::kSolvable, 3, 7'888'624, 0},
    {"n4-limit", "omission-n4", 3, false, 5.0, "n=4 f=3",
     SolvabilityVerdict::kResourceLimit, -1, 1'430'416, 0},
    {"n5-table", "omission-n5", 2, true, 3.0, nullptr,
     SolvabilityVerdict::kSolvable, 2, 1'424'672, 197'955},
};

const BatchSpec& find_spec(const std::string& name) {
  for (const BatchSpec& spec : kSpecs) {
    if (name == spec.name) return spec;
  }
  throw std::invalid_argument("unknown batch workload " + name);
}

constexpr int kSetupRepetitions = 9;
constexpr const char* kGoldenPath = "tests/golden/omission-n4.json";

/// Timestamps every Observer callback of a one-query run.
class PhaseObserver final : public api::Observer {
 public:
  struct Chunk {
    int depth;
    int level;
    std::size_t done;
    std::size_t total;
    Clock::time_point at;
  };

  void on_job_start(std::size_t, const api::Query&) override {
    job_start = Clock::now();
  }
  void on_depth(std::size_t, const DepthStats& stats) override {
    depth_done.emplace_back(stats.depth, Clock::now());
  }
  void on_depth(std::size_t, const ChunkProgress& progress) override {
    chunks.push_back(Chunk{progress.depth, progress.level,
                           progress.chunks_done, progress.chunks_total,
                           Clock::now()});
  }
  void on_job_done(std::size_t, const sweep::JobOutcome&) override {
    job_done = Clock::now();
  }

  Clock::time_point job_start;
  Clock::time_point job_done;
  std::vector<std::pair<int, Clock::time_point>> depth_done;
  std::vector<Chunk> chunks;
};

/// The sweep phases of one traced job, derived from its callbacks; they
/// partition [on_job_start, on_job_done].
struct Phases {
  double shallow_s = 0;
  double expand_s = 0;
  double budget_retry_s = 0;
  double tail_s = 0;
  double abort_s = 0;
  double certify_s = 0;
  double chunks = 0;
  double levels = 0;
};

/// One contiguous run of chunk callbacks of one level: a level pass, or
/// the exact root-granular retry of a level whose budget tripped.
struct LevelPass {
  int depth;
  int level;
  bool retry;
  std::size_t first;  // index into chunks
  std::size_t last;
};

Phases derive_phases(const PhaseObserver& obs, SpanRecorder& spans,
                     int job_span) {
  Phases phases;
  const auto& chunks = obs.chunks;
  phases.chunks = static_cast<double>(chunks.size());
  std::vector<LevelPass> passes;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto& c = chunks[i];
    const bool same_level = !passes.empty() &&
                            passes.back().depth == c.depth &&
                            passes.back().level == c.level;
    const bool restarted =
        same_level && c.done == 1 && chunks[i - 1].done == chunks[i - 1].total;
    if (same_level && !restarted) {
      passes.back().last = i;
      continue;
    }
    passes.push_back(LevelPass{c.depth, c.level, restarted, i, i});
    if (!restarted) ++phases.levels;
  }

  // Analysis passes: a depth pass ends with its on_depth (or the job's
  // end when it overflows); a second pass over an already-reported depth
  // is the certifying keep_levels re-run.
  const auto depth_time = [&obs](int depth) -> std::optional<Clock::time_point> {
    for (const auto& [d, at] : obs.depth_done) {
      if (d == depth) return at;
    }
    return std::nullopt;
  };
  Clock::time_point cursor = obs.job_start;
  int final_depth = 0;
  for (const LevelPass& pass : passes) {
    const auto done = depth_time(pass.depth);
    if (done && chunks[pass.first].at > *done) break;  // certify re-run
    final_depth = pass.depth;
  }
  if (const auto before = depth_time(final_depth - 1)) cursor = *before;
  phases.shallow_s = seconds_between(obs.job_start, cursor);
  const int shallow = spans.add("shallow depths", "sweep", obs.job_start,
                                cursor, job_span);
  for (int d = 1; d < final_depth; ++d) {
    const Clock::time_point start =
        d == 1 ? obs.job_start : *depth_time(d - 1);
    spans.add("depth " + std::to_string(d), "sweep", start, *depth_time(d),
              shallow);
  }

  const auto final_done = depth_time(final_depth);
  const Clock::time_point final_end = final_done ? *final_done : obs.job_done;
  const int depth_span =
      spans.add("depth " + std::to_string(final_depth), "sweep", cursor,
                final_end, job_span);
  Clock::time_point level_start = cursor;
  Clock::time_point last_chunk = cursor;
  Clock::time_point expand_end = cursor;
  for (const LevelPass& pass : passes) {
    if (pass.depth != final_depth) continue;
    const Clock::time_point end = chunks[pass.last].at;
    if (final_done && chunks[pass.first].at > *final_done) break;
    if (pass.retry) {
      phases.budget_retry_s += seconds_between(last_chunk, end);
      spans.add("budget retry", "sweep", last_chunk, end, depth_span);
    } else {
      spans.add("level " + std::to_string(pass.level), "sweep", level_start,
                end, depth_span);
      expand_end = end;
      level_start = end;
    }
    last_chunk = end;
  }
  phases.expand_s = seconds_between(cursor, expand_end);
  if (final_done) {
    phases.tail_s = seconds_between(last_chunk, *final_done);
    phases.certify_s = seconds_between(*final_done, obs.job_done);
    spans.add("tail", "sweep", last_chunk, *final_done, depth_span);
    spans.add("certify", "sweep", *final_done, obs.job_done, job_span);
  } else {
    phases.abort_s = seconds_between(last_chunk, obs.job_done);
    spans.add("abort", "sweep", last_chunk, obs.job_done, depth_span);
  }
  return phases;
}

sweep::JsonValue record_json(const sweep::JobRecord& record) {
  std::ostringstream out;
  sweep::JsonWriter writer(out, sweep::JsonStyle::kCompact);
  sweep::write_job_record_json(writer, record);
  return sweep::JsonReader::parse(out.str());
}

sweep::JsonValue golden_record(const char* label) {
  std::ifstream in(kGoldenPath);
  if (!in) throw std::runtime_error(std::string("cannot read ") + kGoldenPath);
  std::stringstream text;
  text << in.rdbuf();
  const sweep::JsonValue doc = sweep::JsonReader::parse(text.str());
  for (const sweep::JsonValue& job : doc.at("sweeps").elements.at(0)
                                         .at("jobs")
                                         .elements) {
    if (job.at("label").as_string() == label) return job;
  }
  throw std::runtime_error(std::string(kGoldenPath) + " has no record " +
                           label);
}

/// Every check on one solve's outputs; returns a description of the
/// first mismatch, or an empty string.
std::string check_outcome(const BatchSpec& spec,
                          const std::optional<sweep::JsonValue>& golden,
                          const sweep::JobOutcome& outcome,
                          const sweep::JobRecord& record) {
  const SolvabilityResult& r = outcome.result;
  // Santoro-Widmayer: consensus under f mobile omissions is solvable iff
  // f <= n - 2. Only RESOURCE-LIMIT may leave the question open.
  const bool sw_solvable = spec.f <= outcome.n - 2;
  if (r.verdict != SolvabilityVerdict::kResourceLimit &&
      (r.verdict == SolvabilityVerdict::kSolvable) != sw_solvable) {
    return "verdict contradicts Santoro-Widmayer";
  }
  if (r.verdict != spec.verdict) {
    return std::string("verdict ") + to_string(r.verdict);
  }
  if (r.certified_depth != spec.certified_depth) {
    return "certified depth " + std::to_string(r.certified_depth);
  }
  if (!r.analysis || r.analysis->leaves().size() != spec.leaf_classes) {
    return "final leaf classes differ";
  }
  if (golden && record_json(record) != *golden) {
    return std::string("record differs from ") + kGoldenPath;
  }
  if (spec.table && (!record.table || record.table->entries !=
                                          spec.table_entries)) {
    return "decision table entries differ";
  }
  return {};
}

/// Seeded random executions of the extracted universal algorithm; every
/// one must satisfy agreement, validity and termination by the table's
/// depth (runtime/verify.hpp check_consensus).
bool falsification_clean(const MessageAdversary& adversary,
                         const DecisionTable& table, std::uint64_t seed) {
  FalsifierOptions options;
  options.random_runs = 2000;
  options.random_horizon = table.depth();
  options.require_termination = true;
  options.seed = static_cast<unsigned>(seed);
  const UniversalAlgorithm algorithm(table);
  return !falsify(adversary, algorithm, options).has_value();
}

/// Everything before the first solve: the 4-thread Session, the plan
/// from the catalog, and the adversary the plan names (the Session
/// builds its own inside each job; this one serves the falsifier).
std::unique_ptr<MessageAdversary> set_up(
    const BatchSpec& spec, std::unique_ptr<api::Session>& session,
    api::Plan& plan) {
  session = std::make_unique<api::Session>(api::SessionOptions{
      .num_threads = kBatchThreads, .record_global = false});
  const scenario::Scenario* s = scenario::find_scenario(spec.scenario);
  if (s == nullptr) {
    throw std::runtime_error("no scenario " + std::string(spec.scenario));
  }
  scenario::GridOverrides overrides;
  overrides.param_min = spec.f;
  overrides.param_max = spec.f;
  plan = scenario::expand_scenario(*s, overrides);
  if (plan.queries.size() != 1) {
    throw std::runtime_error("expected one query in the plan");
  }
  if (spec.table) {
    const auto& q = std::get<api::SolvabilityQuery>(plan.queries[0]);
    plan.queries[0] = api::decision_table(q.point, q.options);
  }
  api::validate_query(plan.queries[0]);
  return make_family_adversary(api::point_of(plan.queries[0]));
}

/// Starts a copy of this program in --setup-only mode and returns the
/// time from just before fork() to the child's report that set_up()
/// finished: process start, static initialization, and setup.
double spawned_setup_seconds(const Options& options) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const std::vector<std::string> args = {
      "perfbench", "--workload", options.workload, "--seed",
      std::to_string(options.seed), "--seconds", "1", "--trace", "0",
      "--out-dir", options.out_dir, "--setup-only", "1"};
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const Clock::time_point start = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::dup2(fds[1], 1);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string report;
  char buffer[64];
  for (ssize_t got; (got = ::read(fds[0], buffer, sizeof buffer)) != 0;) {
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) break;
    report.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || report.empty()) {
    throw std::runtime_error("setup-only child failed");
  }
  const Clock::time_point ready{Clock::duration(std::stoll(report))};
  return seconds_between(start, ready);
}

struct Solve {
  double wall_s = 0;
  double peak_mib = 0;
  Usage usage;
};

}  // namespace

bool is_batch_workload(const std::string& name) {
  for (const BatchSpec& spec : kSpecs) {
    if (name == spec.name) return true;
  }
  return false;
}

void run_batch_setup_only(const Options& options) {
  std::unique_ptr<api::Session> session;
  api::Plan plan;
  set_up(find_spec(options.workload), session, plan);
  std::cout << Clock::now().time_since_epoch().count() << std::endl;
}

void run_batch(const Options& options, SpanRecorder& spans, Result& result) {
  const BatchSpec& spec = find_spec(options.workload);
  std::optional<sweep::JsonValue> golden;
  if (spec.golden_label != nullptr) golden = golden_record(spec.golden_label);

  // ---- Setup: pool, plan from the catalog, adversary -- timed from
  // process start on fresh copies of this program, then done here.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    setup_s.push_back(spawned_setup_seconds(options));
  }
  std::unique_ptr<api::Session> session;
  api::Plan plan;
  const std::unique_ptr<MessageAdversary> adversary =
      set_up(spec, session, plan);
  const bool peak_resettable = reset_peak_memory();
  const double heap_after_setup = heap_in_use_mib();

  // ---- Solves. Workloads with room for it first run one untimed (but
  // checked) warm-up solve. Untraced runs measure only; traced runs
  // alternate an untraced and an observed solve so the tracing cost
  // shows.
  const bool warm_up = 3 * spec.nominal_solve_s <= options.seconds;
  const int budget = std::max(
      1, static_cast<int>(options.seconds / spec.nominal_solve_s) -
             (warm_up ? 1 : 0));
  const int solves = options.trace ? 2 * std::max(1, budget / 2)
                                   : std::max(2, budget);
  std::vector<Solve> plain;
  std::vector<Solve> traced;
  std::vector<Phases> phases;
  std::vector<double> dispatch_s;
  std::vector<double> return_s;
  std::vector<double> components_s;
  std::vector<double> table_build_s;
  std::vector<double> render_s;
  double leaf_classes = 0;
  double table_entries = 0;
  double views_interned = 0;
  for (int i = warm_up ? -1 : 0; i < solves; ++i) {
    const bool observed = options.trace && i % 2 == 1;
    PhaseObserver observer;
    observer.chunks.reserve(4096);
    reset_peak_memory();
    const Usage before = self_usage();
    const Clock::time_point start = Clock::now();
    std::vector<sweep::JobOutcome> outcomes =
        session->run(plan, observed ? &observer : nullptr);
    const Clock::time_point end = Clock::now();
    const Usage used = self_usage() - before;
    const Memory memory = read_memory();
    Solve solve{seconds_between(start, end),
                peak_resettable ? memory.hwm_mib : memory.rss_mib, used};
    if (i >= 0) (observed ? traced : plain).push_back(solve);
    std::cerr << spec.name << (i < 0 ? " warm-up" : " solve ")
              << (i < 0 ? "" : std::to_string(i))
              << (observed ? " (traced)" : "") << ": " << solve.wall_s
              << " s, peak " << solve.peak_mib << " MiB\n";

    // ---- Outside the timed region: checks and direct layer timings.
    const sweep::JobOutcome& outcome = outcomes.at(0);
    const sweep::JobRecord& record = session->history().back().second.at(0);
    const std::string mismatch = check_outcome(spec, golden, outcome, record);
    result.check(mismatch.empty(),
                 spec.name + std::string(" solve ") + std::to_string(i) +
                     ": " + mismatch);
    if (outcome.result.analysis) {
      leaf_classes =
          static_cast<double>(outcome.result.analysis->leaves().size());
    }
    if (outcome.result.table) {
      table_entries = static_cast<double>(outcome.result.table->size());
    }
    if (!outcome.result.per_depth.empty()) {
      views_interned = static_cast<double>(
          outcome.result.per_depth.back().interner_views);
    }
    if (observed) {
      const int run_span = spans.add("Session::run", "api", start, end);
      spans.add("dispatch", "api", start, observer.job_start, run_span);
      spans.add("return", "api", observer.job_done, end, run_span);
      const int job_span = spans.add("job", "sweep", observer.job_start,
                                     observer.job_done, run_span);
      phases.push_back(derive_phases(observer, spans, job_span));
      dispatch_s.push_back(seconds_between(start, observer.job_start));
      return_s.push_back(seconds_between(observer.job_done, end));

      // Direct timed calls into core and scenario on this solve's output.
      DepthAnalysis& analysis = *outcomes[0].result.analysis;
      const std::size_t components = analysis.components.size();
      AnalysisOptions analysis_options;
      analysis_options.depth = analysis.depth;
      analysis_options.num_values = analysis.num_values;
      Clock::time_point t0 = Clock::now();
      compute_components(analysis_options, analysis);
      Clock::time_point t1 = Clock::now();
      components_s.push_back(seconds_between(t0, t1));
      spans.add("compute_components", "core", t0, t1);
      result.check(analysis.components.size() == components,
                   "compute_components changed the component count");
      if (spec.table) {
        t0 = Clock::now();
        const DecisionTable table = DecisionTable::build(analysis);
        t1 = Clock::now();
        table_build_s.push_back(seconds_between(t0, t1));
        spans.add("DecisionTable::build", "core", t0, t1);
        result.check(table.size() == spec.table_entries,
                     "DecisionTable::build entry count");
      }
      std::ostringstream rendered;
      t0 = Clock::now();
      scenario::render_records(rendered, plan.name,
                               session->history().back().second);
      t1 = Clock::now();
      render_s.push_back(seconds_between(t0, t1));
      spans.add("render_records", "scenario", t0, t1);
      result.check(!rendered.str().empty(), "render_records wrote nothing");
    }
    if (spec.table && i + 1 == solves) {
      const Clock::time_point t0 = Clock::now();
      const bool clean = outcome.result.table.has_value() &&
                         falsification_clean(*adversary,
                                             *outcome.result.table,
                                             options.seed);
      spans.add("falsify", "runtime", t0, Clock::now());
      result.check(clean, "universal algorithm falsified");
    }
    session->clear_history();
  }
  // What the Session keeps after its runs (the interner arena). Heap
  // bytes in use, not RSS: after a multi-GiB solve, RSS mostly reflects
  // what the allocator caches, which varies from run to run.
  const double mem_growth = heap_in_use_mib() - heap_after_setup;

  std::vector<double> walls;
  std::vector<double> peaks;
  for (const Solve& s : plain) {
    walls.push_back(s.wall_s);
    peaks.push_back(s.peak_mib);
  }
  if (!options.trace) {
    double total = 0;
    for (const double w : walls) total += w;
    result.add("solve_s", median(walls), "s");
    result.add("peak_rss_mib", median(peaks), "MiB");
    result.add("setup_s", median(setup_s), "s");
    result.add("rps", static_cast<double>(walls.size()) / total, "1/s");
    result.add("rtt_p50_ms", 1e3 * median(walls), "ms");
    result.add("rtt_p99_ms", 1e3 * percentile(walls, 0.99), "ms");
    result.add("mem_growth_mib", mem_growth, "MiB");
    return;
  }

  const auto med = [](const std::vector<Phases>& all, double Phases::*field) {
    std::vector<double> values;
    for (const Phases& p : all) values.push_back(p.*field);
    return median(values);
  };
  result.add("sweep.shallow_s", med(phases, &Phases::shallow_s), "s");
  result.add("sweep.expand_s", med(phases, &Phases::expand_s), "s");
  result.add("sweep.budget_retry_s", med(phases, &Phases::budget_retry_s),
             "s");
  result.add("sweep.tail_s", med(phases, &Phases::tail_s), "s");
  result.add("sweep.abort_s", med(phases, &Phases::abort_s), "s");
  result.add("sweep.certify_s", med(phases, &Phases::certify_s), "s");
  result.add("sweep.chunks", med(phases, &Phases::chunks), "count");
  result.add("sweep.levels", med(phases, &Phases::levels), "count");
  result.add("core.components_s", median(components_s), "s");
  if (spec.table) result.add("core.table_build_s", median(table_build_s), "s");
  result.add("core.bytes_per_leaf",
             median(peaks) * 1048576.0 / leaf_classes, "B");
  result.add("core.leaf_classes", leaf_classes, "count");
  result.add("core.table_entries", table_entries, "count");
  result.add("ptg.views_interned", views_interned, "count");
  result.add("api.dispatch_s", median(dispatch_s), "s");
  result.add("api.return_s", median(return_s), "s");
  result.add("scenario.render_s", median(render_s), "s");
  std::vector<double> cpu, parallelism, minflt, nivcsw, traced_walls;
  for (const Solve& s : plain) {
    cpu.push_back(s.usage.cpu_s);
    parallelism.push_back(s.usage.cpu_s / s.wall_s);
    minflt.push_back(s.usage.minflt);
    nivcsw.push_back(s.usage.nivcsw);
  }
  for (const Solve& s : traced) traced_walls.push_back(s.wall_s);
  result.add("proc.cpu_s", median(cpu), "s");
  result.add("proc.parallelism", median(parallelism), "ratio");
  result.add("proc.minflt", median(minflt), "count");
  result.add("proc.nivcsw", median(nivcsw), "count");
  result.add("trace.overhead_frac",
             median(traced_walls) / median(walls) - 1.0, "frac");
}

}  // namespace perfbench
