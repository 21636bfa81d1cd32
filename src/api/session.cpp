#include "api/session.hpp"

#include <ostream>

namespace topocon::api {

void Observer::on_job_start(std::size_t, const Query&) {}
void Observer::on_depth(std::size_t, const DepthStats&) {}
void Observer::on_depth(std::size_t, const ChunkProgress&) {}
void Observer::on_job_telemetry(std::size_t, const telemetry::JobTelemetry&) {}
void Observer::on_job_done(std::size_t, const sweep::JobOutcome&) {}

Session::Session(SessionOptions options)
    : options_(options),
      pool_(options.num_threads > 0 ? options.num_threads
                                    : sweep::default_num_threads()) {}

std::vector<sweep::JobOutcome> Session::run(const std::string& name,
                                            const std::vector<Query>& queries,
                                            Observer* observer) {
  sweep::SweepSpec spec;
  spec.name = name;
  spec.jobs.reserve(queries.size());
  for (const Query& query : queries) {
    validate_query(query);
    spec.jobs.push_back(to_sweep_job(query));
  }

  sweep::SweepHooks hooks;
  hooks.collect_telemetry =
      options_.collect_telemetry || options_.telemetry_in_records;
  hooks.trace = options_.trace;
  const bool telemetry_active =
      hooks.collect_telemetry || hooks.trace != nullptr;
  if (observer != nullptr) {
    hooks.on_job_start = [observer, &queries](std::size_t job,
                                              const sweep::SweepJob&) {
      observer->on_job_start(job, queries[job]);
    };
    hooks.on_depth = [observer](std::size_t job, const DepthStats& stats) {
      observer->on_depth(job, stats);
    };
    hooks.on_chunk = [observer](std::size_t job,
                                const ChunkProgress& progress) {
      observer->on_depth(job, progress);
    };
    if (telemetry_active) {
      hooks.on_job_telemetry =
          [observer](std::size_t job,
                     const telemetry::JobTelemetry& snapshot) {
            observer->on_job_telemetry(job, snapshot);
          };
    }
    hooks.on_job_done = [observer](std::size_t job,
                                   const sweep::JobOutcome& outcome) {
      observer->on_job_done(job, outcome);
    };
  }

  std::vector<sweep::JobOutcome> outcomes =
      sweep::run_sweep_on(spec, pool_, hooks, options_.chunk_states,
                          options_.frontier);

  std::vector<sweep::JobRecord> records;
  records.reserve(outcomes.size());
  for (const sweep::JobOutcome& outcome : outcomes) {
    records.push_back(
        sweep::summarize(outcome, options_.telemetry_in_records));
  }
  if (options_.record_global && sweep::SweepRegistry::instance().enabled()) {
    sweep::SweepRegistry::instance().record(name, records);
  }
  history_.emplace_back(name, std::move(records));
  return outcomes;
}

std::vector<sweep::JobOutcome> Session::run(const Plan& plan,
                                            Observer* observer) {
  return run(plan.name, plan.queries, observer);
}

sweep::JobOutcome Session::run_one(const Query& query, Observer* observer) {
  std::vector<sweep::JobOutcome> outcomes =
      run(label_of(query), {query}, observer);
  return std::move(outcomes.front());
}

void Session::write_json(std::ostream& out) const {
  sweep::JsonWriter writer(out);
  writer.begin_object();
  writer.member("schema", "topocon-sweep-v1");
  writer.key("sweeps");
  writer.begin_array();
  for (const auto& [name, records] : history_) {
    sweep::write_sweep_json(writer, name, records);
  }
  writer.end_array();
  writer.end_object();
  out << '\n';
}

}  // namespace topocon::api
