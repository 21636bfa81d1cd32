// Unit tests for the parallel sweep engine: thread-pool semantics
// (including nesting), exact agreement of the chunk-sharded depth
// analysis with the single-scan reference (analyze_depth_oracle) and of
// pooled runs with the inline one (at several forced chunk sizes),
// SweepSpec execution with deterministic result ordering, and
// byte-identical JSON across thread counts.
#include <atomic>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/family.hpp"
#include "adversary/lossy_link.hpp"
#include "adversary/omission.hpp"
#include "analysis_compare.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/engine.hpp"
#include "runtime/sweep/json.hpp"
#include "runtime/sweep/thread_pool.hpp"

namespace topocon {
namespace {

using sweep::JobKind;
using sweep::JobOutcome;
using sweep::JsonWriter;
using sweep::SweepSpec;
using sweep::ThreadPool;

// ---- ThreadPool ---------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(97);
    pool.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& hit : hits) {
      EXPECT_EQ(hit.load(), 1);
    }
  }
}

TEST(ThreadPool, EmptyBatchReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(5, [&](std::size_t) {
    pool.parallel_for(7, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 35);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 3) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(sweep::resolve_threads(4), 4);
  EXPECT_GE(sweep::resolve_threads(0), 1);
}

// ---- analyze_depth vs the reference scan --------------------------------
//
// "Serial" in the test names below is the single-scan reference
// expansion, analyze_depth_oracle / check_solvability_oracle.

/// Runs the analysis loops on `pool` with `chunk_states` per chunk.
ExecutionOptions on_pool(ThreadPool& pool,
                         std::size_t chunk_states =
                             ExecutionOptions{}.chunk_states) {
  return {.parallel_for = sweep::parallel_for_of(pool),
          .chunk_states = chunk_states};
}

/// The reference analysis (analyze_depth_oracle, the single-scan
/// expansion) and the engine's inline run of the same depth.
struct Reference {
  DepthAnalysis oracle;
  DepthAnalysis inline_run;
};

Reference reference_for(const MessageAdversary& ma,
                        const AnalysisOptions& options) {
  Reference reference{analyze_depth_oracle(ma, options),
                      analyze_depth(ma, options)};
  test_support::expect_analyses_identical(
      reference.oracle, reference.inline_run, "oracle vs inline",
      test_support::ViewIds::kRelabeled, /*a_is_reference_scan=*/true);
  return reference;
}

// The oracle interns level by level across all roots while the engine
// absorbs root by root, so view ids are a consistent relabeling of each
// other and every other field is identical. Inline and pooled engine runs
// absorb the root interners in the same order, so between those two the
// view ids agree exactly as well.
void expect_analysis_equal(const Reference& reference,
                           const DepthAnalysis& parallel) {
  test_support::expect_analyses_identical(
      reference.oracle, parallel, "oracle vs pool",
      test_support::ViewIds::kRelabeled, /*a_is_reference_scan=*/true);
  test_support::expect_analyses_identical(reference.inline_run, parallel,
                                          "inline vs pool",
                                          test_support::ViewIds::kExact);
}

TEST(ParallelAnalyze, MatchesSerialOnLossyLink) {
  for (const unsigned mask : {0b011u, 0b101u, 0b111u}) {
    const auto ma = make_lossy_link(mask);
    for (const bool keep_levels : {false, true}) {
      AnalysisOptions options;
      options.depth = 4;
      options.keep_levels = keep_levels;
      const Reference reference = reference_for(*ma, options);
      for (const int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        expect_analysis_equal(
            reference, analyze_depth(*ma, options, nullptr, on_pool(pool)));
      }
    }
  }
}

TEST(ParallelAnalyze, MatchesSerialAtEveryChunkSize) {
  // Sub-root sharding forced down to one-state chunks must reproduce the
  // reference analysis exactly -- including tree links and multiplicities.
  const auto ma = make_lossy_link(0b111);
  AnalysisOptions options;
  options.depth = 4;
  options.keep_levels = true;
  const Reference reference = reference_for(*ma, options);
  for (const std::size_t chunk_states : {std::size_t{1}, std::size_t{2},
                                         std::size_t{7}, std::size_t{64}}) {
    for (const int threads : {1, 3}) {
      ThreadPool pool(threads);
      expect_analysis_equal(
          reference,
          analyze_depth(*ma, options, nullptr, on_pool(pool, chunk_states)));
    }
  }
}

TEST(ParallelAnalyze, MatchesSerialOnOmissionN3) {
  const auto ma = make_omission_adversary(3, 1);
  AnalysisOptions options;
  options.depth = 2;
  options.max_states = 6'000'000;
  options.keep_levels = false;
  const Reference reference = reference_for(*ma, options);
  ThreadPool pool(3);
  expect_analysis_equal(reference,
                        analyze_depth(*ma, options, nullptr, on_pool(pool)));
  expect_analysis_equal(
      reference, analyze_depth(*ma, options, nullptr, on_pool(pool, 1)));
}

TEST(ParallelAnalyze, TruncationMatchesSerial) {
  const auto ma = make_lossy_link(0b111);
  AnalysisOptions options;
  options.depth = 6;
  options.max_states = 50;  // overflows at some level > 1
  const Reference reference = reference_for(*ma, options);
  ASSERT_TRUE(reference.oracle.truncated);
  for (const std::size_t chunk_states :
       {ExecutionOptions{}.chunk_states, std::size_t{1}}) {
    for (const int threads : {1, 3}) {
      ThreadPool pool(threads);
      const DepthAnalysis parallel = analyze_depth(
          *ma, options, nullptr, on_pool(pool, chunk_states));
      EXPECT_TRUE(parallel.truncated);
      expect_analysis_equal(reference, parallel);
    }
  }
}

TEST(ParallelAnalyze, ChunkProgressCountsEveryChunkOfEveryLevel) {
  const auto ma = make_omission_adversary(2, 1);
  AnalysisOptions options;
  options.depth = 3;
  ThreadPool pool(2);
  // Force sub-root splitting on a skewed level.
  ExecutionOptions execution = on_pool(pool, 4);
  std::vector<ChunkProgress> events;
  execution.on_chunk = [&](const ChunkProgress& progress) {
    events.push_back(progress);
  };
  const DepthAnalysis analysis =
      analyze_depth(*ma, options, nullptr, execution);
  expect_analysis_equal(reference_for(*ma, options), analysis);

  // Per level: chunks_done runs 1..chunks_total, and at least one level
  // of this skewed workload splits a root into several chunks (more
  // chunks than the 4 input-vector roots).
  bool split_below_root = false;
  std::size_t seen_for_level = 0;
  int level = 0;
  for (const ChunkProgress& event : events) {
    EXPECT_EQ(event.depth, 3);
    if (event.level != level) {
      EXPECT_EQ(seen_for_level, 0u) << "level change mid-count";
      level = event.level;
    }
    ++seen_for_level;
    EXPECT_EQ(event.chunks_done, seen_for_level);
    EXPECT_GT(event.chunks_total, 0u);
    if (event.chunks_done == event.chunks_total) seen_for_level = 0;
    if (event.chunks_total > 4u) split_below_root = true;
  }
  EXPECT_EQ(seen_for_level, 0u) << "last level's chunk count incomplete";
  EXPECT_TRUE(split_below_root)
      << "chunk_states=4 never split a root; workload not skewed enough";
}

TEST(ParallelCheck, AgreesWithSerialVerdicts) {
  for (const unsigned mask : {0b011u, 0b100u, 0b111u}) {
    const auto ma = make_lossy_link(mask);
    SolvabilityOptions options;
    options.max_depth = 5;
    const SolvabilityResult oracle = check_solvability_oracle(*ma, options);
    ThreadPool pool(2);
    const SolvabilityResult parallel =
        check_solvability(*ma, options, on_pool(pool));
    EXPECT_EQ(parallel.verdict, oracle.verdict);
    EXPECT_EQ(parallel.certified_depth, oracle.certified_depth);
    EXPECT_EQ(parallel.per_depth, oracle.per_depth);
    ASSERT_EQ(parallel.analysis.has_value(), oracle.analysis.has_value());
    if (oracle.analysis.has_value()) {
      test_support::expect_analyses_identical(
          *oracle.analysis, *parallel.analysis, "oracle vs pool",
          test_support::ViewIds::kRelabeled, /*a_is_reference_scan=*/true);
    }
    EXPECT_EQ(parallel.table.has_value(), oracle.table.has_value());
    if (oracle.table.has_value()) {
      EXPECT_EQ(parallel.table->size(), oracle.table->size());
      EXPECT_EQ(parallel.table->worst_case_decision_round(),
                oracle.table->worst_case_decision_round());
    }
  }
}

TEST(ParallelCheck, ChunkedVerdictAndStatsMatchUnchunked) {
  const auto ma = make_lossy_link(0b011);
  SolvabilityOptions options;
  options.max_depth = 5;
  ThreadPool pool(2);
  const SolvabilityResult base =
      check_solvability(*ma, options, on_pool(pool));
  const SolvabilityResult chunked =
      check_solvability(*ma, options, on_pool(pool, 1));
  EXPECT_EQ(chunked.verdict, base.verdict);
  EXPECT_EQ(chunked.certified_depth, base.certified_depth);
  ASSERT_EQ(chunked.per_depth.size(), base.per_depth.size());
  for (std::size_t d = 0; d < base.per_depth.size(); ++d) {
    EXPECT_EQ(chunked.per_depth[d], base.per_depth[d]) << "depth " << d + 1;
  }
  ASSERT_TRUE(chunked.table.has_value());
  EXPECT_EQ(chunked.table->size(), base.table->size());
}

// ---- SweepSpec / run_sweep_on -------------------------------------------

sweep::SweepJob make_solvability_job(const FamilyPoint& point,
                                     const SolvabilityOptions& options) {
  sweep::SweepJob job;
  job.point = point;
  job.kind = JobKind::kSolvability;
  job.solve = options;
  return job;
}

sweep::SweepJob make_series_job(const FamilyPoint& point,
                                const AnalysisOptions& options) {
  sweep::SweepJob job;
  job.point = point;
  job.kind = JobKind::kDepthSeries;
  job.analysis = options;
  return job;
}

SweepSpec small_spec() {
  SweepSpec spec;
  spec.name = "unit";
  SolvabilityOptions options;
  options.max_depth = 5;
  for (const int mask : {1, 2, 3, 5, 7}) {
    spec.jobs.push_back(
        make_solvability_job({"lossy_link", 2, mask}, options));
  }
  AnalysisOptions series;
  series.depth = 4;
  spec.jobs.push_back(make_series_job({"lossy_link", 2, 7}, series));
  return spec;
}

std::string spec_json(const std::vector<JobOutcome>& outcomes) {
  std::ostringstream out;
  JsonWriter writer(out);
  sweep::write_sweep_json(writer, "unit", outcomes);
  return out.str();
}

std::vector<JobOutcome> run_small_spec(
    int threads, std::size_t chunk_states = ExecutionOptions{}.chunk_states) {
  ThreadPool pool(threads);
  return sweep::run_sweep_on(small_spec(), pool, {}, chunk_states);
}

TEST(RunSweepOn, DeterministicOrderingAndJsonAcrossThreadCounts) {
  const std::vector<JobOutcome> base = run_small_spec(1);
  ASSERT_EQ(base.size(), 6u);
  EXPECT_EQ(base[0].label, "{<-}");
  EXPECT_EQ(base[5].kind, JobKind::kDepthSeries);
  const std::string base_json = spec_json(base);
  for (const int threads : {2, int(std::thread::hardware_concurrency())}) {
    const std::vector<JobOutcome> outcomes =
        run_small_spec(std::max(threads, 1));
    EXPECT_EQ(spec_json(outcomes), base_json)
        << "JSON differs at " << threads << " threads";
  }
}

TEST(RunSweepOn, JsonIdenticalUnderFinestChunking) {
  const std::string base_json = spec_json(run_small_spec(2));
  const std::string chunked_json =
      spec_json(run_small_spec(2, 1));
  EXPECT_EQ(chunked_json, base_json);
}

TEST(RunSweepOn, OnJobDoneHookSeesEveryJobExactlyOnceWithFinalAggregates) {
  for (const int threads : {1, 4}) {
    SweepSpec spec = small_spec();
    std::vector<int> calls(spec.jobs.size(), 0);
    std::vector<sweep::JobRecord> from_hook(spec.jobs.size());
    spec.on_job_done = [&](std::size_t j, const JobOutcome& outcome) {
      // Serialized by the engine's internal mutex; j indexes spec.jobs.
      ++calls[j];
      from_hook[j] = sweep::summarize(outcome);
    };
    ThreadPool pool(threads);
    const std::vector<JobOutcome> outcomes =
        sweep::run_sweep_on(spec, pool);
    ASSERT_EQ(outcomes.size(), from_hook.size());
    for (std::size_t j = 0; j < outcomes.size(); ++j) {
      EXPECT_EQ(calls[j], 1) << "job " << j << " at " << threads;
      EXPECT_EQ(from_hook[j], sweep::summarize(outcomes[j]))
          << "job " << j << " at " << threads;
    }
  }
}

TEST(RunSweepOn, SeriesContinuesPastSeparation) {
  SweepSpec spec;
  spec.name = "series";
  AnalysisOptions series;
  series.depth = 3;
  spec.jobs.push_back(make_series_job({"lossy_link", 2, 0b011}, series));
  ThreadPool pool(2);
  const auto outcomes = sweep::run_sweep_on(spec, pool);
  ASSERT_EQ(outcomes.size(), 1u);
  // The solvable pair separates at depth 1 but the series keeps going.
  ASSERT_EQ(outcomes[0].series.size(), 3u);
  EXPECT_TRUE(outcomes[0].series[0].separated);
  EXPECT_TRUE(outcomes[0].series[2].separated);
}

TEST(SweepRegistry, DisabledByDefaultAndRecordsInRunOrderWhenEnabled) {
  sweep::SweepRegistry::instance().clear();
  sweep::SweepRegistry::instance().set_enabled(false);
  ThreadPool pool(2);
  SweepSpec disabled_spec = small_spec();
  disabled_spec.jobs.resize(1);
  sweep::SweepRegistry::instance().record(
      disabled_spec.name, sweep::run_sweep_on(disabled_spec, pool));
  EXPECT_TRUE(sweep::SweepRegistry::instance().empty())
      << "registry retained outcomes while disabled";

  sweep::SweepRegistry::instance().set_enabled(true);
  SweepSpec spec = small_spec();
  spec.jobs.resize(2);
  const std::vector<JobOutcome> outcomes = sweep::run_sweep_on(spec, pool);
  sweep::SweepRegistry::instance().record("first", outcomes);
  sweep::SweepRegistry::instance().record("second", outcomes);
  std::ostringstream out;
  sweep::SweepRegistry::instance().write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("topocon-sweep-v1"), std::string::npos);
  EXPECT_LT(json.find("\"first\""), json.find("\"second\""));
  sweep::SweepRegistry::instance().clear();
  sweep::SweepRegistry::instance().set_enabled(false);
}

TEST(FamilyAdapters, BuildAndLabelEveryFamily) {
  EXPECT_EQ(family_point_label({"lossy_link", 2, 0b011}), "{<-, ->}");
  EXPECT_EQ(family_point_label({"omission", 3, 1}), "n=3 f=1");
  EXPECT_EQ(family_point_label({"heard_of", 2, 2}), "n=2 k=2");
  EXPECT_EQ(family_point_label({"windowed_lossy_link", 2, 3}), "w=3");
  EXPECT_EQ(family_point_label({"vssc", 2, 4}), "n=2 stability=4");
  EXPECT_EQ(make_family_adversary({"omission", 3, 1})->num_processes(), 3);
  EXPECT_FALSE(make_family_adversary({"vssc", 2, 2})->is_compact());
  EXPECT_THROW(make_family_adversary({"nope", 2, 0}), std::invalid_argument);
  EXPECT_THROW(make_family_adversary({"lossy_link", 3, 1}),
               std::invalid_argument);
}

TEST(JsonWriterTest, EscapesAndNests) {
  std::ostringstream out;
  JsonWriter writer(out);
  writer.begin_object();
  writer.member("a\"b\\c\n", 1);
  writer.key("list");
  writer.begin_array();
  writer.value("x");
  writer.value(true);
  writer.value(-7);
  writer.end_array();
  writer.end_object();
  EXPECT_EQ(out.str(),
            "{\n  \"a\\\"b\\\\c\\n\": 1,\n  \"list\": [\n    \"x\",\n"
            "    true,\n    -7\n  ]\n}");
}

// ---- run_sweep_on hooks -------------------------------------------------

TEST(RunSweepOn, StreamsHooksInOrder) {
  SweepSpec spec = small_spec();
  ThreadPool pool(2);
  std::vector<int> starts(spec.jobs.size(), 0);
  std::vector<std::vector<int>> depths(spec.jobs.size());
  std::vector<int> chunks(spec.jobs.size(), 0);
  std::vector<int> dones(spec.jobs.size(), 0);
  sweep::SweepHooks hooks;
  hooks.on_job_start = [&](std::size_t j, const sweep::SweepJob&) {
    ++starts[j];
  };
  hooks.on_depth = [&](std::size_t j, const DepthStats& stats) {
    depths[j].push_back(stats.depth);
  };
  hooks.on_chunk = [&](std::size_t j, const ChunkProgress& progress) {
    EXPECT_GT(progress.chunks_total, 0u);
    ++chunks[j];
  };
  hooks.on_job_done = [&](std::size_t j, const JobOutcome&) { ++dones[j]; };
  const std::vector<JobOutcome> outcomes =
      sweep::run_sweep_on(spec, pool, hooks);
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    EXPECT_EQ(starts[j], 1) << "job " << j;
    EXPECT_EQ(dones[j], 1) << "job " << j;
    EXPECT_GT(chunks[j], 0) << "job " << j << " streamed no chunk events";
    // One on_depth per completed depth, in depth order.
    const std::vector<DepthStats>& stats =
        outcomes[j].kind == JobKind::kDepthSeries
            ? outcomes[j].series
            : outcomes[j].result.per_depth;
    ASSERT_EQ(depths[j].size(), stats.size()) << "job " << j;
    for (std::size_t d = 0; d < stats.size(); ++d) {
      EXPECT_EQ(depths[j][d], stats[d].depth);
    }
  }
}

TEST(RunSweepOn, DecisionTableJobExtractsRoundProfile) {
  SweepSpec spec;
  spec.name = "extract";
  sweep::SweepJob job;
  job.point = {"lossy_link", 2, 0b011};
  job.kind = sweep::JobKind::kDecisionTable;
  job.solve.max_depth = 5;
  job.solve.build_table = false;  // forced on by the engine for this kind
  spec.jobs.push_back(job);
  ThreadPool pool(2);
  const std::vector<JobOutcome> outcomes = sweep::run_sweep_on(spec, pool);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].result.table.has_value());
  const sweep::JobRecord record = sweep::summarize(outcomes[0]);
  ASSERT_TRUE(record.table.has_value());
  std::uint64_t total = 0;
  for (const std::uint64_t entries : record.round_entries) {
    total += entries;
  }
  EXPECT_EQ(total, record.table->entries);
  EXPECT_EQ(record.per_depth.size(), 0u)
      << "extraction records carry the table shape, not search stats";
}

}  // namespace
}  // namespace topocon
