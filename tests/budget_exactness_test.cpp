// Exactness of the engine's level budget (FrontierBudget and the
// lower-bound decision in analyze_depth, core/epsilon_approx.cpp). Around the
// first level that overflows max_states -- one state below, at, and above
// its merged size, plus a budget the per-root lower bound proves and one
// only the root-granular retry can decide -- the chunk-sharded engine
// must match the reference scan: the truncated analysis field for field,
// the SolvabilityResult, and commit-only telemetry with exactly one
// budget_early_aborts tick per truncated level, at threads {1, 2, 8} x
// chunk {1, 64, default}. Per-chunk progress shows which levels ran the
// retry pass.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/family.hpp"
#include "adversary/omission.hpp"
#include "analysis_compare.hpp"
#include "core/epsilon_approx.hpp"
#include "core/frontier.hpp"
#include "core/solvability.hpp"
#include "engine_steps.hpp"
#include "graph/enumerate.hpp"
#include "ptg/prefix.hpp"
#include "runtime/sweep/thread_pool.hpp"
#include "scenario/fuzz.hpp"
#include "telemetry/metrics.hpp"

namespace topocon {
namespace {

using test_support::expect_analyses_identical;
using test_support::ViewIds;
using telemetry::TelemetryCounters;

constexpr std::size_t kUnbounded = std::size_t{1} << 40;

ExecutionOptions on_pool(sweep::ThreadPool& pool, std::size_t chunk_states) {
  return {.parallel_for = sweep::parallel_for_of(pool),
          .chunk_states = chunk_states};
}

/// What the budget decision of `level` sees at a given chunk size,
/// measured with unbudgeted per-root engines (the parallel engine's
/// shards): every chunk's full class count.
struct LevelFacts {
  std::uint64_t previous = 0;     ///< merged size of level - 1
  std::uint64_t merged = 0;       ///< merged size of level
  std::uint64_t chunk_sum = 0;    ///< sum of every chunk's count
  std::uint64_t lower_bound = 0;  ///< sum over roots of the largest chunk
  std::uint64_t first_wave = 0;   ///< sum over roots of chunk 0's count
  std::size_t roots = 0;
  std::size_t chunks = 0;         ///< chunks over all roots
};

LevelFacts level_facts(const MessageAdversary& adversary, int level,
                       std::size_t chunk_states) {
  AnalysisOptions options;
  options.depth = level;
  options.max_states = kUnbounded;
  options.keep_levels = false;
  const std::size_t num_roots =
      all_input_vectors(adversary.num_processes(), options.num_values).size();
  LevelFacts facts;
  facts.roots = num_roots;
  for (std::size_t r = 0; r < num_roots; ++r) {
    ViewInterner interner;
    FrontierEngine engine(adversary, options, interner, static_cast<int>(r),
                          static_cast<int>(r) + 1);
    for (int s = 1; s < level; ++s) {
      test_support::advance_level(engine, chunk_states);
    }
    facts.previous += engine.frontier().size();
    std::uint64_t largest = 0;
    bool first = true;
    for (const FrontierChunk& chunk : engine.partition(chunk_states)) {
      const std::uint64_t count = engine.expand(chunk).stats.pending_states;
      facts.chunk_sum += count;
      largest = std::max(largest, count);
      if (first) facts.first_wave += count;
      first = false;
      ++facts.chunks;
    }
    facts.lower_bound += largest;
    test_support::advance_level(engine, chunk_states);
    facts.merged += engine.frontier().size();
  }
  return facts;
}

/// Counts the expansion passes per (depth, level): a level whose budget
/// fell back to the root-granular retry runs two.
class PassCounter {
 public:
  ExecutionOptions execution(sweep::ThreadPool& pool,
                             std::size_t chunk_states) {
    ExecutionOptions options = on_pool(pool, chunk_states);
    options.on_chunk = [this](const ChunkProgress& progress) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (progress.chunks_done == 1) {
        ++passes_[{progress.depth, progress.level}];
      }
    };
    return options;
  }
  int passes(int depth, int level) const {
    const auto it = passes_.find({depth, level});
    return it == passes_.end() ? 0 : it->second;
  }

 private:
  std::mutex mutex_;
  std::map<std::pair<int, int>, int> passes_;
};

void expect_same_result(const SolvabilityResult& expected,
                        const SolvabilityResult& got,
                        const std::string& what) {
  EXPECT_EQ(got.verdict, expected.verdict) << what;
  EXPECT_EQ(got.certified_depth, expected.certified_depth) << what;
  EXPECT_EQ(got.closure_only, expected.closure_only) << what;
  EXPECT_EQ(got.per_depth, expected.per_depth) << what;
}

/// Runs every budget of interest around `level` (the first level that
/// overflows it) through the parallel engine and checks it against the
/// reference scan, the inline checker, and the budget decision it must
/// have taken.
void expect_budget_exact(const MessageAdversary& adversary, int level,
                         const std::string& label) {
  const std::vector<int> thread_counts = {1, 2, 8};
  const std::vector<std::size_t> chunks = {1, 64,
                                           ExecutionOptions{}.chunk_states};
  std::map<std::size_t, LevelFacts> facts_of;
  std::set<std::uint64_t> budgets;
  for (const std::size_t chunk : chunks) {
    const LevelFacts facts = level_facts(adversary, level, chunk);
    ASSERT_LT(facts.previous, facts.merged) << label;
    facts_of[chunk] = facts;
    budgets.insert({facts.merged - 1, facts.merged, facts.merged + 1});
    // A budget only the lower bound can prove: below chunk 0's total,
    // so at one thread the budget trips before any root's second chunk
    // is claimed and the tripped sum is the bound.
    if (facts.first_wave > facts.previous &&
        facts.first_wave - 1 < facts.merged) {
      budgets.insert(facts.first_wave - 1);
    }
    // A budget only the retry can decide: the chunk sum exceeds it, the
    // bound never can.
    const std::uint64_t undecided =
        std::max(facts.lower_bound, facts.previous);
    if (undecided < facts.merged && undecided < facts.chunk_sum) {
      budgets.insert(undecided);
    }
  }
  const std::uint64_t merged = facts_of[chunks.front()].merged;

  for (const std::uint64_t budget : budgets) {
    AnalysisOptions options;
    options.depth = level;
    options.max_states = budget;
    const bool overflows = budget < merged;
    const DepthAnalysis oracle = analyze_depth_oracle(adversary, options);
    ASSERT_EQ(oracle.truncated, overflows) << label;

    SolvabilityOptions solve;
    solve.max_depth = level;
    solve.max_states = budget;
    solve.build_table = false;
    const SolvabilityResult reference =
        check_solvability_oracle(adversary, solve);
    expect_same_result(reference, check_solvability(adversary, solve),
                       label + " inline checker");

    for (const std::size_t chunk : chunks) {
      const LevelFacts& facts = facts_of[chunk];
      // Telemetry reference: a committed level's counters do not depend
      // on the thread count, and the doomed level adds only the tick.
      sweep::ThreadPool serial_pool(1);
      telemetry::MetricsRegistry committed_registry;
      AnalysisOptions committed = options;
      committed.metrics = &committed_registry;
      if (overflows) committed.depth = level - 1;
      analyze_depth(adversary, committed, nullptr,
                    on_pool(serial_pool, chunk));
      TelemetryCounters expected_counters =
          committed_registry.snapshot().counters;
      if (overflows) expected_counters.budget_early_aborts = 1;

      for (const int threads : thread_counts) {
        std::string what = label;
        what += " budget=" + std::to_string(budget);
        what += " chunk=" + std::to_string(chunk);
        what += " threads=" + std::to_string(threads);
        sweep::ThreadPool pool(threads);
        PassCounter passes;
        telemetry::MetricsRegistry registry;
        AnalysisOptions metered = options;
        metered.metrics = &registry;
        const DepthAnalysis parallel = analyze_depth(
            adversary, metered, nullptr, passes.execution(pool, chunk));
        expect_analyses_identical(oracle, parallel, what, ViewIds::kRelabeled,
                                  /*a_is_reference_scan=*/true);
        const TelemetryCounters counters = registry.snapshot().counters;
        EXPECT_EQ(counters, expected_counters) << what;
        EXPECT_EQ(counters.budget_early_aborts, overflows ? 1u : 0u) << what;

        // The decision at `level`: without a trip it fits in one pass; a
        // trip the bound cannot prove needs the retry; at one thread a
        // budget below chunk 0's total is proven by the first wave; with
        // one chunk per root the bound is exact and always decides.
        const int level_passes = passes.passes(level, level);
        if (facts.chunk_sum <= budget) {
          EXPECT_EQ(level_passes, 1) << what << " (fits in one pass)";
        } else if (facts.lower_bound <= budget) {
          EXPECT_EQ(level_passes, 2) << what << " (only the retry decides)";
        } else if (threads == 1 && budget < facts.first_wave) {
          EXPECT_EQ(level_passes, 1) << what << " (the bound proves it)";
        }
        if (facts.chunks == facts.roots) {
          EXPECT_EQ(level_passes, 1) << what << " (one chunk per root)";
        }

        expect_same_result(
            reference,
            check_solvability(adversary, solve, on_pool(pool, chunk)),
            what + " parallel checker");
      }
    }
  }
}

TEST(BudgetExactness, OmissionN3F1Level4) {
  const auto ma = make_omission_adversary(3, 1);
  expect_budget_exact(*ma, 4, "omission(3,1)");
}

TEST(BudgetExactness, OmissionN3F2Level2) {
  const auto ma = make_omission_adversary(3, 2);
  expect_budget_exact(*ma, 2, "omission(3,2)");
}

/// Test-local adversary whose chunks overcount: every graph is offered
/// twice, the two copies lead to different states, and the next round
/// forgets which copy was played. Two level-1 classes then share every
/// level-2 child, so chunk counts sum past the merged level and only the
/// retry can tell whether it fits.
class TwinLetterAdversary : public MessageAdversary {
 public:
  explicit TwinLetterAdversary(const std::vector<Digraph>& graphs)
      : MessageAdversary(graphs.front().num_processes(), twice(graphs),
                         "twin-letter") {}
  AdvState transition(AdvState state, int letter) const override {
    return state == 0 ? 1 + letter % 2 : 0;
  }

 private:
  static std::vector<Digraph> twice(const std::vector<Digraph>& graphs) {
    std::vector<Digraph> letters;
    for (const Digraph& g : graphs) {
      letters.push_back(g);
      letters.push_back(g);
    }
    return letters;
  }
};

TEST(BudgetExactness, OvercountingChunksFallBackToTheRetry) {
  const TwinLetterAdversary ma(graphs_with_max_omissions(3, 1));
  const LevelFacts facts = level_facts(ma, 2, 1);
  ASSERT_GT(facts.chunk_sum, facts.merged);  // the overcount is real
  expect_budget_exact(ma, 2, "twin-letter omission(3,1)");
}

TEST(BudgetExactness, ComposedFuzzPoints) {
  // Only points whose level 2 outgrows level 1 can first overflow there.
  scenario::FuzzSpec spec;
  spec.seed = 13;
  spec.n = 3;
  spec.count = 10;
  int checked = 0;
  for (const FamilyPoint& point : scenario::fuzz_points(spec)) {
    const auto ma = make_family_adversary(point);
    const LevelFacts facts = level_facts(*ma, 2, 0);
    if (facts.previous >= facts.merged) continue;
    expect_budget_exact(*ma, 2, family_point_label(point));
    if (++checked == 3) break;
  }
  EXPECT_EQ(checked, 3);
}

}  // namespace
}  // namespace topocon
