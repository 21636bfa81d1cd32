// Randomized differential test of the chunk-sharded engine: ~200 random
// compact (oblivious) adversaries with n <= 3 and depth <= 4, each checked
// by the reference checker (check_solvability_oracle, the single-scan
// expansion) and by the engine, inline and on a pool at a rotating thread
// count. Verdicts, per-depth statistics, leaf partitions, and component
// structures must agree exactly (the engine's contract is bit-identical
// results, not just equal verdicts).
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/oblivious.hpp"
#include "core/solvability.hpp"
#include "graph/enumerate.hpp"
#include "runtime/sweep/thread_pool.hpp"

namespace topocon {
namespace {

std::unique_ptr<ObliviousAdversary> random_oblivious(std::mt19937& rng,
                                                     int n) {
  const std::vector<Digraph> universe = all_graphs(n);
  std::uniform_int_distribution<std::size_t> graph_count(1, 5);
  std::uniform_int_distribution<std::size_t> pick(0, universe.size() - 1);
  const std::size_t count = graph_count(rng);
  std::vector<Digraph> alphabet;
  for (std::size_t i = 0; i < count; ++i) {
    const Digraph& g = universe[pick(rng)];
    bool duplicate = false;
    for (const Digraph& have : alphabet) {
      if (have == g) duplicate = true;
    }
    if (!duplicate) alphabet.push_back(g);
  }
  return std::make_unique<ObliviousAdversary>(n, std::move(alphabet),
                                              "random-oblivious");
}

void expect_equal_results(const SolvabilityResult& reference,
                          const SolvabilityResult& candidate,
                          const std::string& what) {
  ASSERT_EQ(candidate.verdict, reference.verdict) << "case " << what;
  EXPECT_EQ(candidate.certified_depth, reference.certified_depth)
      << "case " << what;
  ASSERT_EQ(candidate.per_depth.size(), reference.per_depth.size());
  for (std::size_t d = 0; d < reference.per_depth.size(); ++d) {
    const DepthStats& a = reference.per_depth[d];
    const DepthStats& b = candidate.per_depth[d];
    EXPECT_EQ(a.num_leaf_classes, b.num_leaf_classes)
        << "case " << what << " depth " << a.depth;
    EXPECT_EQ(a.num_components, b.num_components);
    EXPECT_EQ(a.merged_components, b.merged_components);
    EXPECT_EQ(a.separated, b.separated);
    EXPECT_EQ(a.valent_broadcastable, b.valent_broadcastable);
    EXPECT_EQ(a.strong_assignable, b.strong_assignable);
    EXPECT_EQ(a.interner_views, b.interner_views);
  }
  ASSERT_EQ(candidate.analysis.has_value(), reference.analysis.has_value());
  if (reference.analysis.has_value()) {
    const DepthAnalysis& sa = *reference.analysis;
    const DepthAnalysis& pa = *candidate.analysis;
    EXPECT_EQ(pa.depth, sa.depth);
    EXPECT_EQ(pa.truncated, sa.truncated);
    EXPECT_EQ(pa.leaf_component, sa.leaf_component) << "case " << what;
    ASSERT_EQ(pa.components.size(), sa.components.size());
    for (std::size_t c = 0; c < sa.components.size(); ++c) {
      const ComponentInfo& x = sa.components[c];
      const ComponentInfo& y = pa.components[c];
      EXPECT_EQ(x.num_leaves, y.num_leaves);
      EXPECT_EQ(x.valence_mask, y.valence_mask);
      EXPECT_EQ(x.common_broadcast, y.common_broadcast);
      EXPECT_EQ(x.broadcasters, y.broadcasters);
      EXPECT_EQ(x.common_input_values, y.common_input_values);
      EXPECT_EQ(x.assigned_value, y.assigned_value);
      EXPECT_EQ(x.assigned_value_strong, y.assigned_value_strong);
    }
  }
  ASSERT_EQ(candidate.table.has_value(), reference.table.has_value());
  if (reference.table.has_value()) {
    EXPECT_EQ(candidate.table->size(), reference.table->size());
    EXPECT_EQ(candidate.table->worst_case_decision_round(),
              reference.table->worst_case_decision_round());
    EXPECT_EQ(candidate.table->depth(), reference.table->depth());
  }
}

TEST(SweepDifferential, RandomCompactAdversaries) {
  std::mt19937 rng(20250729);
  const int cases = 200;
  for (int i = 0; i < cases; ++i) {
    const int n = 2 + static_cast<int>(rng() % 2);
    const auto ma = random_oblivious(rng, n);
    SolvabilityOptions options;
    options.max_depth = 1 + static_cast<int>(rng() % 4);
    options.num_values = 2 + static_cast<int>(rng() % 2);
    options.max_states = 500'000;
    options.build_table = (rng() % 2) == 0;
    options.strong_validity = (rng() % 4) == 0;

    const SolvabilityResult oracle = check_solvability_oracle(*ma, options);
    const SolvabilityResult inline_run = check_solvability(*ma, options);
    sweep::ThreadPool pool(2 + static_cast<int>(i % 3));
    const SolvabilityResult parallel = check_solvability(
        *ma, options, {.parallel_for = sweep::parallel_for_of(pool)});
    const std::string what = std::to_string(i);
    expect_equal_results(oracle, inline_run, what + " (oracle vs inline)");
    expect_equal_results(oracle, parallel, what + " (oracle vs pool)");
  }
}

}  // namespace
}  // namespace topocon
