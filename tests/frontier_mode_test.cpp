// The adaptive frontier representation (core/frontier.cpp): forcing the
// dense direct-indexed dedup tables, forcing the sparse open-addressed
// ones, and letting the per-chunk heuristic choose must all produce the
// IDENTICAL DepthAnalysis -- every level, link, multiplicity, component,
// and even the interner's id assignment order. The representation is an
// execution detail like chunk size and thread count; these tests are the
// unit-level enforcement of the golden --frontier=dense/sparse CI lanes.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/family.hpp"
#include "adversary/omission.hpp"
#include "analysis_compare.hpp"
#include "core/epsilon_approx.hpp"
#include "core/frontier.hpp"
#include "scenario/fuzz.hpp"

namespace topocon {
namespace {

DepthAnalysis run_with(const MessageAdversary& adversary,
                       const AnalysisOptions& options, FrontierMode mode) {
  return analyze_depth(adversary, options, nullptr, {.frontier = mode});
}

using test_support::expect_analyses_identical;

TEST(FrontierModeNames, ParseAndPrintRoundTrip) {
  EXPECT_EQ(frontier_mode_from_name("auto"), FrontierMode::kAuto);
  EXPECT_EQ(frontier_mode_from_name("dense"), FrontierMode::kDense);
  EXPECT_EQ(frontier_mode_from_name("sparse"), FrontierMode::kSparse);
  EXPECT_FALSE(frontier_mode_from_name("bitset").has_value());
  EXPECT_FALSE(frontier_mode_from_name("").has_value());
  EXPECT_FALSE(frontier_mode_from_name("Dense").has_value());
  EXPECT_STREQ(to_string(FrontierMode::kAuto), "auto");
  EXPECT_STREQ(to_string(FrontierMode::kDense), "dense");
  EXPECT_STREQ(to_string(FrontierMode::kSparse), "sparse");
}

TEST(FrontierMode, OmissionAnalysisIsIdenticalAcrossRepresentations) {
  // The tentpole workload shape: omission n=3 has the 22-letter alphabet
  // and the frontier growth the dense path is built for.
  const auto ma = make_omission_adversary(3, 2);
  AnalysisOptions options;
  options.depth = 3;
  options.max_states = 6'000'000;
  const DepthAnalysis sparse = run_with(*ma, options, FrontierMode::kSparse);
  const DepthAnalysis dense = run_with(*ma, options, FrontierMode::kDense);
  const DepthAnalysis adaptive = run_with(*ma, options, FrontierMode::kAuto);
  expect_analyses_identical(sparse, dense, "dense vs sparse");
  expect_analyses_identical(sparse, adaptive, "auto vs sparse");
  EXPECT_GT(sparse.leaves().size(), 10'000u);  // non-trivial workload
}

TEST(FrontierMode, ComposedFuzzPointsAreIdenticalAcrossRepresentations) {
  // Two seeded composed adversaries: product/union/window compositions
  // exercise virtual transitions and non-trivial safety automata, i.e.
  // the dense state table's adversary prescan.
  scenario::FuzzSpec spec;
  spec.seed = 6;
  spec.count = 2;
  for (const FamilyPoint& point : scenario::fuzz_points(spec)) {
    const auto ma = make_family_adversary(point);
    AnalysisOptions options;
    options.depth = 3;
    const DepthAnalysis sparse =
        run_with(*ma, options, FrontierMode::kSparse);
    const DepthAnalysis dense = run_with(*ma, options, FrontierMode::kDense);
    const DepthAnalysis adaptive =
        run_with(*ma, options, FrontierMode::kAuto);
    expect_analyses_identical(sparse, dense, point.family.c_str());
    expect_analyses_identical(sparse, adaptive, point.family.c_str());
  }
}

TEST(FrontierMode, DefaultExecutionOptionsUseTheAutoHeuristic) {
  // An ExecutionOptions left at its defaults (what `topocon run` uses
  // without --frontier) picks kAuto; a run with a forced mode before it
  // leaves nothing behind, so the default analysis bytes cannot change.
  EXPECT_EQ(ExecutionOptions{}.frontier, FrontierMode::kAuto);
  const auto ma = make_omission_adversary(2, 1);
  AnalysisOptions options;
  options.depth = 4;
  const DepthAnalysis sparse = run_with(*ma, options, FrontierMode::kSparse);
  for (const FrontierMode forced :
       {FrontierMode::kDense, FrontierMode::kSparse, FrontierMode::kAuto}) {
    run_with(*ma, options, forced);
    expect_analyses_identical(sparse, analyze_depth(*ma, options),
                              to_string(forced));
  }
}

}  // namespace
}  // namespace topocon
