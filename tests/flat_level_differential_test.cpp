// Differential test for the flat-level layout: the chunk-sharded
// analyze_depth on a pool (per-root engines, parallel root merge, parallel
// components) must equal the single-scan reference analyze_depth_oracle
// field for field -- flat rows, root tables, multiplicities, CSR
// children, first_parent links, truncation, components, and flags --
// at every thread count, chunk size, and keep_levels setting. View ids
// are compared up to one consistent relabeling (the oracle interns level
// by level, the parallel merge root by root); the parallel interner's own
// id assignment order must be identical across every configuration.
#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/family.hpp"
#include "adversary/omission.hpp"
#include "analysis_compare.hpp"
#include "core/epsilon_approx.hpp"
#include "runtime/sweep/thread_pool.hpp"
#include "scenario/fuzz.hpp"

namespace topocon {
namespace {

using test_support::expect_analyses_identical;
using test_support::ViewIds;

/// Every interned view, in id order, must be the same view.
void expect_same_interner_order(const ViewInterner& a, const ViewInterner& b,
                                const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t id = 0; id < a.size(); ++id) {
    const ViewInterner::Node x = a.node(static_cast<ViewId>(id));
    const ViewInterner::Node y = b.node(static_cast<ViewId>(id));
    const bool same = x.process == y.process && x.depth == y.depth &&
                      x.input == y.input && x.mask == y.mask &&
                      std::ranges::equal(x.senders, y.senders);
    if (!same) {
      ADD_FAILURE() << what << ": interner differs at id " << id;
      return;
    }
  }
}

/// Runs the parallel analysis at threads {1, 2, 8} x chunk {1, default}
/// and checks each run against the oracle and against the first run.
void expect_parallel_matches_oracle(const MessageAdversary& adversary,
                                    AnalysisOptions options,
                                    const std::string& label) {
  for (const bool keep_levels : {true, false}) {
    options.keep_levels = keep_levels;
    const DepthAnalysis oracle = analyze_depth_oracle(adversary, options);
    std::string context = label;
    context += keep_levels ? " keep_levels" : " leaves only";
    std::optional<DepthAnalysis> first;
    for (const int threads : {1, 2, 8}) {
      sweep::ThreadPool pool(threads);
      for (const std::size_t chunk :
           {std::size_t{1}, ExecutionOptions{}.chunk_states}) {
        DepthAnalysis parallel = analyze_depth(
            adversary, options, nullptr,
            {.parallel_for = sweep::parallel_for_of(pool),
             .chunk_states = chunk});
        std::string what = context;
        what += " threads=" + std::to_string(threads);
        what += " chunk=" + std::to_string(chunk);
        expect_analyses_identical(oracle, parallel, what,
                                  ViewIds::kRelabeled,
                                  /*a_is_reference_scan=*/true);
        if (!first) {
          first = std::move(parallel);
          continue;
        }
        expect_analyses_identical(*first, parallel, what, ViewIds::kExact);
        expect_same_interner_order(*first->interner, *parallel.interner,
                                   what);
      }
    }
  }
}

TEST(FlatLevelDifferential, OmissionN4F2Depth2MatchesOracle) {
  const auto ma = make_omission_adversary(4, 2);
  AnalysisOptions options;
  options.depth = 2;
  expect_parallel_matches_oracle(*ma, options, "omission(4,2) depth 2");
}

TEST(FlatLevelDifferential, ComposedFuzzPointsMatchOracle) {
  scenario::FuzzSpec spec;
  spec.seed = 13;
  spec.n = 3;
  spec.count = 10;
  for (const FamilyPoint& point : scenario::fuzz_points(spec)) {
    const auto ma = make_family_adversary(point);
    AnalysisOptions options;
    options.depth = 2;
    options.max_states = 200'000;
    expect_parallel_matches_oracle(*ma, options, family_point_label(point));
  }
}

TEST(FlatLevelDifferential, TruncatedLevelMatchesOracle) {
  // Level 2 of omission(3,2) has 3872 classes: a 1000-state budget
  // truncates there and keeps level 1.
  const auto ma = make_omission_adversary(3, 2);
  AnalysisOptions options;
  options.depth = 3;
  options.max_states = 1000;
  expect_parallel_matches_oracle(*ma, options, "omission(3,2) truncated");
}

}  // namespace
}  // namespace topocon
