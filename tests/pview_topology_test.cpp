// Tests for the P-view-topology analysis mode (Section 4.1 / 5.2):
// component structure under d_P for various P, and the ordering
//   components(d_min) <= components(d_{p}) <= components(d_max)
// that makes the minimum topology the (only) correct characterization
// topology -- single-process and common-prefix topologies over-separate.
#include <set>

#include <gtest/gtest.h>

#include "adversary/lossy_link.hpp"
#include "core/epsilon_approx.hpp"

namespace topocon {
namespace {

AnalysisOptions pview(int depth, NodeMask pset) {
  AnalysisOptions options;
  options.depth = depth;
  options.keep_levels = false;
  options.topology = AdjacencyTopology::kPView;
  options.pview_set = pset;
  return options;
}

AnalysisOptions min_topology(int depth) {
  AnalysisOptions options;
  options.depth = depth;
  options.keep_levels = false;
  return options;
}

TEST(PViewTopology, FullSetGivesDiscreteComponents) {
  // d_[n] = d_max: two leaves are adjacent iff ALL views coincide, i.e.,
  // iff they are the same deduplicated leaf -- every component singleton.
  const auto ma = make_lossy_link(0b111);
  const DepthAnalysis analysis = analyze_depth(*ma, pview(3, 0b11));
  EXPECT_EQ(analysis.components.size(), analysis.leaves().size());
  // In particular d_max "separates" the valences even though consensus is
  // impossible: common-prefix separation is not a solvability criterion.
  EXPECT_TRUE(analysis.valence_separated);
}

TEST(PViewTopology, SingleProcessRefinesMin) {
  const auto ma = make_lossy_link(0b111);
  for (int depth = 1; depth <= 4; ++depth) {
    const DepthAnalysis min_analysis =
        analyze_depth(*ma, min_topology(depth));
    const DepthAnalysis p0 = analyze_depth(*ma, pview(depth, 0b01));
    const DepthAnalysis p1 = analyze_depth(*ma, pview(depth, 0b10));
    const DepthAnalysis both = analyze_depth(*ma, pview(depth, 0b11));
    EXPECT_LE(min_analysis.components.size(), p0.components.size());
    EXPECT_LE(min_analysis.components.size(), p1.components.size());
    EXPECT_LE(p0.components.size(), both.components.size());
    EXPECT_LE(p1.components.size(), both.components.size());
  }
}

TEST(PViewTopology, SingleProcessComponentsAreViewClasses) {
  const auto ma = make_lossy_link(0b011);
  const DepthAnalysis analysis = analyze_depth(*ma, pview(2, 0b01));
  // Components = distinct view ids of process 0 at depth 2.
  std::set<ViewId> distinct;
  for (std::size_t i = 0; i < analysis.leaves().size(); ++i) {
    distinct.insert(analysis.leaves().views(i)[0]);
  }
  EXPECT_EQ(analysis.components.size(), distinct.size());
}

TEST(PViewTopology, OverSeparationIsNotSolvability) {
  // Under d_{1} the full lossy link already separates the valences (x1 is
  // always in process 1's view), yet consensus is impossible: only the
  // minimum topology's verdict matters.
  const auto ma = make_lossy_link(0b111);
  const DepthAnalysis under_p1 = analyze_depth(*ma, pview(2, 0b10));
  EXPECT_TRUE(under_p1.valence_separated);
  const DepthAnalysis under_min = analyze_depth(*ma, min_topology(2));
  EXPECT_FALSE(under_min.valence_separated);
}

TEST(PViewTopology, MatchesMinForSingletonAlphabetStructure) {
  // For {<->} everything is common knowledge after round 1: the joint
  // topologies coincide with the min topology at depth >= 1.
  const auto ma = make_lossy_link(0b100);
  const DepthAnalysis min_analysis = analyze_depth(*ma, min_topology(2));
  const DepthAnalysis both = analyze_depth(*ma, pview(2, 0b11));
  EXPECT_EQ(min_analysis.components.size(), both.components.size());
}

}  // namespace
}  // namespace topocon
