// Field-by-field DepthAnalysis comparison shared by the differential
// suites: flat levels row by row, CSR children, first_parent links,
// multiplicities, truncation, components, flags, and interner size.
// Failures report the first mismatching row only, so a broken level
// does not flood the log with millions of lines.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "core/epsilon_approx.hpp"

namespace topocon::test_support {

/// How view ids must agree between the two analyses.
enum class ViewIds {
  /// Identical ids: the same interner id assignment order.
  kExact,
  /// Ids may be renamed, but consistently: one bijection per analysis
  /// pair maps every view id of `a` to the id of `b` at the same
  /// (level, row, process) position. Used where the two sides intern in
  /// different but equally valid orders (serial scan vs root-major
  /// absorb).
  kRelabeled,
};

inline void expect_levels_equal(const FlatLevel& a, const FlatLevel& b,
                                const std::string& what) {
  ASSERT_EQ(a.n, b.n) << what;
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(a.root_inputs, b.root_inputs) << what;
  EXPECT_EQ(a.root_offsets, b.root_offsets) << what;
  EXPECT_EQ(a.multiplicity, b.multiplicity) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool same = a.adv_state(i) == b.adv_state(i) &&
                      std::ranges::equal(a.reach(i), b.reach(i));
    if (!same) {
      ADD_FAILURE() << what << ": adv state or reach differs at row " << i;
      return;
    }
  }
}

/// Checks that every view id of `a` maps to one id of `b` and back.
class ViewRelabeling {
 public:
  bool consistent(ViewId from, ViewId to) {
    const auto [f, f_new] = forward_.try_emplace(from, to);
    const auto [r, r_new] = backward_.try_emplace(to, from);
    return f->second == to && r->second == from;
  }

 private:
  std::unordered_map<ViewId, ViewId> forward_;
  std::unordered_map<ViewId, ViewId> backward_;
};

/// `a_is_reference_scan` marks `a` as an analyze_depth_oracle result; see
/// the interner-size check below.
inline void expect_analyses_identical(const DepthAnalysis& a,
                                      const DepthAnalysis& b,
                                      const std::string& what,
                                      ViewIds ids = ViewIds::kExact,
                                      bool a_is_reference_scan = false) {
  EXPECT_EQ(a.depth, b.depth) << what;
  EXPECT_EQ(a.truncated, b.truncated) << what;
  EXPECT_EQ(a.num_processes, b.num_processes) << what;
  ASSERT_EQ(a.levels.size(), b.levels.size()) << what;
  ViewRelabeling relabeling;
  for (std::size_t s = 0; s < a.levels.size(); ++s) {
    std::string level = what;
    level += " level ";
    level += std::to_string(s);
    expect_levels_equal(a.levels[s], b.levels[s], level);
    if (::testing::Test::HasFatalFailure()) return;
    for (std::size_t i = 0; i < a.levels[s].size(); ++i) {
      const auto va = a.levels[s].views(i);
      const auto vb = b.levels[s].views(i);
      bool same = true;
      for (std::size_t p = 0; p < va.size() && same; ++p) {
        same = ids == ViewIds::kExact ? va[p] == vb[p]
                                      : relabeling.consistent(va[p], vb[p]);
      }
      if (!same) {
        ADD_FAILURE() << level << ": view ids differ at row " << i;
        break;
      }
    }
  }
  EXPECT_EQ(a.children, b.children) << what;
  EXPECT_EQ(a.first_parent, b.first_parent) << what;
  EXPECT_EQ(a.leaf_component, b.leaf_component) << what;
  EXPECT_EQ(a.components, b.components) << what;
  EXPECT_EQ(a.valence_separated, b.valence_separated) << what;
  EXPECT_EQ(a.merged_components, b.merged_components) << what;
  EXPECT_EQ(a.valent_broadcastable, b.valent_broadcastable) << what;
  EXPECT_EQ(a.strong_assignable, b.strong_assignable) << what;
  ASSERT_NE(a.interner, nullptr) << what;
  ASSERT_NE(b.interner, nullptr) << what;
  // The reference scan interns views as it emits them, so after a
  // truncation its interner also holds part of the overflowing level;
  // the engines never intern a level before it fits the budget.
  if (!(a_is_reference_scan && a.truncated)) {
    EXPECT_EQ(a.interner->size(), b.interner->size()) << what;
  }
}

}  // namespace topocon::test_support
