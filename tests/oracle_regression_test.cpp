// Oracle regression tables: the paper results reproduced by this library,
// pinned as explicit EXPECT_EQ tables against BOTH the reference checker
// (check_solvability_oracle, the single-scan expansion) and the engine
// run as a sweep through the api facade, so an engine or checker refactor
// cannot silently flip a reproduced ground truth. Sources:
// Santoro-Widmayer [21] and CGP [8] for the lossy link, [21, 22] for
// per-round omissions, Biely et al. [6] / Winkler et al. [23] for VSSC,
// Charron-Bost & Schiper [7] for Heard-Of.
#include <memory>

#include <gtest/gtest.h>

#include "adversary/family.hpp"
#include "analysis/oracles.hpp"
#include "api/api.hpp"
#include "core/solvability.hpp"

namespace topocon {
namespace {

struct PinnedRow {
  FamilyPoint point;
  SolvabilityVerdict verdict;
  int certified_depth;  // -1 when not solvable
};

void check_rows(const std::vector<PinnedRow>& rows,
                const SolvabilityOptions& options) {
  // Reference checker.
  for (const PinnedRow& row : rows) {
    const auto ma = make_family_adversary(row.point);
    const SolvabilityResult result = check_solvability_oracle(*ma, options);
    EXPECT_EQ(result.verdict, row.verdict) << family_point_label(row.point);
    EXPECT_EQ(result.certified_depth, row.certified_depth)
        << family_point_label(row.point);
  }
  // Engine, all rows as one sweep through the api facade.
  api::Session session({.record_global = false});
  std::vector<api::Query> queries;
  for (const PinnedRow& row : rows) {
    queries.push_back(api::solvability(row.point, options));
  }
  const auto outcomes = session.run("oracle-regression", queries);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(outcomes[i].result.verdict, rows[i].verdict)
        << outcomes[i].label;
    EXPECT_EQ(outcomes[i].result.certified_depth, rows[i].certified_depth)
        << outcomes[i].label;
  }
}

// Santoro-Widmayer / CGP: over subsets of {<-, ->, <->}, consensus is
// impossible exactly for the full set. All six solvable subsets certify
// at depth 1.
TEST(OracleRegression, LossyLinkTable) {
  const std::vector<PinnedRow> rows = {
      {{"lossy_link", 2, 0b001}, SolvabilityVerdict::kSolvable, 1},
      {{"lossy_link", 2, 0b010}, SolvabilityVerdict::kSolvable, 1},
      {{"lossy_link", 2, 0b011}, SolvabilityVerdict::kSolvable, 1},
      {{"lossy_link", 2, 0b100}, SolvabilityVerdict::kSolvable, 1},
      {{"lossy_link", 2, 0b101}, SolvabilityVerdict::kSolvable, 1},
      {{"lossy_link", 2, 0b110}, SolvabilityVerdict::kSolvable, 1},
      {{"lossy_link", 2, 0b111}, SolvabilityVerdict::kNotSeparated, -1},
  };
  SolvabilityOptions options;
  options.max_depth = 6;
  options.build_table = false;
  check_rows(rows, options);
  // The oracle itself must agree with the pinned table.
  for (unsigned mask = 1; mask < 8; ++mask) {
    EXPECT_EQ(lossy_link_solvable(mask), mask != 0b111u);
  }
}

// Omission budgets: solvable iff f <= n - 2 (SW threshold [21, 22]).
// n = 2 certifies at depth 1 (f = 0 is the complete graph); n = 3
// certifies at depth 1 for f = 0 and at depth 2 for f = 1.
TEST(OracleRegression, OmissionThresholds) {
  SolvabilityOptions n2;
  n2.max_depth = 6;
  n2.build_table = false;
  check_rows({{{"omission", 2, 0}, SolvabilityVerdict::kSolvable, 1},
              {{"omission", 2, 1}, SolvabilityVerdict::kNotSeparated, -1},
              {{"omission", 2, 2}, SolvabilityVerdict::kNotSeparated, -1}},
             n2);
  SolvabilityOptions n3;
  n3.max_depth = 3;
  n3.max_states = 6'000'000;
  n3.build_table = false;
  check_rows({{{"omission", 3, 0}, SolvabilityVerdict::kSolvable, 1},
              {{"omission", 3, 1}, SolvabilityVerdict::kSolvable, 2},
              {{"omission", 3, 2}, SolvabilityVerdict::kNotSeparated, -1},
              {{"omission", 3, 3}, SolvabilityVerdict::kNotSeparated, -1}},
             n3);
  for (int f = 0; f <= 3; ++f) {
    EXPECT_EQ(omission_solvable(2, f), f <= 0);
    EXPECT_EQ(omission_solvable(3, f), f <= 1);
  }
}

// Heard-Of in-degree bounds: solvable iff k = n.
TEST(OracleRegression, HeardOfThresholds) {
  SolvabilityOptions n2;
  n2.max_depth = 5;
  n2.build_table = false;
  check_rows({{{"heard_of", 2, 1}, SolvabilityVerdict::kNotSeparated, -1},
              {{"heard_of", 2, 2}, SolvabilityVerdict::kSolvable, 1}},
             n2);
  SolvabilityOptions n3;
  n3.max_depth = 2;
  n3.max_states = 6'000'000;
  n3.build_table = false;
  check_rows({{{"heard_of", 3, 2}, SolvabilityVerdict::kNotSeparated, -1},
              {{"heard_of", 3, 3}, SolvabilityVerdict::kSolvable, 1}},
             n3);
}

// Windowed lossy link: the checker-discovered ablation -- impossible at
// w = 1 (oblivious lossy link), solvable with certificate depth 2 for
// every w >= 2.
TEST(OracleRegression, WindowedLossyLinkAblation) {
  SolvabilityOptions options;
  options.max_depth = 6;
  options.build_table = false;
  check_rows(
      {{{"windowed_lossy_link", 2, 1}, SolvabilityVerdict::kNotSeparated, -1},
       {{"windowed_lossy_link", 2, 2}, SolvabilityVerdict::kSolvable, 2},
       {{"windowed_lossy_link", 2, 3}, SolvabilityVerdict::kSolvable, 2},
       {{"windowed_lossy_link", 2, 4}, SolvabilityVerdict::kSolvable, 2}},
      options);
}

// VSSC: the prefix analysis only ever sees the (unsolvable) closure, so
// the verdict is NOT-SEPARATED for every stability -- including values
// where the adversary itself is solvable. This *is* the paper's Section
// 6.3 result; pin it so a refactor cannot accidentally "fix" it.
TEST(OracleRegression, VsscClosureStaysMerged) {
  SolvabilityOptions options;
  options.max_depth = 3;
  options.max_states = 4'000'000;
  options.build_table = false;
  check_rows({{{"vssc", 2, 1}, SolvabilityVerdict::kNotSeparated, -1},
              {{"vssc", 2, 6}, SolvabilityVerdict::kNotSeparated, -1},
              {{"vssc", 3, 1}, SolvabilityVerdict::kNotSeparated, -1}},
             options);
  // Oracle endpoints from the literature/library.
  EXPECT_EQ(vssc_solvable(2, 1), std::make_optional(false));
  EXPECT_EQ(vssc_solvable(2, 6), std::make_optional(true));
  EXPECT_EQ(vssc_solvable(3, 9), std::make_optional(true));
  EXPECT_EQ(vssc_solvable(3, 5), std::nullopt);
}

// Non-compact finite-loss: solvable adversary whose closure stays merged
// (Section 6.3, Figure 5); closure_only must be reported.
TEST(OracleRegression, FiniteLossClosureOnly) {
  const auto ma = make_family_adversary({"finite_loss", 2, 0});
  SolvabilityOptions options;
  options.max_depth = 4;
  options.build_table = false;
  const SolvabilityResult result = check_solvability(*ma, options);
  EXPECT_EQ(result.verdict, SolvabilityVerdict::kNotSeparated);
  EXPECT_TRUE(result.closure_only);
}

}  // namespace
}  // namespace topocon
