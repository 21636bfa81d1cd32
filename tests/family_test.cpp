// Error-path coverage of the family adapter layer: exact
// std::invalid_argument messages for every family in known_families(),
// plus the grid-expansion helpers behind the scenario catalog.
#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <functional>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/family.hpp"
#include "adversary/heard_of.hpp"
#include "adversary/mobile_failure.hpp"
#include "graph/enumerate.hpp"

namespace topocon {
namespace {

void expect_invalid(const FamilyPoint& point, const std::string& message) {
  try {
    make_family_adversary(point);
    FAIL() << point.family << " n=" << point.n << " param=" << point.param
           << " did not throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()), message)
        << point.family << " n=" << point.n << " param=" << point.param;
  }
}

TEST(FamilyValidation, UnknownFamily) {
  expect_invalid({"nope", 2, 0}, "unknown adversary family: nope");
  EXPECT_THROW(family_param_range("nope", 2), std::invalid_argument);
}

TEST(FamilyValidation, LossyLink) {
  expect_invalid({"lossy_link", 3, 1}, "lossy_link: n must be 2 (got 3)");
  expect_invalid({"lossy_link", 2, 0},
                 "lossy_link: param must be in [1, 7] (got 0)");
  expect_invalid({"lossy_link", 2, 8},
                 "lossy_link: param must be in [1, 7] (got 8)");
  EXPECT_EQ(make_family_adversary({"lossy_link", 2, 1})->num_processes(), 2);
}

TEST(FamilyValidation, Omission) {
  expect_invalid({"omission", 1, 0}, "omission: n must be >= 2 (got 1)");
  expect_invalid({"omission", 3, -1},
                 "omission: param must be in [0, 6] (got -1)");
  expect_invalid({"omission", 3, 7},
                 "omission: param must be in [0, 6] (got 7)");
  EXPECT_EQ(make_family_adversary({"omission", 2, 2})->num_processes(), 2);
  // The alphabet's 32-bit edge masks cover n(n-1) <= 30 positions.
  expect_invalid({"omission", 7, 0}, "omission: n must be <= 6 (got 7)");
  expect_invalid({"omission", 9, 0}, "omission: n must be <= 6 (got 9)");
  EXPECT_EQ(family_param_range("omission", 6).max, 30);
  EXPECT_EQ(make_family_adversary({"omission", 6, 1})->alphabet_size(), 31);
}

TEST(FamilyValidation, HeardOf) {
  expect_invalid({"heard_of", 0, 1}, "heard_of: n must be >= 2 (got 0)");
  expect_invalid({"heard_of", 3, 0},
                 "heard_of: param must be in [1, 3] (got 0)");
  expect_invalid({"heard_of", 3, 4},
                 "heard_of: param must be in [1, 3] (got 4)");
  EXPECT_EQ(make_family_adversary({"heard_of", 2, 1})->num_processes(), 2);
  expect_invalid({"heard_of", 5, 4}, "heard_of: n must be <= 4 (got 5)");
}

TEST(FamilyValidation, HeardOfRounds) {
  expect_invalid({"heard_of_rounds", 1, 1},
                 "heard_of_rounds: n must be in [2, 4] (got 1)");
  expect_invalid({"heard_of_rounds", 5, 1},
                 "heard_of_rounds: n must be in [2, 4] (got 5)");
  expect_invalid({"heard_of_rounds", 3, 0},
                 "heard_of_rounds: param must be in [1, inf] (got 0)");
  EXPECT_EQ(make_family_adversary({"heard_of_rounds", 2, 2})->num_processes(),
            2);
  EXPECT_EQ(family_point_label({"heard_of_rounds", 3, 4}), "n=3 p=4");
}

TEST(FamilyValidation, HeardOfRoundsAutomaton) {
  // Alphabet: each receiver misses at most one sender -> n^n graphs.
  const auto n2 = make_family_adversary({"heard_of_rounds", 2, 2});
  EXPECT_EQ(n2->alphabet_size(), 4);
  const auto n3 = make_family_adversary({"heard_of_rounds", 3, 2});
  EXPECT_EQ(n3->alphabet_size(), 27);
  EXPECT_TRUE(n3->is_compact());

  // The uniform (complete) round resets the counter; `period` consecutive
  // non-uniform rounds are rejected.
  const auto* adversary =
      dynamic_cast<const HeardOfRoundsAdversary*>(n3.get());
  ASSERT_NE(adversary, nullptr);
  const int uniform = adversary->uniform_letter();
  EXPECT_EQ(adversary->graph(uniform), Digraph::complete(3));
  const int lossy = uniform == 0 ? 1 : 0;
  EXPECT_FALSE(adversary->safety_rejects({lossy, uniform, lossy}));
  EXPECT_TRUE(adversary->safety_rejects({lossy, lossy}));
  EXPECT_FALSE(adversary->safety_rejects({uniform, lossy, uniform, lossy}));

  // Liveness on lassos: a cycle without the uniform round drifts the
  // counter past any finite period, however long.
  const auto lazy = make_family_adversary({"heard_of_rounds", 3, 100});
  EXPECT_TRUE(lazy->admits_lasso({lossy}, {uniform, lossy}));
  EXPECT_FALSE(lazy->admits_lasso({uniform}, {lossy}));

  // period = 1 admits only the complete graph.
  const auto strict = make_family_adversary({"heard_of_rounds", 2, 1});
  for (int letter = 0; letter < strict->alphabet_size(); ++letter) {
    EXPECT_EQ(strict->safety_rejects({letter}),
              strict->graph(letter) != Digraph::complete(2));
  }
}

TEST(FamilyValidation, HeardOfRoundsComposes) {
  // Compact and non-oblivious: accepted by the composed-spec codec (only
  // vssc/finite_loss are barred), including under a window combinator.
  const std::string spec =
      R"({"op":"product","of":[{"family":"heard_of_rounds","n":2,"param":2},{"family":"lossy_link","n":2,"param":7}]})";
  const FamilyPoint point{"composed:" + spec, 2, 0};
  EXPECT_EQ(family_point_label(point), spec);
  EXPECT_EQ(make_family_adversary(point)->num_processes(), 2);
}

TEST(FamilyValidation, MobileFailure) {
  expect_invalid({"mobile_failure", 1, 1},
                 "mobile_failure: n must be in [2, 6] (got 1)");
  expect_invalid({"mobile_failure", 7, 1},
                 "mobile_failure: n must be in [2, 6] (got 7)");
  // The parameter cap keeps 1 + n * r inside AdvState.
  expect_invalid({"mobile_failure", 3, 0},
                 "mobile_failure: param must be in [1, 715827882] (got 0)");
  expect_invalid({"mobile_failure", 2, INT_MAX},
                 "mobile_failure: param must be in [1, 1073741823] "
                 "(got 2147483647)");
  EXPECT_EQ(make_family_adversary({"mobile_failure", 2, 1})->num_processes(),
            2);
  EXPECT_EQ(family_point_label({"mobile_failure", 3, 2}), "n=3 r=2");
}

TEST(FamilyValidation, MobileFailureAutomaton) {
  // Alphabet: the clean round plus, per sender, every nonempty dropped
  // subset of its n - 1 outgoing edges -> 1 + n * (2^(n-1) - 1) graphs.
  EXPECT_EQ(make_family_adversary({"mobile_failure", 2, 1})->alphabet_size(),
            3);
  EXPECT_EQ(make_family_adversary({"mobile_failure", 4, 1})->alphabet_size(),
            29);
  const auto n3 = make_family_adversary({"mobile_failure", 3, 2});
  EXPECT_EQ(n3->alphabet_size(), 10);
  EXPECT_TRUE(n3->is_compact());

  // Letter 0 is the clean round; letters 1..3 fault sender 0, 4..6
  // sender 1, 7..9 sender 2.
  const auto* adversary =
      dynamic_cast<const MobileFailureAdversary*>(n3.get());
  ASSERT_NE(adversary, nullptr);
  EXPECT_EQ(adversary->persistence(), 2);
  EXPECT_EQ(adversary->graph(0), Digraph::complete(3));
  EXPECT_EQ(adversary->fault_of(0), -1);
  EXPECT_EQ(adversary->fault_of(1), 0);
  EXPECT_EQ(adversary->fault_of(4), 1);
  EXPECT_EQ(adversary->fault_of(9), 2);

  // A sender may stay faulty for `persistence` rounds, not more; a clean
  // round or a different sender resets the streak.
  EXPECT_FALSE(adversary->safety_rejects({1, 2}));
  EXPECT_TRUE(adversary->safety_rejects({1, 2, 3}));
  EXPECT_FALSE(adversary->safety_rejects({1, 0, 2, 3}));
  EXPECT_FALSE(adversary->safety_rejects({1, 4, 2, 5}));

  // persistence = 1 forces the fault to move (or vanish) every round.
  const auto strict = make_family_adversary({"mobile_failure", 3, 1});
  EXPECT_TRUE(strict->safety_rejects({1, 2}));
  EXPECT_FALSE(strict->safety_rejects({1, 4, 1, 4}));

  // Liveness on lassos: a cycle faulting one fixed sender drifts its
  // streak across unrollings however large the persistence; cycles with
  // a clean round or a second sender reset mid-pass and are admitted.
  const auto lazy = make_family_adversary({"mobile_failure", 3, 100});
  EXPECT_FALSE(lazy->admits_lasso({}, {1}));
  EXPECT_FALSE(lazy->admits_lasso({4}, {1, 2}));
  EXPECT_TRUE(lazy->admits_lasso({1}, {1, 4}));
  EXPECT_TRUE(lazy->admits_lasso({1}, {0}));
}

TEST(FamilyValidation, MobileFailureComposes) {
  // Compact and non-oblivious, so it composes like heard_of_rounds.
  const std::string spec =
      R"({"op":"window","w":2,"of":[{"family":"mobile_failure","n":2,"param":1}]})";
  const FamilyPoint point{"composed:" + spec, 2, 0};
  EXPECT_EQ(family_point_label(point), spec);
  EXPECT_EQ(make_family_adversary(point)->num_processes(), 2);
}

TEST(FamilyValidation, WindowedLossyLink) {
  expect_invalid({"windowed_lossy_link", 3, 1},
                 "windowed_lossy_link: n must be 2 (got 3)");
  expect_invalid({"windowed_lossy_link", 2, 0},
                 "windowed_lossy_link: param must be in [1, inf] (got 0)");
  EXPECT_EQ(
      make_family_adversary({"windowed_lossy_link", 2, 2})->num_processes(),
      2);
}

TEST(FamilyValidation, Vssc) {
  expect_invalid({"vssc", 1, 1}, "vssc: n must be >= 2 (got 1)");
  expect_invalid({"vssc", 2, 0}, "vssc: param must be in [1, inf] (got 0)");
  EXPECT_EQ(make_family_adversary({"vssc", 2, 1})->num_processes(), 2);
  expect_invalid({"vssc", 5, 1}, "vssc: n must be <= 4 (got 5)");
}

TEST(FamilyValidation, FiniteLoss) {
  expect_invalid({"finite_loss", 1, 0},
                 "finite_loss: n must be >= 2 (got 1)");
  expect_invalid({"finite_loss", 2, 1},
                 "finite_loss: param must be in [0, 0] (got 1)");
  EXPECT_EQ(make_family_adversary({"finite_loss", 2, 0})->num_processes(),
            2);
  expect_invalid({"finite_loss", 5, 0},
                 "finite_loss: n must be <= 4 (got 5)");
}

// ---- Graph enumerators behind the families ---------------------------------

void expect_enumerator_error(const std::function<void()>& call,
                             const std::string& message) {
  try {
    call();
    FAIL() << "did not throw: " << message;
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()), message);
  }
}

TEST(GraphEnumerators, RejectUnrepresentableProcessCounts) {
  expect_enumerator_error([] { graphs_with_max_omissions(7, 0); },
                          "graphs_with_max_omissions: n must be in [1, 6] "
                          "(got 7)");
  expect_enumerator_error([] { graphs_with_max_omissions(0, 0); },
                          "graphs_with_max_omissions: n must be in [1, 6] "
                          "(got 0)");
  expect_enumerator_error([] { all_graphs(5); },
                          "all_graphs: n must be in [1, 4] (got 5)");
}

TEST(GraphEnumerators, OmissionGraphsCountedWithoutScanningEveryMask) {
  // 1 + C(20, 1) + C(20, 2) graphs at n = 5, f = 2.
  EXPECT_EQ(graphs_with_max_omissions(5, 2).size(), 211u);
  // n = 6 has 2^30 masks; f = 1 must cost 31 graphs, not a full scan.
  const std::vector<Digraph> six = graphs_with_max_omissions(6, 1);
  ASSERT_EQ(six.size(), 31u);
  EXPECT_EQ(six.back(), Digraph::complete(6));
  EXPECT_TRUE(graphs_with_max_omissions(3, -1).empty());
}

// The letter order of every omission adversary (and so of every golden)
// is the ascending edge-mask order of a plain scan over all masks.
TEST(GraphEnumerators, OmissionGraphsKeepTheMaskScanOrder) {
  const auto scan = [](int n, int max_omissions) {
    const int positions = n * (n - 1);
    std::vector<Digraph> graphs;
    for (std::uint32_t mask = 0; mask < (1u << positions); ++mask) {
      if (positions - std::popcount(mask) > max_omissions) continue;
      Digraph g(n);
      int bit = 0;
      for (int p = 0; p < n; ++p) {
        for (int q = 0; q < n; ++q) {
          if (p == q) continue;
          if ((mask >> bit) & 1u) g.add_edge(p, q);
          ++bit;
        }
      }
      graphs.push_back(g);
    }
    return graphs;
  };
  for (int n = 1; n <= 4; ++n) {
    for (int f = 0; f <= n * (n - 1); ++f) {
      EXPECT_EQ(graphs_with_max_omissions(n, f), scan(n, f))
          << "n=" << n << " f=" << f;
    }
  }
  for (const int f : {0, 1, 2, 3, 20}) {
    EXPECT_EQ(graphs_with_max_omissions(5, f), scan(5, f)) << "n=5 f=" << f;
  }
  EXPECT_EQ(all_graphs(3), graphs_with_max_omissions(3, 6));
}

TEST(FamilyValidation, ComposedSpecGrammarErrors) {
  expect_invalid(
      {R"(composed:{"op":"interleave","of":[{"family":"omission","n":2,"param":1},{"family":"omission","n":2,"param":0}]})",
       2, 0},
      "composed: unknown combinator 'interleave'");
  expect_invalid(
      {R"(composed:{"op":"product","of":[{"family":"omission","n":2,"param":1}]})",
       2, 0},
      "composed: product needs >= 2 components (got 1)");
  expect_invalid(
      {R"(composed:{"op":"union","of":[{"family":"omission","n":2,"param":1}]})",
       2, 0},
      "composed: union needs >= 2 components (got 1)");
  expect_invalid(
      {R"(composed:{"op":"window","w":2,"of":[{"family":"omission","n":2,"param":1},{"family":"omission","n":2,"param":0}]})",
       2, 0},
      "composed: window needs exactly 1 component (got 2)");
  expect_invalid(
      {R"(composed:{"op":"window","of":[{"family":"omission","n":2,"param":1}]})",
       2, 0},
      "composed: window needs a w member");
  expect_invalid(
      {R"(composed:{"op":"product","bogus":1,"of":[{"family":"omission","n":2,"param":1},{"family":"omission","n":2,"param":0}]})",
       2, 0},
      "composed: unknown member 'bogus'");
}

TEST(FamilyValidation, ComposedSpecSemanticErrors) {
  // Components must agree on the process count...
  expect_invalid(
      {R"(composed:{"op":"product","of":[{"family":"omission","n":3,"param":1},{"family":"omission","n":2,"param":0}]})",
       3, 0},
      "composed: component n must be 3 (got 2)");
  // ...and the point's n must equal that common count.
  expect_invalid(
      {R"(composed:{"op":"union","of":[{"family":"omission","n":3,"param":1},{"family":"omission","n":3,"param":0}]})",
       2, 0},
      "composed: n must be 3 (got 2)");
  // The param slot is unused for composed points; the spec is the label.
  expect_invalid(
      {R"(composed:{"op":"union","of":[{"family":"omission","n":2,"param":1},{"family":"omission","n":2,"param":0}]})",
       2, 1},
      "composed: param must be 0 (got 1)");
  // Only compact leaves compose (closedness under product/union is what
  // keeps the default liveness hooks exact).
  expect_invalid(
      {R"(composed:{"op":"window","w":2,"of":[{"family":"vssc","n":2,"param":1}]})",
       2, 0},
      "composed: non-compact leaf family vssc is not composable");
  expect_invalid(
      {R"(composed:{"op":"window","w":0,"of":[{"family":"omission","n":2,"param":1}]})",
       2, 0},
      "composed: window w must be >= 1 (got 0)");
  // Leaf errors surface the family layer's own exact message.
  expect_invalid(
      {R"(composed:{"op":"window","w":2,"of":[{"family":"lossy_link","n":2,"param":9}]})",
       2, 0},
      "lossy_link: param must be in [1, 7] (got 9)");
}

TEST(FamilyValidation, ComposedPointsBuildAndLabelAsTheSpec) {
  const std::string spec =
      R"({"op":"product","of":[{"family":"lossy_link","n":2,"param":7},{"family":"lossy_link","n":2,"param":3}]})";
  const FamilyPoint point{"composed:" + spec, 2, 0};
  EXPECT_EQ(family_point_label(point), spec);
  const FamilyParamRange range = family_param_range(point.family, 2);
  EXPECT_EQ(range.min, 0);
  EXPECT_EQ(range.max, 0);
  EXPECT_EQ(make_family_adversary(point)->num_processes(), 2);
}

TEST(FamilyValidation, EveryKnownFamilyHasARangeAndBuilds) {
  for (const std::string& family : known_families()) {
    const int n = 2;  // valid for every family
    const FamilyParamRange range = family_param_range(family, n);
    EXPECT_LE(range.min, range.max) << family;
    EXPECT_STRNE(range.meaning, "") << family;
    const auto adversary =
        make_family_adversary({family, n, range.min});
    EXPECT_EQ(adversary->num_processes(), n) << family;
  }
}

TEST(FamilyGrid, ExpandsValidatedPoints) {
  const std::vector<FamilyPoint> grid = family_grid("omission", 3, 0, 6);
  ASSERT_EQ(grid.size(), 7u);
  EXPECT_EQ(grid.front().param, 0);
  EXPECT_EQ(grid.back().param, 6);
  for (const FamilyPoint& point : grid) {
    EXPECT_EQ(point.family, "omission");
    EXPECT_EQ(point.n, 3);
  }
}

TEST(FamilyGrid, RejectsEmptyAndOutOfRangeIntervals) {
  EXPECT_THROW(family_grid("omission", 3, 4, 2), std::invalid_argument);
  EXPECT_THROW(family_grid("lossy_link", 2, 0, 3), std::invalid_argument);
  EXPECT_THROW(family_grid("heard_of", 3, 1, 4), std::invalid_argument);
}

TEST(FamilyGrid, RejectsAbsurdIntervalsBeforeAllocating) {
  // Endpoints are validated (and the point count bounded) before any
  // reserve, so operator-supplied extremes fail cleanly instead of
  // overflowing or exhausting memory.
  EXPECT_THROW(family_grid("windowed_lossy_link", 2, 1, 2'000'000'000),
               std::invalid_argument);
  EXPECT_THROW(family_grid("omission", 3, -2'000'000'000, 2'000'000'000),
               std::invalid_argument);
  // An absurd n is rejected before n*(n-1) is ever formed.
  EXPECT_THROW(family_param_range("omission", 65536), std::invalid_argument);
}

TEST(FamilyGrid, TerminatesWithIntMaxUpperBound) {
  // INT_MAX is a legal param_max for the window families; the expansion
  // loop must not rely on `param <= INT_MAX` ever going false.
  const std::vector<FamilyPoint> grid =
      family_grid("vssc", 2, INT_MAX - 2, INT_MAX);
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_EQ(grid.back().param, INT_MAX);
}

TEST(FamilyGrid, ParamRangeMatchesDocumentedBounds) {
  EXPECT_EQ(family_param_range("lossy_link", 2).min, 1);
  EXPECT_EQ(family_param_range("lossy_link", 2).max, 7);
  EXPECT_EQ(family_param_range("omission", 3).max, 6);
  EXPECT_EQ(family_param_range("heard_of", 3).max, 3);
  EXPECT_EQ(family_param_range("mobile_failure", 3).max, 715827882);
  EXPECT_EQ(family_param_range("windowed_lossy_link", 2).max, INT_MAX);
  EXPECT_EQ(family_param_range("vssc", 4).min, 1);
  EXPECT_EQ(family_param_range("finite_loss", 2).max, 0);
}

}  // namespace
}  // namespace topocon
