// compute_components (core/epsilon_approx.cpp) against a test-local copy
// of its earlier algorithm -- a sequential union-find fed by one
// unordered_map<ViewId, first leaf> per process (minimum topology) or a
// std::map over joint P-view tuples (P-view topology) -- on seeded random
// flat leaf sets. The dense first-leaf arrays, the concurrent min-root
// forest, and the pool-driven passes must reproduce leaf_component,
// every ComponentInfo, and all four flags exactly, serially and on a
// pool. The random views deliberately reuse ids across processes, which
// real interners never do, so the per-process separation is tested too.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/epsilon_approx.hpp"
#include "core/union_find.hpp"
#include "runtime/sweep/thread_pool.hpp"

namespace topocon {
namespace {

/// The earlier compute_components, verbatim in its logic, over the flat
/// leaves of `analysis`.
void reference_components(const AnalysisOptions& options,
                          DepthAnalysis& analysis) {
  const int n = analysis.num_processes;
  const FlatLevel& leaves = analysis.levels.back();
  UnionFind uf(leaves.size());
  if (options.topology == AdjacencyTopology::kMin) {
    for (int p = 0; p < n; ++p) {
      std::unordered_map<ViewId, int> first_leaf;
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        const ViewId id = leaves.views(i)[static_cast<std::size_t>(p)];
        const auto [it, inserted] =
            first_leaf.try_emplace(id, static_cast<int>(i));
        if (!inserted) uf.unite(it->second, static_cast<int>(i));
      }
    }
  } else {
    std::map<std::vector<ViewId>, int> first_leaf;
    std::vector<ViewId> tuple;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      tuple.clear();
      NodeMask rest = options.pview_set & full_mask(n);
      while (rest != 0) {
        const int p = std::countr_zero(rest);
        rest &= rest - 1;
        tuple.push_back(leaves.views(i)[static_cast<std::size_t>(p)]);
      }
      const auto [it, inserted] =
          first_leaf.try_emplace(tuple, static_cast<int>(i));
      if (!inserted) uf.unite(it->second, static_cast<int>(i));
    }
  }
  analysis.leaf_component = uf.component_ids();
  const int num_components = uf.num_sets();
  analysis.components.assign(static_cast<std::size_t>(num_components),
                             ComponentInfo{});
  std::vector<std::vector<Value>> first_input(
      static_cast<std::size_t>(num_components),
      std::vector<Value>(static_cast<std::size_t>(n), -1));
  std::vector<NodeMask> nonuniform(static_cast<std::size_t>(num_components),
                                   0);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const PrefixState leaf = leaves.state(i);
    const auto c = static_cast<std::size_t>(analysis.leaf_component[i]);
    ComponentInfo& info = analysis.components[c];
    if (info.num_leaves == 0) {
      info.common_broadcast = full_mask(n);
      info.common_input_values = ~std::uint32_t{0};
    }
    info.num_leaves += 1;
    const Value v = uniform_value(leaf.inputs);
    if (v >= 0) info.valence_mask |= 1u << v;
    std::uint32_t present = 0;
    for (const Value x : leaf.inputs) present |= 1u << x;
    info.common_input_values &= present;
    info.common_broadcast &= broadcast_complete(leaf.reach);
    for (int p = 0; p < n; ++p) {
      Value& seen = first_input[c][static_cast<std::size_t>(p)];
      const Value x = leaf.inputs[static_cast<std::size_t>(p)];
      if (seen < 0) {
        seen = x;
      } else if (seen != x) {
        nonuniform[c] |= NodeMask{1} << p;
      }
    }
  }
  analysis.valence_separated = true;
  analysis.merged_components = 0;
  analysis.valent_broadcastable = true;
  analysis.strong_assignable = true;
  for (std::size_t c = 0; c < analysis.components.size(); ++c) {
    ComponentInfo& info = analysis.components[c];
    info.broadcasters = info.common_broadcast & ~nonuniform[c];
    if (info.num_valences() >= 2) {
      analysis.valence_separated = false;
      ++analysis.merged_components;
      info.assigned_value = -1;
      info.assigned_value_strong = -1;
    } else if (info.valence_mask != 0) {
      info.assigned_value = std::countr_zero(info.valence_mask);
      info.assigned_value_strong =
          (info.common_input_values & info.valence_mask) != 0
              ? info.assigned_value
              : -1;
      if (info.broadcasters == 0) analysis.valent_broadcastable = false;
    } else {
      info.assigned_value = 0;
      info.assigned_value_strong =
          info.common_input_values != 0
              ? std::countr_zero(info.common_input_values)
              : -1;
    }
    if (info.assigned_value_strong < 0) analysis.strong_assignable = false;
  }
  analysis.strong_assignable &= analysis.valence_separated;
}

/// A random root-contiguous leaf level: every root of the input space
/// gets a random number of rows; views come from a pool of `view_pool`
/// ids shared by all processes (small pools = few large components);
/// reach masks always contain their own process, like real ones.
DepthAnalysis random_leaves(std::mt19937_64& rng, int n, int num_values,
                            std::uint32_t view_pool, int max_rows_per_root) {
  DepthAnalysis analysis;
  analysis.num_processes = n;
  analysis.num_values = num_values;
  FlatLevel level;
  level.n = n;
  level.root_offsets.push_back(0);
  for (const InputVector& x : all_input_vectors(n, num_values)) {
    level.root_inputs.insert(level.root_inputs.end(), x.begin(), x.end());
    const auto rows = static_cast<int>(
        rng() % static_cast<std::uint64_t>(max_rows_per_root + 1));
    for (int k = 0; k < rows; ++k) {
      level.rows.push_back(static_cast<std::uint32_t>(rng() % 7));
      for (int p = 0; p < n; ++p) {
        level.rows.push_back(static_cast<std::uint32_t>(rng() % view_pool));
      }
      for (int p = 0; p < n; ++p) {
        const NodeMask extra = static_cast<NodeMask>(rng()) & full_mask(n);
        level.rows.push_back(extra | (NodeMask{1} << p));
      }
      level.multiplicity.push_back(1 + rng() % 5);
    }
    level.root_offsets.push_back(level.multiplicity.size());
  }
  analysis.levels.push_back(std::move(level));
  return analysis;
}

void expect_same_components(const DepthAnalysis& expected,
                            const DepthAnalysis& got,
                            const std::string& what) {
  EXPECT_EQ(got.leaf_component, expected.leaf_component) << what;
  EXPECT_EQ(got.components, expected.components) << what;
  EXPECT_EQ(got.valence_separated, expected.valence_separated) << what;
  EXPECT_EQ(got.merged_components, expected.merged_components) << what;
  EXPECT_EQ(got.valent_broadcastable, expected.valent_broadcastable) << what;
  EXPECT_EQ(got.strong_assignable, expected.strong_assignable) << what;
}

void run_case(std::uint64_t seed, const AnalysisOptions& options,
              sweep::ThreadPool& pool) {
  std::mt19937_64 rng(seed);
  const int n = 2 + static_cast<int>(rng() % 4);
  const int num_values = 2 + static_cast<int>(rng() % 2);
  // Alternate tiny and wide view pools: merged vs separated regimes.
  const std::uint32_t view_pool =
      seed % 2 == 0 ? 4 + static_cast<std::uint32_t>(rng() % 8)
                    : 200 + static_cast<std::uint32_t>(rng() % 4000);
  const int rows = 1 + static_cast<int>(rng() % 300);
  DepthAnalysis reference =
      random_leaves(rng, n, num_values, view_pool, rows);
  AnalysisOptions local = options;
  if (local.topology == AdjacencyTopology::kPView) {
    local.pview_set = static_cast<NodeMask>(1 + rng() % ((1u << n) - 1));
  }
  DepthAnalysis serial = reference;
  DepthAnalysis pooled = reference;
  reference_components(local, reference);
  compute_components(local, serial);
  compute_components(
      local, pooled,
      [&pool](std::size_t count,
              const std::function<void(std::size_t)>& body) {
        pool.parallel_for(count, body);
      });
  const std::string what = "seed " + std::to_string(seed);
  expect_same_components(reference, serial, what + " serial");
  expect_same_components(reference, pooled, what + " pooled");
  EXPECT_GT(reference.leaf_component.size(), 0u) << what;
}

TEST(ComponentsDifferential, MinTopologyMatchesReferenceAlgorithm) {
  sweep::ThreadPool pool(4);
  AnalysisOptions options;
  options.topology = AdjacencyTopology::kMin;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    run_case(seed, options, pool);
  }
}

TEST(ComponentsDifferential, PViewTopologyMatchesReferenceAlgorithm) {
  sweep::ThreadPool pool(4);
  AnalysisOptions options;
  options.topology = AdjacencyTopology::kPView;
  for (std::uint64_t seed = 101; seed <= 160; ++seed) {
    run_case(seed, options, pool);
  }
}

TEST(ComponentsDifferential, LargeLevelSpansManyBlocks) {
  // Enough leaves for many 64K-leaf blocks, so concurrent unions from
  // different blocks race on shared roots.
  sweep::ThreadPool pool(4);
  std::mt19937_64 rng(2024);
  DepthAnalysis reference = random_leaves(rng, 3, 2, 60'000, 70'000);
  AnalysisOptions options;
  DepthAnalysis pooled = reference;
  reference_components(options, reference);
  compute_components(
      options, pooled,
      [&pool](std::size_t count,
              const std::function<void(std::size_t)>& body) {
        pool.parallel_for(count, body);
      });
  expect_same_components(reference, pooled, "large");
  EXPECT_GT(reference.leaf_component.size(), 200'000u);
}

TEST(ComponentsDifferential, EmptyLevelHasNoComponents) {
  DepthAnalysis analysis;
  analysis.num_processes = 2;
  FlatLevel level;
  level.n = 2;
  analysis.levels.push_back(level);
  compute_components(AnalysisOptions{}, analysis);
  EXPECT_TRUE(analysis.leaf_component.empty());
  EXPECT_TRUE(analysis.components.empty());
  EXPECT_TRUE(analysis.valence_separated);
}

}  // namespace
}  // namespace topocon
