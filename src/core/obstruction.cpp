#include "core/obstruction.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_map>

#include "core/solvability.hpp"

namespace topocon {

std::vector<BivalencePoint> bivalence_series(const MessageAdversary& adversary,
                                             int max_depth, int num_values,
                                             std::size_t max_states) {
  AnalysisOptions options;
  options.depth = max_depth;
  options.num_values = num_values;
  options.max_states = max_states;
  std::vector<BivalencePoint> series;
  for (const DepthStats& stats : analyze_series(adversary, options)) {
    series.push_back({stats.depth, stats.num_leaf_classes,
                      stats.num_components, stats.merged_components});
  }
  return series;
}

std::optional<MergedChain> find_merged_chain(const MessageAdversary& adversary,
                                             const DepthAnalysis& analysis,
                                             Value v0, Value v1) {
  const FlatLevel& leaves = analysis.leaves();
  const int n = analysis.num_processes;
  const auto uniform_input = [&leaves](std::size_t i) {
    const std::span<const Value> inputs = leaves.inputs(i);
    return uniform_value(InputVector(inputs.begin(), inputs.end()));
  };

  // Locate a component containing both valences and endpoints within it.
  int start = -1;
  int target_component = -1;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const int comp = analysis.leaf_component[i];
    const auto& info = analysis.components[static_cast<std::size_t>(comp)];
    if ((info.valence_mask & (1u << v0)) != 0 &&
        (info.valence_mask & (1u << v1)) != 0 &&
        uniform_input(i) == v0) {
      start = static_cast<int>(i);
      target_component = comp;
      break;
    }
  }
  if (start < 0) return std::nullopt;

  // Adjacency buckets: leaves sharing a view id of some process.
  std::vector<std::unordered_map<ViewId, std::vector<int>>> buckets(
      static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    if (analysis.leaf_component[i] != target_component) continue;
    for (int p = 0; p < n; ++p) {
      buckets[static_cast<std::size_t>(p)]
             [leaves.views(i)[static_cast<std::size_t>(p)]]
                 .push_back(static_cast<int>(i));
    }
  }

  // BFS to the closest v1-valent leaf, remembering (previous, witness).
  std::vector<int> previous(leaves.size(), -1);
  std::vector<ProcessId> via(leaves.size(), -1);
  std::vector<bool> visited(leaves.size(), false);
  std::deque<int> queue;
  visited[static_cast<std::size_t>(start)] = true;
  queue.push_back(start);
  int goal = -1;
  while (!queue.empty() && goal < 0) {
    const int i = queue.front();
    queue.pop_front();
    if (uniform_input(static_cast<std::size_t>(i)) == v1) {
      goal = i;
      break;
    }
    for (int p = 0; p < n; ++p) {
      const ViewId id = leaves.views(
          static_cast<std::size_t>(i))[static_cast<std::size_t>(p)];
      for (const int j : buckets[static_cast<std::size_t>(p)][id]) {
        if (visited[static_cast<std::size_t>(j)]) continue;
        visited[static_cast<std::size_t>(j)] = true;
        previous[static_cast<std::size_t>(j)] = i;
        via[static_cast<std::size_t>(j)] = p;
        queue.push_back(j);
      }
    }
  }
  if (goal < 0) return std::nullopt;  // cannot happen in a merged component

  MergedChain chain;
  chain.depth = analysis.depth;
  std::vector<int> indices;
  for (int i = goal; i >= 0; i = previous[static_cast<std::size_t>(i)]) {
    indices.push_back(i);
  }
  std::reverse(indices.begin(), indices.end());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    auto prefix = reconstruct_prefix(adversary, analysis, indices[k]);
    assert(prefix.has_value());
    chain.chain.push_back(std::move(*prefix));
    if (k + 1 < indices.size()) {
      chain.witness.push_back(via[static_cast<std::size_t>(indices[k + 1])]);
    }
  }
  return chain;
}

std::optional<RunPrefix> fair_sequence_prefix(
    const MessageAdversary& adversary, int depth, int num_values,
    std::size_t max_states) {
  AnalysisOptions options;
  options.depth = depth;
  options.num_values = num_values;
  options.max_states = max_states;
  options.keep_levels = true;
  const DepthAnalysis analysis = analyze_depth(adversary, options);
  if (analysis.truncated || analysis.valence_separated) return std::nullopt;

  const FlatLevel& leaves = analysis.leaves();
  int best = -1;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const int comp = analysis.leaf_component[i];
    if (analysis.components[static_cast<std::size_t>(comp)].num_valences() <
        2) {
      continue;
    }
    if (best < 0) best = static_cast<int>(i);
    // Prefer a mixed-input representative (the classic bivalent start).
    const std::span<const Value> inputs = leaves.inputs(i);
    if (uniform_value(InputVector(inputs.begin(), inputs.end())) < 0) {
      best = static_cast<int>(i);
      break;
    }
  }
  if (best < 0) return std::nullopt;
  return reconstruct_prefix(adversary, analysis, best);
}

}  // namespace topocon
