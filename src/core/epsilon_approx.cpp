#include "core/epsilon_approx.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <functional>
#include <span>
#include <unordered_map>

#include "core/frontier.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace topocon {

namespace {

// Dedup key of a prefix class: safety state plus all interned views. The
// views determine the inputs (every view contains its own input) and the
// reach masks (the cone determines who has been heard), so this key
// identifies the class exactly.
struct StateKey {
  AdvState adv_state;
  ViewVector views;
  bool operator==(const StateKey&) const = default;
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& k) const noexcept {
    std::size_t h = static_cast<std::size_t>(k.adv_state) + 1u;
    for (const ViewId id : k.views) {
      h ^= static_cast<std::size_t>(id) + 0x9e3779b9u + (h << 6) + (h >> 2);
    }
    return h;
  }
};

}  // namespace

std::size_t FlatLevel::root_of(std::size_t i) const {
  assert(i < size());
  const auto it =
      std::upper_bound(root_offsets.begin(), root_offsets.end(), i);
  return static_cast<std::size_t>(it - root_offsets.begin()) - 1;
}

PrefixState FlatLevel::state(std::size_t i) const {
  PrefixState out;
  const std::span<const Value> x = inputs(i);
  const std::span<const ViewId> v = views(i);
  const std::span<const NodeMask> r = reach(i);
  out.inputs.assign(x.begin(), x.end());
  out.views.assign(v.begin(), v.end());
  out.reach.assign(r.begin(), r.end());
  out.adv_state = adv_state(i);
  out.multiplicity = multiplicity[i];
  return out;
}

std::vector<PrefixState> initial_frontier(const MessageAdversary& adversary,
                                          const AnalysisOptions& options,
                                          ViewInterner& interner,
                                          int first_root, int last_root) {
  const int n = adversary.num_processes();
  const std::vector<InputVector> roots =
      all_input_vectors(n, options.num_values);
  assert(0 <= first_root && first_root <= last_root &&
         static_cast<std::size_t>(last_root) <= roots.size());
  std::vector<PrefixState> frontier;
  frontier.reserve(static_cast<std::size_t>(last_root - first_root));
  for (int r = first_root; r < last_root; ++r) {
    const InputVector& x = roots[static_cast<std::size_t>(r)];
    PrefixState state;
    state.inputs = x;
    state.views = interner.initial(x);
    state.reach = initial_reach(n);
    state.adv_state = adversary.initial_state();
    state.multiplicity = 1;
    frontier.push_back(std::move(state));
  }
  return frontier;
}

FrontierLevel expand_frontier(const MessageAdversary& adversary,
                              ViewInterner& interner,
                              const std::vector<PrefixState>& current,
                              std::size_t max_states, bool keep_links) {
  FrontierLevel level;
  std::unordered_map<StateKey, int, StateKeyHash> index;
  if (keep_links) level.children.resize(current.size());

  for (std::size_t i = 0; i < current.size() && !level.overflow; ++i) {
    const PrefixState& parent = current[i];
    for (int letter = 0; letter < adversary.alphabet_size(); ++letter) {
      const AdvState adv_next = adversary.transition(parent.adv_state, letter);
      if (adv_next == kRejectState) continue;
      const Digraph& g = adversary.graph(letter);
      StateKey key{adv_next, interner.advance(parent.views, g)};
      auto [it, inserted] = index.try_emplace(
          std::move(key), static_cast<int>(level.states.size()));
      if (inserted) {
        PrefixState child;
        child.inputs = parent.inputs;
        child.views = it->first.views;
        child.reach = advance_reach(parent.reach, g);
        child.adv_state = adv_next;
        child.multiplicity = parent.multiplicity;
        level.states.push_back(std::move(child));
        level.first_parent.emplace_back(static_cast<int>(i), letter);
        if (level.states.size() > max_states) {
          level.overflow = true;
          break;
        }
      } else {
        level.states[static_cast<std::size_t>(it->second)].multiplicity +=
            parent.multiplicity;
      }
      if (keep_links) {
        std::vector<int>& kids = level.children[i];
        if (std::find(kids.begin(), kids.end(), it->second) == kids.end()) {
          kids.push_back(it->second);
        }
      }
    }
  }
  return level;
}

namespace {

/// Concurrent union-find over leaf indices that always links the larger
/// root under the smaller one. Every parent pointer therefore points to a
/// smaller index and every root is the minimum of its set, so the final
/// roots -- and the first-leaf numbering derived from them -- depend only
/// on the partition, never on the order in which concurrent unions land.
class MinRootForest {
 public:
  explicit MinRootForest(std::size_t size) : parent_(size) {
    for (std::size_t i = 0; i < size; ++i) {
      parent_[i].store(static_cast<int>(i), std::memory_order_relaxed);
    }
  }

  int find(int x) {
    while (true) {
      const int p = at(x).load(std::memory_order_acquire);
      if (p == x) return x;
      const int gp = at(p).load(std::memory_order_acquire);
      if (gp == p) return p;
      // Path halving; losing the race to another writer is harmless
      // because every writer only moves a pointer closer to the root.
      int expected = p;
      at(x).compare_exchange_weak(expected, gp, std::memory_order_acq_rel,
                                  std::memory_order_relaxed);
      x = gp;
    }
  }

  void unite(int a, int b) {
    while (true) {
      a = find(a);
      b = find(b);
      if (a == b) return;
      if (a > b) std::swap(a, b);
      int expected = b;
      if (at(b).compare_exchange_strong(expected, a,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        return;
      }
    }
  }

 private:
  std::atomic<int>& at(int x) { return parent_[static_cast<std::size_t>(x)]; }

  std::vector<std::atomic<int>> parent_;
};

/// Leaves per parallel work item of compute_components.
constexpr std::size_t kLeafBlock = std::size_t{1} << 16;

/// The flat form of a reference level: `states` must be root-contiguous
/// over the roots of all_input_vectors(n, num_values), as every BFS level
/// is; the root table covers all of them.
FlatLevel flatten_level(const std::vector<PrefixState>& states, int n,
                        int num_values) {
  const std::vector<InputVector> roots = all_input_vectors(n, num_values);
  FlatLevel level;
  level.n = n;
  level.rows.reserve(states.size() * level.stride());
  level.multiplicity.reserve(states.size());
  for (const InputVector& x : roots) {
    level.root_inputs.insert(level.root_inputs.end(), x.begin(), x.end());
  }
  level.root_offsets.assign(roots.size() + 1, 0);
  [[maybe_unused]] std::size_t last_root = 0;
  for (const PrefixState& state : states) {
    level.rows.push_back(static_cast<std::uint32_t>(state.adv_state));
    level.rows.insert(level.rows.end(), state.views.begin(),
                      state.views.end());
    level.rows.insert(level.rows.end(), state.reach.begin(),
                      state.reach.end());
    level.multiplicity.push_back(state.multiplicity);
    const auto root = static_cast<std::size_t>(
        input_vector_index(state.inputs, num_values));
    assert(root >= last_root &&
           "states must be root-contiguous in root order");
    last_root = root;
    ++level.root_offsets[root + 1];
  }
  for (std::size_t r = 1; r < level.root_offsets.size(); ++r) {
    level.root_offsets[r] += level.root_offsets[r - 1];
  }
  return level;
}

Value uniform_of(std::span<const Value> inputs) {
  if (inputs.empty()) return -1;
  for (const Value x : inputs) {
    if (x != inputs.front()) return -1;
  }
  return inputs.front();
}

}  // namespace

void compute_components(const AnalysisOptions& options,
                        DepthAnalysis& analysis,
                        const ParallelFor& parallel_for) {
  const int n = analysis.num_processes;
  const auto un = static_cast<std::size_t>(n);
  const FlatLevel& leaves = analysis.levels.back();
  const std::size_t num_leaves = leaves.size();
  const auto run = [&parallel_for](
                       std::size_t count,
                       const std::function<void(std::size_t)>& body) {
    if (parallel_for) {
      parallel_for(count, body);
    } else {
      for (std::size_t i = 0; i < count; ++i) body(i);
    }
  };
  // body(b, begin, end) for every block b of leaves [begin, end).
  const std::size_t blocks = (num_leaves + kLeafBlock - 1) / kLeafBlock;
  const auto for_blocks =
      [&](const std::function<void(std::size_t, std::size_t, std::size_t)>&
              body) {
        run(blocks, [&](std::size_t b) {
          body(b, b * kLeafBlock, std::min(num_leaves, (b + 1) * kLeafBlock));
        });
      };

  MinRootForest forest(num_leaves);
  if (options.topology == AdjacencyTopology::kMin) {
    // Minimum topology: leaves sharing any process's view id are
    // adjacent. Per process, a dense ViewId-indexed array records the
    // first leaf holding each view (processes fill theirs concurrently);
    // then every leaf is united with the first holder of each of its
    // views, concurrently over leaf blocks.
    std::vector<std::vector<int>> first_leaf(un);
    const std::size_t known_views =
        analysis.interner ? analysis.interner->size() : 0;
    run(un, [&](std::size_t p) {
      std::vector<int>& first = first_leaf[p];
      first.assign(known_views, -1);
      for (std::size_t i = 0; i < num_leaves; ++i) {
        const auto id = static_cast<std::size_t>(leaves.views(i)[p]);
        if (id >= first.size()) {
          first.resize(std::max(id + 1, 2 * first.size()), -1);
        }
        if (first[id] < 0) first[id] = static_cast<int>(i);
      }
    });
    for_blocks([&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const std::span<const ViewId> views = leaves.views(i);
        for (std::size_t p = 0; p < un; ++p) {
          const int first =
              first_leaf[p][static_cast<std::size_t>(views[p])];
          if (first != static_cast<int>(i)) {
            forest.unite(first, static_cast<int>(i));
          }
        }
      }
    });
  } else {
    // P-view topology: leaves with equal JOINT P-views (the exact tuple
    // of member views) are adjacent. The tuple table hands out dense
    // indices in first-use order, so index k's first leaf is recorded
    // when k is created.
    assert(options.pview_set != 0);
    WordSeqIndex tuples;
    std::vector<int> first_leaf;
    std::vector<std::uint32_t> tuple;
    for (std::size_t i = 0; i < num_leaves; ++i) {
      tuple.clear();
      NodeMask rest = options.pview_set & full_mask(n);
      while (rest != 0) {
        const int p = std::countr_zero(rest);
        rest &= rest - 1;
        tuple.push_back(static_cast<std::uint32_t>(
            leaves.views(i)[static_cast<std::size_t>(p)]));
      }
      bool inserted;
      const int k = tuples.intern(tuple.data(), tuple.size(), &inserted);
      if (inserted) {
        first_leaf.push_back(static_cast<int>(i));
      } else {
        forest.unite(first_leaf[static_cast<std::size_t>(k)],
                     static_cast<int>(i));
      }
    }
  }

  // ---- Number components by first leaf: every root is its set's
  // minimum, so the roots in index order are the components in order of
  // first occurrence.
  std::vector<int>& component = analysis.leaf_component;
  component.assign(num_leaves, -1);
  std::vector<int> block_roots(blocks, 0);
  for_blocks([&](std::size_t b, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      component[i] = forest.find(static_cast<int>(i));
      if (component[i] == static_cast<int>(i)) ++block_roots[b];
    }
  });
  std::vector<int> root_id(num_leaves, -1);
  std::vector<int> block_first_id(blocks, 0);
  int num_components = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    block_first_id[b] = num_components;
    num_components += block_roots[b];
  }
  // first_root[c] = root of component c's first leaf.
  std::vector<std::size_t> first_root(static_cast<std::size_t>(num_components));
  for_blocks([&](std::size_t b, std::size_t begin, std::size_t end) {
    int next = block_first_id[b];
    for (std::size_t i = begin; i < end; ++i) {
      if (component[i] == static_cast<int>(i)) {
        first_root[static_cast<std::size_t>(next)] = leaves.root_of(i);
        root_id[i] = next++;
      }
    }
  });
  for_blocks([&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      component[i] = root_id[static_cast<std::size_t>(component[i])];
    }
  });

  // ---- Component summaries. Every field is a commutative reduction over
  // the component's leaves (sum, OR, AND), so leaf blocks fold into
  // per-component atomics concurrently, flushing once per run of equal
  // component ids. A process's input is uniform iff it equals the one in
  // the component's first leaf everywhere. Inputs are constant per root,
  // so their contributions are derived once per root.
  std::vector<std::uint32_t> root_valence(leaves.num_roots(), 0);
  std::vector<std::uint32_t> root_present(leaves.num_roots(), 0);
  for (std::size_t r = 0; r < leaves.num_roots(); ++r) {
    const Value v = uniform_of(leaves.root_input(r));
    if (v >= 0) root_valence[r] = 1u << v;
    for (const Value x : leaves.root_input(r)) root_present[r] |= 1u << x;
  }
  struct Totals {
    std::atomic<std::int64_t> leaves{0};
    std::atomic<std::uint32_t> valence{0};
    std::atomic<std::uint32_t> present{~std::uint32_t{0}};
    std::atomic<NodeMask> broadcast{~NodeMask{0}};
    std::atomic<NodeMask> nonuniform{0};
  };
  std::vector<Totals> totals(static_cast<std::size_t>(num_components));
  for_blocks([&](std::size_t, std::size_t begin, std::size_t end) {
    struct Run {
      std::int64_t leaves = 0;
      std::uint32_t valence = 0;
      std::uint32_t present = ~std::uint32_t{0};
      NodeMask broadcast = ~NodeMask{0};
      NodeMask nonuniform = 0;
    } run_acc;
    int current = -1;
    const auto flush = [&] {
      if (current < 0) return;
      Totals& t = totals[static_cast<std::size_t>(current)];
      t.leaves.fetch_add(run_acc.leaves, std::memory_order_relaxed);
      t.valence.fetch_or(run_acc.valence, std::memory_order_relaxed);
      t.present.fetch_and(run_acc.present, std::memory_order_relaxed);
      t.broadcast.fetch_and(run_acc.broadcast, std::memory_order_relaxed);
      t.nonuniform.fetch_or(run_acc.nonuniform, std::memory_order_relaxed);
    };
    std::size_t r = leaves.root_of(begin);
    for (std::size_t i = begin; i < end; ++i) {
      while (leaves.root_offsets[r + 1] <= i) ++r;
      if (component[i] != current) {
        flush();
        current = component[i];
        run_acc = Run{};
      }
      ++run_acc.leaves;
      run_acc.valence |= root_valence[r];
      run_acc.present &= root_present[r];
      for (const NodeMask m : leaves.reach(i)) run_acc.broadcast &= m;
      const std::size_t first = first_root[static_cast<std::size_t>(current)];
      if (r != first) {
        const std::span<const Value> mine = leaves.root_input(r);
        const std::span<const Value> theirs = leaves.root_input(first);
        for (std::size_t p = 0; p < un; ++p) {
          if (mine[p] != theirs[p]) run_acc.nonuniform |= NodeMask{1} << p;
        }
      }
    }
    flush();
  });
  analysis.components.assign(static_cast<std::size_t>(num_components),
                             ComponentInfo{});
  for (std::size_t c = 0; c < analysis.components.size(); ++c) {
    ComponentInfo& info = analysis.components[c];
    const Totals& t = totals[c];
    info.num_leaves = t.leaves.load(std::memory_order_relaxed);
    info.valence_mask = t.valence.load(std::memory_order_relaxed);
    info.common_input_values = t.present.load(std::memory_order_relaxed);
    info.common_broadcast =
        t.broadcast.load(std::memory_order_relaxed) & full_mask(n);
    info.broadcasters =
        info.common_broadcast & ~t.nonuniform.load(std::memory_order_relaxed);
  }

  analysis.valence_separated = true;
  analysis.merged_components = 0;
  analysis.valent_broadcastable = true;
  analysis.strong_assignable = true;
  for (ComponentInfo& info : analysis.components) {
    if (info.num_valences() >= 2) {
      analysis.valence_separated = false;
      ++analysis.merged_components;
      info.assigned_value = -1;
      info.assigned_value_strong = -1;
    } else if (info.valence_mask != 0) {
      info.assigned_value = std::countr_zero(info.valence_mask);
      // Strong validity must still decide the valence; feasible iff that
      // value occurs in every leaf of the component.
      info.assigned_value_strong =
          (info.common_input_values & info.valence_mask) != 0
              ? info.assigned_value
              : -1;
      if (info.broadcasters == 0) analysis.valent_broadcastable = false;
    } else {
      info.assigned_value = 0;  // meta-procedure step 3: default value
      info.assigned_value_strong =
          info.common_input_values != 0
              ? std::countr_zero(info.common_input_values)
              : -1;
    }
    if (info.assigned_value_strong < 0) analysis.strong_assignable = false;
  }
  analysis.strong_assignable &= analysis.valence_separated;
}

DepthAnalysis analyze_depth(const MessageAdversary& adversary,
                            const AnalysisOptions& options,
                            std::shared_ptr<ViewInterner> interner) {
  const int n = adversary.num_processes();
  DepthAnalysis analysis;
  analysis.num_values = options.num_values;
  analysis.num_processes = n;
  analysis.interner =
      interner ? std::move(interner) : std::make_shared<ViewInterner>();

  // One engine over the whole root range, advanced serially (a single
  // chunk per level -- see core/frontier.hpp for the chunked form the
  // parallel solver drives).
  const int num_roots =
      static_cast<int>(all_input_vectors(n, options.num_values).size());
  FrontierEngine engine(adversary, options, *analysis.interner, 0,
                        num_roots);
  telemetry::MetricsRegistry* metrics = options.metrics;
  telemetry::TraceWriter* trace =
      metrics != nullptr ? metrics->trace() : nullptr;
  if (metrics != nullptr) metrics->note_frontier(engine.frontier().size());
  for (int s = 1; s <= options.depth; ++s) {
    const std::uint64_t span_start =
        trace != nullptr ? trace->now_us() : 0;
    const auto level_start = std::chrono::steady_clock::now();
    if (!engine.advance()) {
      analysis.truncated = true;
      if (metrics != nullptr) metrics->add_budget_abort();
      break;
    }
    if (metrics != nullptr) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - level_start;
      metrics->add_level(options.depth, s, engine.frontier().size(),
                         elapsed.count());
      if (trace != nullptr) {
        trace->complete(
            "level", "level", span_start, trace->now_us() - span_start,
            {telemetry::TraceArg::num("depth",
                                      static_cast<std::uint64_t>(options.depth)),
             telemetry::TraceArg::num("level", static_cast<std::uint64_t>(s)),
             telemetry::TraceArg::num("states", engine.frontier().size())});
      }
    }
  }
  analysis.depth = engine.level();
  // Without keep_levels the engine holds just the current frontier.
  if (options.keep_levels) {
    analysis.first_parent = engine.take_first_parent();
    analysis.children = engine.take_children();
  }
  analysis.levels = engine.take_levels();

  compute_components(options, analysis);
  return analysis;
}

DepthAnalysis analyze_depth_oracle(const MessageAdversary& adversary,
                                   const AnalysisOptions& options,
                                   std::shared_ptr<ViewInterner> interner) {
  const int n = adversary.num_processes();
  DepthAnalysis analysis;
  analysis.num_values = options.num_values;
  analysis.num_processes = n;
  analysis.interner =
      interner ? std::move(interner) : std::make_shared<ViewInterner>();

  // The serial reference loop, mirroring the engine's bookkeeping exactly:
  // level 0 seeds the history with {-1, -1} parents (FrontierEngine's
  // constructor does the same), an overflowing level sets truncated and
  // keeps the last complete frontier.
  const int num_roots =
      static_cast<int>(all_input_vectors(n, options.num_values).size());
  std::vector<PrefixState> frontier = initial_frontier(
      adversary, options, *analysis.interner, 0, num_roots);
  const auto flat = [&](const std::vector<PrefixState>& states) {
    return flatten_level(states, n, options.num_values);
  };
  if (options.keep_levels) {
    analysis.levels.push_back(flat(frontier));
    analysis.first_parent.push_back(
        std::vector<std::pair<int, int>>(frontier.size(), {-1, -1}));
  }
  int level = 0;
  for (int s = 1; s <= options.depth; ++s) {
    FrontierLevel next =
        expand_frontier(adversary, *analysis.interner, frontier,
                        options.max_states, options.keep_levels);
    if (next.overflow) {
      analysis.truncated = true;
      break;
    }
    frontier = std::move(next.states);
    ++level;
    if (options.keep_levels) {
      analysis.levels.push_back(flat(frontier));
      analysis.first_parent.push_back(std::move(next.first_parent));
      ChildLinks links;
      for (const std::vector<int>& kids : next.children) {
        links.targets.insert(links.targets.end(), kids.begin(), kids.end());
        links.offsets.push_back(links.targets.size());
      }
      analysis.children.push_back(std::move(links));
    }
  }
  analysis.depth = level;
  if (!options.keep_levels) {
    analysis.levels.push_back(flat(frontier));
  }

  compute_components(options, analysis);
  return analysis;
}

std::optional<RunPrefix> reconstruct_prefix(const MessageAdversary& adversary,
                                            const DepthAnalysis& analysis,
                                            int leaf_index) {
  assert(!analysis.first_parent.empty() &&
         "reconstruct_prefix requires keep_levels");
  const std::size_t last = analysis.levels.size() - 1;
  if (leaf_index < 0 ||
      static_cast<std::size_t>(leaf_index) >= analysis.levels[last].size()) {
    return std::nullopt;
  }
  std::vector<int> letters;
  int index = leaf_index;
  for (std::size_t s = last; s >= 1; --s) {
    const auto [parent, letter] =
        analysis.first_parent[s][static_cast<std::size_t>(index)];
    letters.push_back(letter);
    index = parent;
  }
  std::reverse(letters.begin(), letters.end());
  RunPrefix prefix;
  const std::span<const Value> inputs =
      analysis.levels[last].inputs(static_cast<std::size_t>(leaf_index));
  prefix.inputs.assign(inputs.begin(), inputs.end());
  prefix.graphs.reserve(letters.size());
  for (const int letter : letters) {
    prefix.graphs.push_back(adversary.graph(letter));
  }
  return prefix;
}

}  // namespace topocon
