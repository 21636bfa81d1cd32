#include "core/epsilon_approx.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
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

/// body(0), ..., body(count - 1) through `parallel_for`, or inline when
/// it is null.
void run_indexed(const ParallelFor& parallel_for, std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  if (parallel_for) {
    parallel_for(count, body);
  } else {
    for (std::size_t i = 0; i < count; ++i) body(i);
  }
}

// One root's engine plus the private interner it expands into. The
// interner must outlive the engine and stay address-stable, hence the
// two-member struct instead of engine-owned storage; both are released
// as soon as the root's rows have been copied into the merged analysis.
struct RootShard {
  std::unique_ptr<ViewInterner> interner = std::make_unique<ViewInterner>();
  std::optional<FrontierEngine> engine;
};

// Times one trace span from construction to finish(); a no-op without a
// trace writer.
class Span {
 public:
  explicit Span(telemetry::TraceWriter* trace)
      : trace_(trace), start_(trace != nullptr ? trace->now_us() : 0) {}
  void finish(std::string_view name, std::string_view category,
              std::initializer_list<telemetry::TraceArg> args) {
    if (trace_ != nullptr) {
      trace_->complete(name, category, start_, trace_->now_us() - start_,
                       args);
    }
  }

 private:
  telemetry::TraceWriter* trace_;
  std::uint64_t start_;
};

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
  // body(b, begin, end) for every block b of leaves [begin, end).
  const std::size_t blocks = (num_leaves + kLeafBlock - 1) / kLeafBlock;
  const auto for_blocks =
      [&](const std::function<void(std::size_t, std::size_t, std::size_t)>&
              body) {
        run_indexed(parallel_for, blocks, [&](std::size_t b) {
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
    run_indexed(parallel_for, un, [&](std::size_t p) {
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
                            std::shared_ptr<ViewInterner> interner,
                            const ExecutionOptions& execution) {
  const int n = adversary.num_processes();
  DepthAnalysis analysis;
  analysis.num_values = options.num_values;
  analysis.num_processes = n;
  analysis.interner =
      interner ? std::move(interner) : std::make_shared<ViewInterner>();
  const auto num_roots = static_cast<std::size_t>(
      all_input_vectors(n, options.num_values).size());

  // ---- Level 0: one engine (and private interner) per root.
  // All engines lease chunk scratch from one set: one arena per
  // concurrently expanding thread, freed when the analysis ends.
  const auto arenas = std::make_shared<ExpandArenas>();
  std::vector<RootShard> shards(num_roots);
  run_indexed(execution.parallel_for, num_roots, [&](std::size_t r) {
    shards[r].engine.emplace(adversary, options, *shards[r].interner,
                             static_cast<int>(r), static_cast<int>(r) + 1,
                             execution.frontier, arenas);
  });

  // ---- Levels 1..depth, level-synchronous: expand all (root, chunk)
  // work items of a level through parallel_for, merge per root in chunk
  // order, apply the global state budget, then commit.
  telemetry::MetricsRegistry* metrics = options.metrics;
  telemetry::TraceWriter* trace =
      metrics != nullptr ? metrics->trace() : nullptr;
  std::mutex progress_mutex;
  for (int s = 1; s <= options.depth && !analysis.truncated; ++s) {
    const std::uint64_t span_start =
        trace != nullptr ? trace->now_us() : 0;
    const auto level_start = std::chrono::steady_clock::now();
    struct Item {
      std::size_t root;
      FrontierChunk chunk;
    };
    std::vector<Item> items;
    // first_item[r] .. first_item[r + 1] are root r's chunks.
    std::vector<std::size_t> first_item(num_roots + 1, 0);
    std::size_t frontier_states = 0;
    for (std::size_t r = 0; r < num_roots; ++r) {
      first_item[r] = items.size();
      frontier_states += shards[r].engine->frontier().size();
      for (const FrontierChunk& chunk :
           shards[r].engine->partition(execution.chunk_states)) {
        items.push_back(Item{r, chunk});
      }
    }
    first_item[num_roots] = items.size();

    // Pass-1 claim order, root-interleaved: chunk k of every root is
    // claimed before chunk k + 1 of any root, so the chunks counted when
    // the budget trips mostly belong to distinct roots and add up in the
    // lower bound below. Only the claim order changes: expansions stay
    // indexed by item and merge in (root, chunk) order.
    std::vector<std::size_t> claim_order;
    claim_order.reserve(items.size());
    for (std::size_t k = 0; claim_order.size() < items.size(); ++k) {
      for (std::size_t r = 0; r < num_roots; ++r) {
        if (first_item[r] + k < first_item[r + 1]) {
          claim_order.push_back(first_item[r] + k);
        }
      }
    }

    // Expands every item, claiming them in `order` (empty = item order).
    const auto expand_items = [&](FrontierBudget* budget,
                                  const std::vector<std::size_t>& order) {
      std::vector<PendingFrontier> expansions(items.size());
      std::size_t chunks_done = 0;
      run_indexed(execution.parallel_for, items.size(), [&](std::size_t j) {
        const std::size_t i = order.empty() ? j : order[j];
        expansions[i] =
            shards[items[i].root].engine->expand(items[i].chunk, budget);
        if (execution.on_chunk) {
          const std::lock_guard<std::mutex> lock(progress_mutex);
          ++chunks_done;
          execution.on_chunk(ChunkProgress{options.depth, s, chunks_done,
                                          items.size(), frontier_states});
        }
      });
      return expansions;
    };

    // Pass 1: chunked expansion under the shared level budget, which
    // aborts every chunk once the running chunk sum exceeds max_states,
    // so a doomed level costs O(max_states). The chunk sum may overcount
    // the merged level (chunks of one root can discover the same class),
    // but each chunk -- even one that aborted partway -- holds distinct,
    // genuine classes of its root's next level, and roots never share
    // classes. So the sum over roots of each root's largest chunk count
    // is an exact lower bound on the merged level: above max_states it
    // proves the overflow.
    FrontierBudget budget(options.max_states);
    std::vector<PendingFrontier> expansions =
        expand_items(&budget, claim_order);
    Span budget_span(trace);
    bool tripped = budget.exceeded();
    std::uint64_t counted = 0;
    std::uint64_t lower_bound = 0;
    for (std::size_t r = 0; r < num_roots; ++r) {
      std::uint64_t largest = 0;
      for (std::size_t i = first_item[r]; i < first_item[r + 1]; ++i) {
        tripped |= expansions[i].overflow;
        counted += expansions[i].stats.pending_states;
        largest = std::max(largest, expansions[i].stats.pending_states);
      }
      lower_bound += largest;
    }
    const bool proven = lower_bound > options.max_states;
    const std::string_view outcome =
        !tripped ? "fits" : proven ? "proven" : "retry";
    if (tripped && !proven) {
      // Pass 2, the fallback when the bound cannot decide: re-expand in
      // one chunk per root, whose counts cannot overcount. (With one
      // chunk per root already, a tripped budget always proves the
      // overflow, so this never repeats a root-granular pass.)
      Span retry_span(trace);
      expansions.clear();
      expansions.shrink_to_fit();
      items.clear();
      for (std::size_t r = 0; r < num_roots; ++r) {
        first_item[r] = r;
        items.push_back(
            Item{r, FrontierChunk{0, shards[r].engine->frontier().size()}});
      }
      first_item[num_roots] = num_roots;
      FrontierBudget exact_budget(options.max_states);
      expansions = expand_items(&exact_budget, {});
      tripped = exact_budget.exceeded();
      for (const PendingFrontier& expansion : expansions) {
        tripped |= expansion.overflow;
      }
      retry_span.finish(
          "budget_retry", "budget",
          {telemetry::TraceArg::num("level", static_cast<std::uint64_t>(s)),
           telemetry::TraceArg::num("chunks", items.size())});
    }
    budget_span.finish(
        "budget", "budget",
        {telemetry::TraceArg::num("level", static_cast<std::uint64_t>(s)),
         telemetry::TraceArg::num("counted", counted),
         telemetry::TraceArg::num("lower_bound", lower_bound),
         telemetry::TraceArg::str("outcome", outcome)});
    if (tripped) {
      // Exact by now: either the lower bound proved it, or root-granular
      // counts (which never overcount) tripped the budget -- the merged
      // level exceeds max_states, the truncation condition.
      // Whether a level's final total exceeds max_states is independent
      // of scheduling, so this single tick is deterministic too.
      if (metrics != nullptr) metrics->add_budget_abort();
      analysis.truncated = true;
      run_indexed(execution.parallel_for, num_roots, [&](std::size_t r) {
        shards[r].engine->mark_truncated();
      });
      break;
    }

    std::vector<PendingFrontier> pending(num_roots);
    run_indexed(execution.parallel_for, num_roots, [&](std::size_t r) {
      std::vector<PendingFrontier> mine(
          std::make_move_iterator(expansions.begin() +
                                  static_cast<std::ptrdiff_t>(first_item[r])),
          std::make_move_iterator(
              expansions.begin() +
              static_cast<std::ptrdiff_t>(first_item[r + 1])));
      Span span(trace);
      pending[r] = shards[r].engine->merge(std::move(mine));
      span.finish("merge", "merge",
                  {telemetry::TraceArg::num("level",
                                            static_cast<std::uint64_t>(s)),
                   telemetry::TraceArg::num("root", r),
                   telemetry::TraceArg::num("states", pending[r].size())});
    });

    // The overflow condition on the merged level, checked before
    // any interner mutation (see analyze_depth's doc). With the budget
    // not tripped this cannot fire (sum of chunk counts <= max_states
    // bounds the merged size); kept as a safety net.
    std::size_t total = 0;
    bool overflow = false;
    for (const PendingFrontier& level : pending) {
      overflow |= level.overflow;
      total += level.size();
    }
    if (overflow || total > options.max_states) {
      if (metrics != nullptr) metrics->add_budget_abort();
      analysis.truncated = true;
      run_indexed(execution.parallel_for, num_roots, [&](std::size_t r) {
        shards[r].engine->mark_truncated();
      });
      break;
    }
    run_indexed(execution.parallel_for, num_roots, [&](std::size_t r) {
      Span span(trace);
      shards[r].engine->commit(std::move(pending[r]));
      span.finish("commit", "commit",
                  {telemetry::TraceArg::num("level",
                                            static_cast<std::uint64_t>(s)),
                   telemetry::TraceArg::num("root", r),
                   telemetry::TraceArg::num(
                       "states", shards[r].engine->frontier().size())});
    });
    if (metrics != nullptr) {
      // frontier_states is the size of the level just expanded (s - 1),
      // total the size of the level just committed; together the two
      // cover every level for the high-water mark.
      metrics->note_frontier(frontier_states);
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - level_start;
      metrics->add_level(options.depth, s, total, elapsed.count());
      if (trace != nullptr) {
        trace->complete(
            "level", "level", span_start, trace->now_us() - span_start,
            {telemetry::TraceArg::num("depth",
                                      static_cast<std::uint64_t>(options.depth)),
             telemetry::TraceArg::num("level", static_cast<std::uint64_t>(s)),
             telemetry::TraceArg::num("states", total),
             telemetry::TraceArg::num("chunks", items.size())});
      }
    }
  }
  const int reached = shards.empty() ? 0 : shards.front().engine->level();
  analysis.depth = reached;

  // ---- Root merge, part 1: absorb every shard interner, serially in
  // root order -- the shared interner's ids must be assigned in the
  // serial scan's order.
  const auto depth_arg = telemetry::TraceArg::num(
      "depth", static_cast<std::uint64_t>(options.depth));
  Span absorb_span(trace);
  std::vector<std::vector<ViewId>> remap(num_roots);
  for (std::size_t r = 0; r < num_roots; ++r) {
    remap[r] = analysis.interner->absorb(*shards[r].interner);
  }
  absorb_span.finish("absorb", "root_merge", {depth_arg});

  // ---- Root merge, part 2: every merged level is preallocated from
  // per-root offset prefix sums, then each root copies its rows (view ids
  // remapped), multiplicities, and links into its slice in parallel and
  // frees its engine right after. Without keep_levels each engine holds
  // only its frontier, which becomes the single merged level.
  Span copy_span(trace);
  const std::size_t num_levels =
      options.keep_levels ? static_cast<std::size_t>(reached) + 1 : 1;
  const auto local_level = [&](std::size_t r,
                                std::size_t j) -> const FlatLevel& {
    return shards[r].engine->levels()[j];
  };
  // row_offset[j][r] = first row of root r in merged level j;
  // link_offset[j][r] = first child target of root r in merged CSR j.
  std::vector<std::vector<std::size_t>> row_offset(
      num_levels, std::vector<std::size_t>(num_roots + 1, 0));
  std::vector<std::vector<std::size_t>> link_offset(
      num_levels, std::vector<std::size_t>(num_roots + 1, 0));
  for (std::size_t j = 0; j < num_levels; ++j) {
    for (std::size_t r = 0; r < num_roots; ++r) {
      row_offset[j][r + 1] = row_offset[j][r] + local_level(r, j).size();
      if (options.keep_levels && j + 1 < num_levels) {
        link_offset[j][r + 1] =
            link_offset[j][r] +
            shards[r].engine->children()[j].targets.size();
      }
    }
  }
  analysis.levels.resize(num_levels);
  for (std::size_t j = 0; j < num_levels; ++j) {
    const std::size_t total = row_offset[j][num_roots];
    FlatLevel& level = analysis.levels[j];
    level.n = n;
    level.rows.resize(total * level.stride());
    level.multiplicity.resize(total);
    level.root_inputs.resize(num_roots * static_cast<std::size_t>(n));
    level.root_offsets = row_offset[j];
    if (options.keep_levels) {
      analysis.first_parent.emplace_back(total);
      if (j + 1 < num_levels) {
        ChildLinks& links = analysis.children.emplace_back();
        links.offsets.resize(total + 1, 0);
        links.targets.resize(link_offset[j][num_roots]);
      }
    }
  }
  run_indexed(execution.parallel_for, num_roots, [&](std::size_t r) {
    const std::vector<ViewId>& ids = remap[r];
    for (std::size_t j = 0; j < num_levels; ++j) {
      const FlatLevel& local = local_level(r, j);
      FlatLevel& level = analysis.levels[j];
      const std::size_t base = row_offset[j][r];
      const std::size_t stride = level.stride();
      std::uint32_t* out = level.rows.data() + base * stride;
      for (std::size_t i = 0; i < local.size(); ++i, out += stride) {
        const std::uint32_t* row = local.row(i);
        std::copy(row, row + stride, out);
        for (std::size_t q = 1; q <= static_cast<std::size_t>(n); ++q) {
          out[q] = static_cast<std::uint32_t>(ids[row[q]]);
        }
      }
      std::copy(local.multiplicity.begin(), local.multiplicity.end(),
                level.multiplicity.begin() + static_cast<std::ptrdiff_t>(base));
      std::copy(local.root_inputs.begin(), local.root_inputs.end(),
                level.root_inputs.begin() +
                    static_cast<std::ptrdiff_t>(
                        r * static_cast<std::size_t>(n)));
      if (!options.keep_levels) continue;
      const std::vector<std::pair<int, int>>& parents =
          shards[r].engine->first_parent()[j];
      const int parent_base =
          j == 0 ? 0 : static_cast<int>(row_offset[j - 1][r]);
      for (std::size_t i = 0; i < parents.size(); ++i) {
        const auto [parent, letter] = parents[i];
        analysis.first_parent[j][base + i] = {
            parent < 0 ? -1 : parent + parent_base, letter};
      }
      if (j + 1 < num_levels) {
        const ChildLinks& kids = shards[r].engine->children()[j];
        ChildLinks& links = analysis.children[j];
        const std::size_t target_base = link_offset[j][r];
        const auto child_base = static_cast<int>(row_offset[j + 1][r]);
        for (std::size_t i = 0; i < kids.size(); ++i) {
          links.offsets[base + i + 1] = kids.offsets[i + 1] + target_base;
        }
        for (std::size_t k = 0; k < kids.targets.size(); ++k) {
          links.targets[target_base + k] = kids.targets[k] + child_base;
        }
      }
    }
    shards[r].engine.reset();
    shards[r].interner.reset();
  });
  copy_span.finish("copy/remap", "root_merge",
                   {depth_arg,
                    telemetry::TraceArg::num(
                        "leaves", analysis.levels.back().size())});

  Span components_span(trace);
  compute_components(options, analysis, execution.parallel_for);
  components_span.finish(
      "components", "components",
      {depth_arg, telemetry::TraceArg::num("components",
                                           analysis.components.size())});
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
