#include "runtime/sweep/parallel_solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace topocon::sweep {

namespace {

std::atomic<std::size_t> g_default_chunk_states{0};

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

}  // namespace

void set_default_chunk_states(std::size_t chunk_states) {
  g_default_chunk_states.store(chunk_states, std::memory_order_relaxed);
}

std::size_t default_chunk_states() {
  const std::size_t configured =
      g_default_chunk_states.load(std::memory_order_relaxed);
  return configured > 0 ? configured : kDefaultChunkStates;
}

DepthAnalysis parallel_analyze_depth(const MessageAdversary& adversary,
                                     const AnalysisOptions& options,
                                     ThreadPool& pool,
                                     std::shared_ptr<ViewInterner> interner,
                                     const ShardingOptions& sharding) {
  const int n = adversary.num_processes();
  DepthAnalysis analysis;
  analysis.num_values = options.num_values;
  analysis.num_processes = n;
  analysis.interner =
      interner ? std::move(interner) : std::make_shared<ViewInterner>();
  const std::size_t chunk_states = sharding.chunk_states > 0
                                       ? sharding.chunk_states
                                       : default_chunk_states();
  const auto num_roots = static_cast<std::size_t>(
      all_input_vectors(n, options.num_values).size());

  // ---- Level 0: one engine (and private interner) per root.
  // All engines lease chunk scratch from one pool: one arena per
  // concurrently expanding thread, freed when the analysis ends.
  const auto arenas = std::make_shared<ExpandArenas>();
  std::vector<RootShard> shards(num_roots);
  pool.parallel_for(num_roots, [&](std::size_t r) {
    shards[r].engine.emplace(adversary, options, *shards[r].interner,
                             static_cast<int>(r), static_cast<int>(r) + 1,
                             arenas);
  });

  // ---- Levels 1..depth, level-synchronous: expand all (root, chunk)
  // work items of a level on the pool, merge per root in chunk order,
  // apply the global state budget, then commit.
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
           shards[r].engine->partition(chunk_states)) {
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
      pool.parallel_for(items.size(), [&](std::size_t j) {
        const std::size_t i = order.empty() ? j : order[j];
        expansions[i] =
            shards[items[i].root].engine->expand(items[i].chunk, budget);
        if (sharding.on_chunk) {
          const std::lock_guard<std::mutex> lock(progress_mutex);
          ++chunks_done;
          sharding.on_chunk(ChunkProgress{options.depth, s, chunks_done,
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
      // level exceeds max_states, the serial truncation condition.
      // Whether a level's final total exceeds max_states is independent
      // of scheduling, so this single tick is deterministic too.
      if (metrics != nullptr) metrics->add_budget_abort();
      analysis.truncated = true;
      pool.parallel_for(num_roots, [&](std::size_t r) {
        shards[r].engine->mark_truncated();
      });
      break;
    }

    std::vector<PendingFrontier> pending(num_roots);
    pool.parallel_for(num_roots, [&](std::size_t r) {
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

    // The serial overflow condition on the merged level, checked before
    // any interner mutation (see the header comment). With the budget
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
      pool.parallel_for(num_roots, [&](std::size_t r) {
        shards[r].engine->mark_truncated();
      });
      break;
    }
    pool.parallel_for(num_roots, [&](std::size_t r) {
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
  pool.parallel_for(num_roots, [&](std::size_t r) {
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
  compute_components(
      options, analysis,
      [&pool](std::size_t count, const std::function<void(std::size_t)>& body) {
        pool.parallel_for(count, body);
      });
  components_span.finish(
      "components", "components",
      {depth_arg, telemetry::TraceArg::num("components",
                                           analysis.components.size())});
  return analysis;
}

SolvabilityResult parallel_check_solvability(
    const MessageAdversary& adversary, const SolvabilityOptions& options,
    ThreadPool& pool, const DepthProgressFn& on_depth,
    const ShardingOptions& sharding) {
  // Same iterative-deepening driver as the serial checker; only the
  // per-depth analysis is swapped for the sharded one.
  return check_solvability_with(
      adversary, options,
      [&adversary, &pool, &sharding](
          const AnalysisOptions& analysis_options,
          const std::shared_ptr<ViewInterner>& interner) {
        return parallel_analyze_depth(adversary, analysis_options, pool,
                                      interner, sharding);
      },
      on_depth);
}

}  // namespace topocon::sweep
