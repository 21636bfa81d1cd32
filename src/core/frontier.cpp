#include "core/frontier.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <span>
#include <unordered_map>

#include "ptg/reach.hpp"
#include "telemetry/trace.hpp"

namespace topocon {

namespace {

std::size_t hash_words(const std::uint32_t* words, std::size_t count) {
  // FNV-1a over the key words; the table caches the result per entry.
  std::size_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= words[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

/// One arena of chunk-expansion scratch (see ExpandArenas). Every member
/// is fully re-initialized by the chunk that uses it, so results never
/// depend on which arena a chunk leased or what it held before.
struct ExpandScratch {
  std::vector<std::int32_t> memo_val;
  std::vector<std::uint32_t> memo_epoch;
  std::vector<std::uint32_t> view_key;
  std::vector<std::uint32_t> state_key;
};

ExpandArenas::ExpandArenas() = default;
ExpandArenas::~ExpandArenas() = default;

ExpandArenas::Lease::Lease(ExpandArenas& pool) : pool_(pool) {
  const std::lock_guard<std::mutex> lock(pool_.mutex_);
  if (pool_.free_.empty()) {
    scratch_ = std::make_unique<ExpandScratch>();
  } else {
    scratch_ = std::move(pool_.free_.back());
    pool_.free_.pop_back();
  }
}

ExpandArenas::Lease::~Lease() {
  const std::lock_guard<std::mutex> lock(pool_.mutex_);
  pool_.free_.push_back(std::move(scratch_));
}

int WordSeqIndex::intern(const std::uint32_t* words, std::size_t count,
                         bool* inserted) {
  if (slots_.empty()) {
    slots_.assign(64, -1);
  } else if ((entries_.size() + 1) * 10 > slots_.size() * 7) {
    grow();
  }
  const std::size_t hash = hash_words(words, count);
  const std::size_t mask = slots_.size() - 1;
  std::size_t pos = hash & mask;
  while (true) {
    const int e = slots_[pos];
    if (e < 0) {
      const auto id = static_cast<int>(entries_.size());
      Entry entry;
      entry.offset = pool_.size();
      entry.count = static_cast<std::uint32_t>(count);
      entry.hash = static_cast<std::uint32_t>(hash);
      pool_.insert(pool_.end(), words, words + count);
      entries_.push_back(entry);
      slots_[pos] = id;
      *inserted = true;
      return id;
    }
    const Entry& entry = entries_[static_cast<std::size_t>(e)];
    if (entry.hash == static_cast<std::uint32_t>(hash) &&
        entry.count == count &&
        std::memcmp(pool_.data() + entry.offset, words,
                    count * sizeof(std::uint32_t)) == 0) {
      *inserted = false;
      return e;
    }
    pos = (pos + 1) & mask;
  }
}

void WordSeqIndex::grow() {
  ++rehashes_;
  std::vector<int> next(slots_.size() * 2, -1);
  const std::size_t mask = next.size() - 1;
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    std::size_t pos = entries_[e].hash & mask;
    while (next[pos] >= 0) pos = (pos + 1) & mask;
    next[pos] = static_cast<int>(e);
  }
  slots_ = std::move(next);
}

FrontierEngine::FrontierEngine(const MessageAdversary& adversary,
                               const AnalysisOptions& options,
                               ViewInterner& interner, int first_root,
                               int last_root,
                               std::shared_ptr<ExpandArenas> arenas)
    : adversary_(&adversary),
      options_(options),
      interner_(&interner),
      arenas_(arenas ? std::move(arenas) : std::make_shared<ExpandArenas>()) {
  const int n = adversary.num_processes();
  // The expansion shape: distinct (receiver, in-mask) pairs across the
  // whole alphabet, plus the (letter, process) -> pair index table.
  shape_.pair_of.assign(
      static_cast<std::size_t>(adversary.alphabet_size()) *
          static_cast<std::size_t>(n),
      -1);
  std::unordered_map<std::uint64_t, std::int32_t> pair_index;
  for (int letter = 0; letter < adversary.alphabet_size(); ++letter) {
    const Digraph& g = adversary.graph(letter);
    for (int q = 0; q < n; ++q) {
      const NodeMask mask = g.in_mask(static_cast<ProcessId>(q));
      const std::uint64_t key =
          (static_cast<std::uint64_t>(q) << 32) | mask;
      auto [it, fresh] = pair_index.try_emplace(
          key, static_cast<std::int32_t>(shape_.pairs.size()));
      if (fresh) {
        shape_.pairs.push_back(
            {static_cast<std::uint32_t>(q), mask});
      }
      shape_.pair_of[static_cast<std::size_t>(letter) *
                         static_cast<std::size_t>(n) +
                     static_cast<std::size_t>(q)] = it->second;
    }
  }

  // Level 0: one class per input vector of this shard, interned in root
  // order exactly like initial_frontier() does.
  const std::vector<InputVector> roots =
      all_input_vectors(n, options.num_values);
  assert(0 <= first_root && first_root <= last_root &&
         static_cast<std::size_t>(last_root) <= roots.size());
  FlatLevel start;
  start.n = n;
  start.root_offsets.push_back(0);
  for (int r = first_root; r < last_root; ++r) {
    const InputVector& x = roots[static_cast<std::size_t>(r)];
    const ViewVector views = interner.initial(x);
    const ReachVector reach = initial_reach(n);
    start.root_inputs.insert(start.root_inputs.end(), x.begin(), x.end());
    start.rows.push_back(
        static_cast<std::uint32_t>(adversary.initial_state()));
    start.rows.insert(start.rows.end(), views.begin(), views.end());
    start.rows.insert(start.rows.end(), reach.begin(), reach.end());
    start.multiplicity.push_back(1);
    start.root_offsets.push_back(start.multiplicity.size());
  }
  if (options_.keep_levels) {
    first_parent_.push_back(
        std::vector<std::pair<int, int>>(start.size(), {-1, -1}));
  }
  levels_.push_back(std::move(start));
}

KeyCodec FrontierEngine::level_codec() const {
  KeyCodec c;
  const int n = adversary_->num_processes();
  c.n = n;
  c.q_bits = n > 1 ? static_cast<std::uint32_t>(std::bit_width(
                         static_cast<std::uint32_t>(n - 1)))
                   : 0;
  c.mask_bits = static_cast<std::uint32_t>(n);
  // Senders are the PARENT level's interned view ids, all assigned by
  // earlier commits, so the current interner size bounds them.
  const std::uint64_t senders = interner_->size();
  c.sender_bits =
      senders > 1 ? std::min<std::uint32_t>(
                        32, static_cast<std::uint32_t>(
                                std::bit_width(senders - 1)))
                  : 0;
  const AdvState bound = adversary_->state_bound();
  c.adv_bits =
      bound <= 0 ? 32
      : bound > 1 ? static_cast<std::uint32_t>(std::bit_width(
                        static_cast<std::uint32_t>(bound - 1)))
                  : 0;
  // Every chunk contributes at most one distinct view per (parent, pair)
  // so frontier * pairs bounds chunk-local AND merged view-table
  // indices: one width makes chunk and merged state keys interoperable.
  // Both factors count in-memory entries, so the product cannot wrap.
  const std::uint64_t index_bound =
      static_cast<std::uint64_t>(frontier().size()) * shape_.pairs.size();
  c.index_bits =
      index_bound > 1 ? std::min<std::uint32_t>(
                            32, static_cast<std::uint32_t>(
                                    std::bit_width(index_bound - 1)))
                      : 0;
  c.state_words = (c.adv_bits + static_cast<std::uint32_t>(n) * c.index_bits +
                   31) /
                  32;
  return c;
}

std::vector<FrontierChunk> FrontierEngine::partition(
    std::size_t chunk_states) const {
  const std::size_t size = frontier().size();
  if (chunk_states == 0 || size <= chunk_states) {
    return {FrontierChunk{0, size}};
  }
  std::vector<FrontierChunk> chunks;
  chunks.reserve((size + chunk_states - 1) / chunk_states);
  for (std::size_t begin = 0; begin < size; begin += chunk_states) {
    chunks.push_back(
        FrontierChunk{begin, std::min(begin + chunk_states, size)});
  }
  return chunks;
}

PendingFrontier FrontierEngine::expand(const FrontierChunk& chunk,
                                       FrontierBudget* budget) const {
  const FlatLevel& frontier = this->frontier();
  assert(chunk.begin <= chunk.end && chunk.end <= frontier.size());
  const MessageAdversary& adversary = *adversary_;
  const int n = adversary.num_processes();
  const auto un = static_cast<std::size_t>(n);
  const int alphabet = adversary.alphabet_size();
  PendingFrontier out;
  out.chunk = chunk;
  out.n = n;
  if (budget != nullptr && budget->exceeded()) {
    // Another chunk already tripped the level budget; this chunk's work
    // would be discarded, so don't do it.
    out.overflow = true;
    return out;
  }
  telemetry::TraceWriter* trace =
      options_.metrics != nullptr ? options_.metrics->trace() : nullptr;
  const std::uint64_t span_start = trace != nullptr ? trace->now_us() : 0;
  std::uint64_t emissions = 0;
  const ExpandArenas::Lease lease(*arenas_);
  ExpandScratch& scratch = *lease;

  const std::size_t chunk_size = chunk.end - chunk.begin;
  const std::size_t num_pairs = shape_.pairs.size();

  // The per-parent (q, mask) memo: for a fixed parent, the child view of
  // process q depends only on its expansion-shape pair, so each pair is
  // resolved at most once per parent no matter how many letters share
  // it (e.g. omission's alphabet collapses from |letters| * n view
  // interns per parent to the distinct-pair count). Epoch-stamped, so
  // there is nothing to clear between parents.
  std::vector<std::int32_t>& memo_val = scratch.memo_val;
  std::vector<std::uint32_t>& memo_epoch = scratch.memo_epoch;
  memo_val.assign(num_pairs, -1);
  memo_epoch.assign(num_pairs, 0);

  // Scratch keys, reused across emissions: no per-emission allocation.
  // Keys are KeyCodec-packed (see frontier.hpp).
  const KeyCodec codec = level_codec();
  std::vector<std::uint32_t>& view_key = scratch.view_key;
  std::vector<std::uint32_t>& state_key = scratch.state_key;
  state_key.assign(codec.state_words, 0);
  const auto pack_view_key = [&](std::uint32_t recv, NodeMask in_mask,
                                 std::span<const ViewId> parent_views) {
    const auto senders =
        static_cast<std::uint32_t>(std::popcount(in_mask));
    const std::size_t bits =
        codec.q_bits + codec.mask_bits +
        static_cast<std::size_t>(senders) * codec.sender_bits;
    view_key.assign((bits + 31) / 32, 0);
    std::size_t pos = 0;
    put_bits(view_key.data(), pos, recv, codec.q_bits);
    pos += codec.q_bits;
    put_bits(view_key.data(), pos, in_mask, codec.mask_bits);
    pos += codec.mask_bits;
    NodeMask rest = in_mask;
    while (rest != 0) {
      const int p = std::countr_zero(rest);
      rest &= rest - 1;
      put_bits(view_key.data(), pos,
               static_cast<std::uint32_t>(
                   parent_views[static_cast<std::size_t>(p)]),
               codec.sender_bits);
      pos += codec.sender_bits;
    }
  };

  const std::size_t stride = out.stride();
  if (options_.keep_levels) out.children.offsets.reserve(chunk_size + 1);
  std::size_t reported = 0;
  for (std::size_t i = chunk.begin; i < chunk.end && !out.overflow; ++i) {
    if (budget != nullptr && i > chunk.begin) {
      if (!budget->add(out.size() - reported)) {
        out.overflow = true;
        break;
      }
      reported = out.size();
    }
    const std::span<const ViewId> parent_views = frontier.views(i);
    const std::span<const NodeMask> parent_reach = frontier.reach(i);
    const AdvState parent_state = frontier.adv_state(i);
    const std::uint64_t parent_mult = frontier.multiplicity[i];
    const auto epoch = static_cast<std::uint32_t>(i - chunk.begin) + 1;
    const std::size_t kids_begin = out.children.targets.size();
    for (int letter = 0; letter < alphabet; ++letter) {
      const AdvState adv_next = adversary.transition(parent_state, letter);
      if (adv_next == kRejectState) continue;
      const Digraph& g = adversary.graph(letter);
      std::fill(state_key.begin(), state_key.end(), 0u);
      put_bits(state_key.data(), 0, static_cast<std::uint32_t>(adv_next),
               codec.adv_bits);
      for (int q = 0; q < n; ++q) {
        const auto pair = static_cast<std::size_t>(
            shape_.pair_of[static_cast<std::size_t>(letter) * un +
                           static_cast<std::size_t>(q)]);
        std::int32_t view_index;
        if (memo_epoch[pair] == epoch) {
          view_index = memo_val[pair];
        } else {
          pack_view_key(static_cast<std::uint32_t>(q),
                        g.in_mask(static_cast<ProcessId>(q)), parent_views);
          bool view_inserted;
          view_index = out.views.intern(view_key.data(), view_key.size(),
                                        &view_inserted);
          memo_val[pair] = view_index;
          memo_epoch[pair] = epoch;
        }
        put_bits(state_key.data(),
                 codec.adv_bits + static_cast<std::size_t>(q) * codec.index_bits,
                 static_cast<std::uint32_t>(view_index), codec.index_bits);
      }
      assert(adversary.state_bound() <= 0 ||
             adv_next < adversary.state_bound());
      ++emissions;
      bool inserted;
      const int index = out.state_index.intern(
          state_key.data(), state_key.size(), &inserted);
      if (inserted) {
        // New pending row [reach..., adv_state, parent, letter]; the
        // child's reach is the parent's propagated along g.
        const std::size_t base = out.rows.size();
        out.rows.resize(base + stride);
        std::uint32_t* row = out.rows.data() + base;
        for (int q = 0; q < n; ++q) {
          NodeMask acc = 0;
          NodeMask senders = g.in_mask(static_cast<ProcessId>(q));
          while (senders != 0) {
            const int p = std::countr_zero(senders);
            senders &= senders - 1;
            acc |= parent_reach[static_cast<std::size_t>(p)];
          }
          row[q] = acc;
        }
        row[un] = static_cast<std::uint32_t>(adv_next);
        row[un + 1] = static_cast<std::uint32_t>(i);
        row[un + 2] = static_cast<std::uint32_t>(letter);
        out.multiplicity.push_back(parent_mult);
        if (out.size() > options_.max_states) {
          out.overflow = true;
          break;
        }
      } else {
        out.multiplicity[static_cast<std::size_t>(index)] += parent_mult;
      }
      if (options_.keep_levels) {
        // A parent can reach one class via several letters; filter the
        // repeats like the serial scan does.
        std::vector<int>& targets = out.children.targets;
        if (std::find(targets.begin() +
                          static_cast<std::ptrdiff_t>(kids_begin),
                      targets.end(), index) == targets.end()) {
          targets.push_back(index);
        }
      }
    }
    if (options_.keep_levels) {
      out.children.offsets.push_back(out.children.targets.size());
    }
  }
  if (budget != nullptr && !out.overflow &&
      !budget->add(out.size() - reported)) {
    out.overflow = true;
  }
  out.stats.chunks = 1;
  out.stats.emissions = emissions;
  out.stats.pending_states = out.size();
  out.stats.dedup_hits = emissions - out.size();
  out.stats.pending_views = out.views.size();
  out.stats.rehashes = out.views.rehashes() + out.state_index.rehashes();
  if (trace != nullptr) {
    trace->complete(
        "chunk", "expand", span_start, trace->now_us() - span_start,
        {telemetry::TraceArg::num("depth",
                                  static_cast<std::uint64_t>(options_.depth)),
         telemetry::TraceArg::num("level",
                                  static_cast<std::uint64_t>(level_) + 1),
         telemetry::TraceArg::num("begin", chunk.begin),
         telemetry::TraceArg::num("end", chunk.end),
         telemetry::TraceArg::num("states", out.size())});
  }
  return out;
}

PendingFrontier FrontierEngine::merge(
    std::vector<PendingFrontier> chunks) const {
  for (const PendingFrontier& chunk : chunks) {
    if (chunk.overflow) {
      PendingFrontier level;
      level.overflow = true;
      return level;
    }
  }
  // The first chunk's classes and views are distinct and come first in
  // merged order, so it IS the start of the merged level: adopt it (its
  // parent indexing is already the frontier's) and fold the rest in.
  PendingFrontier level = std::move(chunks.front());
  level.chunk = FrontierChunk{0, frontier().size()};
  if (chunks.size() == 1) return level;

  const KeyCodec codec = level_codec();
  const std::size_t stride = level.stride();
  const std::uint64_t adopted_rehashes =
      level.views.rehashes() + level.state_index.rehashes();
  std::vector<int> view_remap;
  std::vector<int> state_remap;
  std::vector<std::uint32_t> state_key;
  for (PendingFrontier& chunk : std::span(chunks).subspan(1)) {
    level.stats.add(chunk.stats);
    // Re-key the chunk's distinct views in the merged view table (one
    // long-key lookup per distinct view, not per state). Every chunk of
    // a level packs with the same KeyCodec, so the packed bytes carry
    // over verbatim.
    view_remap.assign(chunk.views.size(), -1);
    for (std::size_t v = 0; v < chunk.views.size(); ++v) {
      bool inserted;
      view_remap[v] = level.views.intern(
          chunk.views.words_of(static_cast<int>(v)),
          chunk.views.count_of(static_cast<int>(v)), &inserted);
    }
    state_remap.assign(chunk.size(), -1);
    for (std::size_t s = 0; s < chunk.size(); ++s) {
      const std::uint32_t* words =
          chunk.state_index.words_of(static_cast<int>(s));
      assert(chunk.state_index.count_of(static_cast<int>(s)) ==
             codec.state_words);
      // Remap the packed view-index fields into the merged table's
      // numbering; the adversary-state field carries over.
      state_key.assign(codec.state_words, 0);
      put_bits(state_key.data(), 0, get_bits(words, 0, codec.adv_bits),
               codec.adv_bits);
      for (int q = 0; q < codec.n; ++q) {
        const std::size_t pos =
            codec.adv_bits + static_cast<std::size_t>(q) * codec.index_bits;
        put_bits(state_key.data(), pos,
                 static_cast<std::uint32_t>(view_remap[get_bits(
                     words, pos, codec.index_bits)]),
                 codec.index_bits);
      }
      bool inserted;
      const int index = level.state_index.intern(state_key.data(),
                                                 state_key.size(), &inserted);
      state_remap[s] = index;
      if (inserted) {
        level.rows.insert(level.rows.end(), chunk.row(s),
                          chunk.row(s) + stride);
        level.multiplicity.push_back(chunk.multiplicity[s]);
        if (level.size() > options_.max_states) {
          level.overflow = true;
          return level;
        }
      } else {
        level.multiplicity[static_cast<std::size_t>(index)] +=
            chunk.multiplicity[s];
      }
    }
    if (options_.keep_levels) {
      // Chunks arrive in frontier order and cover it contiguously, so the
      // merged CSR is the concatenation. Distinct chunk-local classes stay
      // distinct after the merge, so the per-parent lists need only
      // remapping, not re-dedup.
      for (std::size_t p = 0; p < chunk.children.size(); ++p) {
        for (const int child : chunk.children[p]) {
          level.children.targets.push_back(
              state_remap[static_cast<std::size_t>(child)]);
        }
        level.children.offsets.push_back(level.children.targets.size());
      }
    }
    // Fully folded in: release the chunk.
    chunk = PendingFrontier{};
  }
  // Fix up the summed chunk stats for the cross-chunk dedup this merge
  // performed: duplicates across chunks count as dedup hits, and the
  // distinct view/state tallies become the merged tables' sizes.
  const std::uint64_t chunk_states_total = level.stats.pending_states;
  level.stats.pending_states = level.size();
  level.stats.dedup_hits += chunk_states_total - level.size();
  level.stats.pending_views = level.views.size();
  level.stats.rehashes += level.views.rehashes() +
                          level.state_index.rehashes() - adopted_rehashes;
  return level;
}

void FrontierEngine::commit(PendingFrontier level) {
  assert(!level.overflow && "commit of an overflowed level");
  // The codec of the level being committed: derived BEFORE any interner
  // mutation below, so it matches what expand()/merge() used.
  const KeyCodec codec = level_codec();
  // Sequential hand-off: commits of one engine happen one at a time but
  // possibly from different pool threads across levels.
  interner_->attach_to_current_thread();
  const std::size_t views_before = interner_->size();
  const int n = adversary_->num_processes();
  const auto un = static_cast<std::size_t>(n);
  const FlatLevel& parent_level = frontier();
  const std::size_t count = level.size();
  FlatLevel next;
  next.n = n;
  next.rows.resize(count * next.stride());
  next.multiplicity = std::move(level.multiplicity);
  next.root_inputs = parent_level.root_inputs;
  next.root_offsets.assign(parent_level.root_offsets.size(), 0);
  std::vector<std::pair<int, int>> parents;
  if (options_.keep_levels) parents.reserve(count);
  // Each distinct pending view is interned exactly once, on first use;
  // states are walked in merged (= serial discovery) order and views in
  // process order, so ids are assigned in the serial scan's order.
  std::vector<ViewId> resolved(level.views.size(), -1);
  std::vector<ViewId> senders;
  // First parents are non-decreasing in discovery order, and so are
  // their roots: one forward walk over the parent level's root offsets
  // yields the new level's.
  std::size_t root = 0;
  for (std::size_t s = 0; s < count; ++s) {
    const std::uint32_t* pending = level.row(s);
    const std::uint32_t* key = level.state_index.words_of(static_cast<int>(s));
    std::uint32_t* row = next.rows.data() + s * next.stride();
    row[0] = pending[un];
    for (std::size_t q = 0; q < un; ++q) {
      const auto v = static_cast<std::size_t>(get_bits(
          key, codec.adv_bits + q * codec.index_bits, codec.index_bits));
      ViewId& id = resolved[v];
      if (id < 0) {
        const std::uint32_t* words = level.views.words_of(static_cast<int>(v));
        std::size_t pos = 0;
        const std::uint32_t recv = get_bits(words, pos, codec.q_bits);
        pos += codec.q_bits;
        const auto in_mask =
            static_cast<NodeMask>(get_bits(words, pos, codec.mask_bits));
        pos += codec.mask_bits;
        senders.clear();
        NodeMask rest = in_mask;
        while (rest != 0) {
          rest &= rest - 1;
          senders.push_back(
              static_cast<ViewId>(get_bits(words, pos, codec.sender_bits)));
          pos += codec.sender_bits;
        }
        id = interner_->step(static_cast<ProcessId>(recv), in_mask, senders);
      }
      row[1 + q] = static_cast<std::uint32_t>(id);
    }
    std::copy(pending, pending + un, row + 1 + un);
    const std::size_t parent = pending[un + 1];
    while (parent_level.root_offsets[root + 1] <= parent) ++root;
    ++next.root_offsets[root + 1];
    if (options_.keep_levels) {
      parents.emplace_back(static_cast<int>(parent),
                           static_cast<int>(pending[un + 2]));
    }
  }
  for (std::size_t r = 1; r < next.root_offsets.size(); ++r) {
    next.root_offsets[r] += next.root_offsets[r - 1];
  }
  ++level_;
  if (options_.keep_levels) {
    children_.push_back(std::move(level.children));
    first_parent_.push_back(std::move(parents));
    levels_.push_back(std::move(next));
  } else {
    levels_.back() = std::move(next);
  }
  // The single counter-flush point: only committed levels reach it, so
  // every count is identical at any thread count (see telemetry/metrics).
  if (options_.metrics != nullptr) {
    options_.metrics->add_pending(level.stats);
    options_.metrics->add_commit(count, interner_->size() - views_before);
  }
}

}  // namespace topocon
