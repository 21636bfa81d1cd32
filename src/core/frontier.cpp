#include "core/frontier.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
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

/// Hard cap on one direct-indexed table (entries, i.e. 4 bytes each):
/// above it even a forced kDense chunk falls back to hashing. Bounds the
/// per-chunk scratch at 8 MiB per table regardless of the key space.
constexpr std::uint64_t kDenseSlotCap = std::uint64_t{1} << 21;

/// GBBS-style density threshold for kAuto: a key space is "dense enough"
/// when it is at most this many times the chunk's expected insertions --
/// then the O(space) table initialization amortizes against the hashing
/// it replaces.
constexpr std::uint64_t kDenseHeadroom = 4;

/// Bounds for the pending-state dense path's adversary-state prescan.
constexpr std::size_t kDenseAdvCap = 1024;
constexpr std::size_t kDenseAdvTableCap = std::size_t{1} << 16;

constexpr std::uint64_t kSpaceOverflow =
    std::numeric_limits<std::uint64_t>::max();

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > kSpaceOverflow / b) return kSpaceOverflow;
  return a * b;
}

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return a > kSpaceOverflow - b ? kSpaceOverflow : a + b;
}

/// Chunk-local open-addressed map from non-negative int32 keys to int32
/// values, used by the dense expansion path to assign compact digits to
/// parent view ids and adversary states. Sized once for a known entry
/// cap; the caller never inserts more than `max_entries` distinct keys.
class ScratchMap {
 public:
  void init(std::size_t max_entries) {
    std::size_t slots = 16;
    while (slots < max_entries * 2 + 2) slots <<= 1;
    keys_.assign(slots, -1);
    vals_.resize(slots);
  }

  /// Value of `key`, inserting `fresh` if absent; `*inserted` reports
  /// which happened.
  std::int32_t find_or_insert(std::int32_t key, std::int32_t fresh,
                              bool* inserted) {
    const std::size_t mask = keys_.size() - 1;
    std::size_t pos =
        (static_cast<std::uint32_t>(key) * 2654435761u) & mask;
    while (true) {
      if (keys_[pos] < 0) {
        keys_[pos] = key;
        vals_[pos] = fresh;
        *inserted = true;
        return fresh;
      }
      if (keys_[pos] == key) {
        *inserted = false;
        return vals_[pos];
      }
      pos = (pos + 1) & mask;
    }
  }

 private:
  std::vector<std::int32_t> keys_;
  std::vector<std::int32_t> vals_;
};

}  // namespace

/// One arena of chunk-expansion scratch (see ExpandArenas). Every member
/// is fully re-initialized by the chunk that uses it, so results never
/// depend on which arena a chunk leased or what it held before.
struct ExpandScratch {
  std::vector<std::uint32_t> radix;      // U_p per process
  std::vector<std::uint64_t> pair_base;  // dense offset per pair
  std::vector<std::int32_t> dense_view_slot;
  std::vector<std::int32_t> dense_state_slot;
  ScratchMap adv_remap;
  ScratchMap child_remap;
  ScratchMap view_remap;  // parent view id -> compact per-process digit
  std::vector<AdvState> advs;
  std::vector<AdvState> adv_child_value;  // [adv index * alphabet + letter]
  std::vector<std::int32_t> adv_child_digit;
  std::vector<std::uint32_t> digits;
  std::vector<std::int32_t> next_digit;
  std::vector<std::int32_t> memo_val;
  std::vector<std::uint32_t> memo_epoch;
  std::vector<std::uint32_t> view_key;
  std::vector<std::uint32_t> state_key;
  std::vector<std::uint32_t> view_idx;
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

std::optional<FrontierMode> frontier_mode_from_name(std::string_view name) {
  if (name == "auto") return FrontierMode::kAuto;
  if (name == "dense") return FrontierMode::kDense;
  if (name == "sparse") return FrontierMode::kSparse;
  return std::nullopt;
}

const char* to_string(FrontierMode mode) {
  switch (mode) {
    case FrontierMode::kAuto:
      return "auto";
    case FrontierMode::kSparse:
      return "sparse";
    case FrontierMode::kDense:
      return "dense";
  }
  return "?";
}

int WordSeqIndex::intern(const std::uint32_t* words, std::size_t count,
                         bool* inserted) {
  assert(!appended_ && "intern() on a table frozen by append_new()");
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

int WordSeqIndex::append_new(const std::uint32_t* words, std::size_t count) {
  appended_ = true;
  const auto id = static_cast<int>(entries_.size());
  Entry entry;
  entry.offset = pool_.size();
  entry.count = static_cast<std::uint32_t>(count);
  // The probe table is not maintained (see the header contract), so the
  // hash is never needed; skipping it is the point of the dense path.
  entry.hash = 0;
  pool_.insert(pool_.end(), words, words + count);
  entries_.push_back(entry);
  return id;
}

void WordSeqIndex::reindex() {
  std::size_t slots = 64;
  while ((entries_.size() + 1) * 10 > slots * 7) slots <<= 1;
  slots_.assign(slots, -1);
  const std::size_t mask = slots - 1;
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    Entry& entry = entries_[e];
    entry.hash = static_cast<std::uint32_t>(
        hash_words(pool_.data() + entry.offset, entry.count));
    std::size_t pos = entry.hash & mask;
    while (slots_[pos] >= 0) pos = (pos + 1) & mask;
    slots_[pos] = static_cast<int>(e);
  }
  appended_ = false;
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
                               int last_root, FrontierMode frontier,
                               std::shared_ptr<ExpandArenas> arenas)
    : adversary_(&adversary),
      options_(options),
      frontier_mode_(frontier),
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
  // Distinct level-0 views per process (the roots are few: one class per
  // input vector of this shard).
  frontier_distinct_.assign(static_cast<std::size_t>(n), 0);
  std::vector<ViewId> ids;
  for (int p = 0; p < n; ++p) {
    ids.clear();
    for (std::size_t i = 0; i < start.size(); ++i) {
      ids.push_back(start.views(i)[static_cast<std::size_t>(p)]);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    frontier_distinct_[static_cast<std::size_t>(p)] =
        static_cast<std::uint32_t>(ids.size());
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
  const std::uint64_t index_bound =
      sat_mul(frontier().size(), shape_.pairs.size());
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
  const FrontierMode mode = frontier_mode_;

  // ---- Dense planning, O(pairs) arithmetic before any expansion.
  //
  // A child-view key is [q, mask, senders...] where the senders are the
  // PARENT level's interned view ids of the processes in mask. Within
  // this chunk the sender in digit position p takes at most
  // U_p = min(|chunk|, distinct views of p in the whole frontier)
  // values, so the keys of pair (q, mask) enumerate a range of size
  // prod_{p in mask} U_p once sender ids are remapped to compact
  // per-process digits, and the whole chunk's key space has size
  // S_v = sum over distinct pairs of that product -- computable up
  // front. The chunk goes dense when S_v fits the slot cap and (under
  // kAuto) is at most kDenseHeadroom times the expected insertions, the
  // GBBS vertexSubset densification rule transplanted to dedup keys.
  bool dense_views = false;
  std::vector<std::uint32_t>& radix = scratch.radix;
  std::vector<std::uint64_t>& pair_base = scratch.pair_base;
  std::uint64_t view_space = 0;
  if (mode != FrontierMode::kSparse && chunk_size > 0) {
    radix.resize(un);
    for (std::size_t p = 0; p < un; ++p) {
      radix[p] = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(chunk_size, frontier_distinct_[p]));
    }
    pair_base.resize(num_pairs);
    for (std::size_t pr = 0; pr < num_pairs; ++pr) {
      pair_base[pr] = view_space;
      std::uint64_t pair_space = 1;
      NodeMask rest = shape_.pairs[pr].mask;
      while (rest != 0) {
        const int p = std::countr_zero(rest);
        rest &= rest - 1;
        pair_space = sat_mul(pair_space, radix[static_cast<std::size_t>(p)]);
      }
      view_space = sat_add(view_space, pair_space);
    }
    // After the per-parent (q, mask) memo below, at most one view
    // insertion happens per parent and pair.
    const std::uint64_t expected_views = sat_mul(chunk_size, num_pairs);
    dense_views = view_space <= kDenseSlotCap &&
                  (mode == FrontierMode::kDense ||
                   view_space <= sat_mul(kDenseHeadroom, expected_views));
  }

  // ---- Pending-state dense planning. State keys are [adversary state,
  // view index per process]; the view indices are bounded by
  // W = min(S_v, |chunk| * pairs) and the child adversary states are
  // enumerated by a prescan of the chunk's distinct parent states, so
  // the key space A_child * W^n is computable too. The prescan is only
  // worth its O(|chunk|) when the views went dense (W is tiny exactly
  // then); as a side effect it memoizes the safety-automaton transition,
  // replacing the per-emission virtual call with a table load.
  bool dense_states = false;
  bool adv_cached = false;
  std::uint64_t w_cap = 0;
  ScratchMap& adv_remap = scratch.adv_remap;
  std::vector<AdvState>& adv_child_value = scratch.adv_child_value;
  std::vector<std::int32_t>& adv_child_digit = scratch.adv_child_digit;
  if (dense_views) {
    w_cap = std::min<std::uint64_t>(view_space,
                                    sat_mul(chunk_size, num_pairs));
    adv_remap.init(std::min(chunk_size, kDenseAdvCap + 1));
    std::vector<AdvState>& advs = scratch.advs;
    advs.clear();
    std::int32_t adv_count = 0;
    bool bounded = true;
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      bool fresh;
      adv_remap.find_or_insert(frontier.adv_state(i), adv_count, &fresh);
      if (fresh) {
        advs.push_back(frontier.adv_state(i));
        if (static_cast<std::size_t>(++adv_count) > kDenseAdvCap) {
          bounded = false;
          break;
        }
      }
    }
    if (bounded && static_cast<std::size_t>(adv_count) *
                           static_cast<std::size_t>(alphabet) <=
                       kDenseAdvTableCap) {
      const std::size_t table =
          static_cast<std::size_t>(adv_count) *
          static_cast<std::size_t>(alphabet);
      adv_child_value.resize(table);
      adv_child_digit.assign(table, -1);
      ScratchMap& child_remap = scratch.child_remap;
      child_remap.init(table);
      std::int32_t child_count = 0;
      for (std::int32_t ai = 0; ai < adv_count; ++ai) {
        for (int letter = 0; letter < alphabet; ++letter) {
          const std::size_t slot =
              static_cast<std::size_t>(ai) *
                  static_cast<std::size_t>(alphabet) +
              static_cast<std::size_t>(letter);
          const AdvState next =
              adversary.transition(advs[static_cast<std::size_t>(ai)], letter);
          adv_child_value[slot] = next;
          if (next == kRejectState) continue;
          // Non-reject automaton states are non-negative (state 0 is
          // initial), which ScratchMap relies on.
          bool fresh;
          adv_child_digit[slot] =
              child_remap.find_or_insert(next, child_count, &fresh);
          if (fresh) ++child_count;
        }
      }
      adv_cached = true;
      std::uint64_t state_space =
          static_cast<std::uint64_t>(child_count);
      for (int q = 0; q < n; ++q) state_space = sat_mul(state_space, w_cap);
      const std::uint64_t expected_states = sat_mul(chunk_size, alphabet);
      dense_states = state_space <= kDenseSlotCap &&
                     (mode == FrontierMode::kDense ||
                      state_space <= sat_mul(kDenseHeadroom, expected_states));
      if (dense_states) {
        scratch.dense_state_slot.assign(static_cast<std::size_t>(state_space),
                                        -1);
      }
    }
  }

  // ---- Per-chunk scratch (all from the leased arena).
  std::vector<std::int32_t>& dense_view_slot = scratch.dense_view_slot;
  std::vector<std::int32_t>& dense_state_slot = scratch.dense_state_slot;
  if (dense_views) {
    dense_view_slot.assign(static_cast<std::size_t>(view_space), -1);
  }
  ScratchMap& view_remap = scratch.view_remap;
  std::vector<std::uint32_t>& digits = scratch.digits;
  std::vector<std::int32_t>& next_digit = scratch.next_digit;
  digits.assign(un, 0);
  next_digit.assign(un, 0);
  if (dense_views) {
    std::size_t digit_cap = 0;
    for (std::size_t p = 0; p < un; ++p) digit_cap += radix[p];
    view_remap.init(digit_cap);
  }
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
  // Keys are KeyCodec-packed (see frontier.hpp); the per-process view
  // indices additionally stay unpacked in view_idx for the dense-state
  // address computation.
  const KeyCodec codec = level_codec();
  std::vector<std::uint32_t>& view_key = scratch.view_key;
  std::vector<std::uint32_t>& state_key = scratch.state_key;
  std::vector<std::uint32_t>& view_idx = scratch.view_idx;
  state_key.assign(codec.state_words, 0);
  view_idx.assign(un, 0);
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
  const auto pack_state_key = [&](AdvState adv) {
    std::fill(state_key.begin(), state_key.end(), 0u);
    put_bits(state_key.data(), 0, static_cast<std::uint32_t>(adv),
             codec.adv_bits);
    for (std::size_t q = 0; q < un; ++q) {
      put_bits(state_key.data(), codec.adv_bits + q * codec.index_bits,
               view_idx[q], codec.index_bits);
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
    std::int32_t parent_adv = -1;
    if (adv_cached) {
      bool fresh;
      parent_adv = adv_remap.find_or_insert(parent_state, -1, &fresh);
      assert(!fresh && "the prescan saw every parent state");
    }
    if (dense_views) {
      for (std::size_t p = 0; p < un; ++p) {
        bool fresh;
        const std::int32_t d = view_remap.find_or_insert(
            parent_views[p], next_digit[p], &fresh);
        if (fresh) ++next_digit[p];
        digits[p] = static_cast<std::uint32_t>(d);
      }
    }
    for (int letter = 0; letter < alphabet; ++letter) {
      const AdvState adv_next =
          adv_cached
              ? adv_child_value[static_cast<std::size_t>(parent_adv) *
                                    static_cast<std::size_t>(alphabet) +
                                static_cast<std::size_t>(letter)]
              : adversary.transition(parent_state, letter);
      if (adv_next == kRejectState) continue;
      const Digraph& g = adversary.graph(letter);
      for (int q = 0; q < n; ++q) {
        const auto pair = static_cast<std::size_t>(
            shape_.pair_of[static_cast<std::size_t>(letter) * un +
                           static_cast<std::size_t>(q)]);
        std::int32_t view_index;
        if (memo_epoch[pair] == epoch) {
          view_index = memo_val[pair];
        } else {
          const NodeMask mask = g.in_mask(static_cast<ProcessId>(q));
          if (dense_views) {
            std::uint64_t local = 0;
            NodeMask rest = mask;
            while (rest != 0) {
              const int p = std::countr_zero(rest);
              rest &= rest - 1;
              local = local * radix[static_cast<std::size_t>(p)] +
                      digits[static_cast<std::size_t>(p)];
            }
            const std::size_t addr =
                static_cast<std::size_t>(pair_base[pair] + local);
            view_index = dense_view_slot[addr];
            if (view_index < 0) {
              pack_view_key(static_cast<std::uint32_t>(q), mask,
                            parent_views);
              view_index =
                  out.views.append_new(view_key.data(), view_key.size());
              dense_view_slot[addr] = view_index;
            }
          } else {
            pack_view_key(static_cast<std::uint32_t>(q), mask, parent_views);
            bool view_inserted;
            view_index = out.views.intern(view_key.data(), view_key.size(),
                                          &view_inserted);
          }
          memo_val[pair] = view_index;
          memo_epoch[pair] = epoch;
        }
        view_idx[static_cast<std::size_t>(q)] =
            static_cast<std::uint32_t>(view_index);
      }
      assert(adversary.state_bound() <= 0 ||
             adv_next < adversary.state_bound());
      ++emissions;
      bool inserted;
      int index;
      if (dense_states) {
        std::uint64_t addr = static_cast<std::uint64_t>(
            adv_child_digit[static_cast<std::size_t>(parent_adv) *
                                static_cast<std::size_t>(alphabet) +
                            static_cast<std::size_t>(letter)]);
        for (std::size_t q = 0; q < un; ++q) {
          addr = addr * w_cap + view_idx[q];
        }
        std::int32_t slot = dense_state_slot[static_cast<std::size_t>(addr)];
        inserted = slot < 0;
        if (inserted) {
          pack_state_key(adv_next);
          slot = out.state_index.append_new(state_key.data(),
                                            state_key.size());
          dense_state_slot[static_cast<std::size_t>(addr)] = slot;
        }
        index = slot;
      } else {
        pack_state_key(adv_next);
        index = out.state_index.intern(state_key.data(), state_key.size(),
                                       &inserted);
      }
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
  out.stats.dense_view_chunks = dense_views ? 1 : 0;
  out.stats.dense_state_chunks = dense_states ? 1 : 0;
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
         telemetry::TraceArg::num("states", out.size()),
         telemetry::TraceArg::num("dense", dense_views ? 1 : 0)});
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
  level.views.reindex();
  level.state_index.reindex();
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
  // level.views holds exactly the distinct views of the new frontier
  // (every entry was part of some committed state's key), so the
  // per-process tally feeding the dense heuristic is one scan of it.
  frontier_distinct_.assign(un, 0);
  for (std::size_t v = 0; v < level.views.size(); ++v) {
    ++frontier_distinct_[get_bits(level.views.words_of(static_cast<int>(v)),
                                  0, codec.q_bits)];
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
