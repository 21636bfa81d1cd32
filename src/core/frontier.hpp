// The frontier engine: the per-level BFS expansion of the depth-t
// epsilon-approximation (Definition 6.2), exposed as ordered chunks so
// callers can shard one level's work below the input-vector root.
//
// The engine owns one shard of the prefix space -- a contiguous range of
// input-vector roots with a dedicated ViewInterner -- and expands it one
// level at a time in three phases:
//
//   partition  the current frontier is cut into deterministic chunks of
//              at most `chunk_states` parents, in frontier order;
//   expand     each chunk is expanded by one letter with chunk-local
//              deduplication. Expansion is *interner-free*: a child view
//              is recorded as its pending (process, round in-mask,
//              parent-level sender ids) word sequence, which is exactly
//              the structural identity ViewInterner::step interns -- two
//              children are equal iff their pending views are equal.
//              Pending views are deduplicated chunk-locally so state
//              dedup keys are short (one word per process), and no
//              shared state is written, so any number of chunks of one
//              engine may expand concurrently on different threads;
//   merge +    chunk results are deduplicated across chunks in chunk
//   commit     order (first discovery wins, multiplicities sum) and only
//              then interned: commit resolves each distinct pending view
//              exactly once, in first-use order. Because chunk order is
//              frontier order, the merged level -- states, first_parent
//              links, children links, multiplicities, and even the
//              interner's id assignment order -- is identical to what a
//              single serial scan of the whole frontier produces, for
//              EVERY chunk size. Chunking is an execution detail that
//              can never change a result.
//
// merge() is separated from commit() so the caller coordinating one
// engine per root (analyze_depth in core/epsilon_approx.hpp) can apply
// the global truncation budget to the sum of the pending level sizes
// BEFORE any interner mutation happens: an overflowing level leaves
// every interner exactly as if the level had never been attempted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/epsilon_approx.hpp"
#include "ptg/view_intern.hpp"
#include "telemetry/metrics.hpp"

namespace topocon {

/// One deterministic slice [begin, end) of a frontier, in frontier order.
struct FrontierChunk {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Fixed-width bit layout of the engine's pending dedup keys, derived
/// once per level from quantities that are constant while that level
/// expands (n, the expansion shape, the parent interner size, the parent
/// frontier size, and the adversary's state_bound()). A view key
/// [q, mask, senders...] and a state key [adv_state, view indices] are
/// packed LSB-first into little-endian uint32 words; packing is
/// injective, so dedup equality classes -- and with them every result
/// byte -- are exactly those of the unpacked keys, while the
/// WordSeqIndex pools shrink by the ratio of the summed bit widths to
/// full words. Every chunk of one level uses the same widths, so merge()
/// can re-intern chunk view keys byte-for-byte and only state keys need
/// field-level remapping.
struct KeyCodec {
  std::uint32_t q_bits = 0;       ///< receiver process, < n
  std::uint32_t mask_bits = 0;    ///< round in-mask, n bits
  std::uint32_t sender_bits = 0;  ///< parent-level interned view ids
  std::uint32_t adv_bits = 0;     ///< safety-automaton state
  std::uint32_t index_bits = 0;   ///< pending-view table indices
  std::uint32_t state_words = 0;  ///< packed state-key length in words
  int n = 0;
};

/// Writes the low `bits` (<= 32) bits of `value` at absolute bit
/// position `pos` of a zero-initialized little-endian word buffer.
/// `value` must fit in `bits` bits; fields never overlap, so plain OR
/// suffices.
inline void put_bits(std::uint32_t* words, std::size_t pos,
                     std::uint32_t value, std::uint32_t bits) {
  if (bits == 0) return;
  const std::size_t w = pos >> 5;
  const unsigned off = pos & 31;
  const std::uint64_t shifted = static_cast<std::uint64_t>(value) << off;
  words[w] |= static_cast<std::uint32_t>(shifted);
  if (off + bits > 32) {
    words[w + 1] |= static_cast<std::uint32_t>(shifted >> 32);
  }
}

/// Reads the `bits` (<= 32) bits at absolute bit position `pos`.
inline std::uint32_t get_bits(const std::uint32_t* words, std::size_t pos,
                              std::uint32_t bits) {
  if (bits == 0) return 0;
  const std::size_t w = pos >> 5;
  const unsigned off = pos & 31;
  std::uint64_t value = words[w] >> off;
  if (off + bits > 32) {
    value |= static_cast<std::uint64_t>(words[w + 1]) << (32 - off);
  }
  const std::uint64_t mask =
      bits >= 32 ? 0xffffffffull : ((std::uint64_t{1} << bits) - 1);
  return static_cast<std::uint32_t>(value & mask);
}

/// Append-only open-addressed map from word sequences (dedup keys) to
/// dense indices in first-insertion order, with the key material owned
/// by the table -- the one dedup structure of the engine: every chunk
/// expansion and every cross-chunk merge dedups its pending views and
/// states through it. Exposed here only because PendingFrontier embeds
/// two.
class WordSeqIndex {
 public:
  /// Index of the key `words[0..count)`, inserting it if absent;
  /// `*inserted` reports which happened.
  int intern(const std::uint32_t* words, std::size_t count, bool* inserted);

  std::size_t size() const { return entries_.size(); }
  /// Probe-table growth rehashes performed so far (telemetry).
  std::uint64_t rehashes() const { return rehashes_; }
  const std::uint32_t* words_of(int index) const {
    return pool_.data() + entries_[static_cast<std::size_t>(index)].offset;
  }
  std::size_t count_of(int index) const {
    return entries_[static_cast<std::size_t>(index)].count;
  }

 private:
  /// 16 bytes: the low 32 hash bits suffice to place an entry in any
  /// probe table this process can allocate and to reject most unequal
  /// keys before the word comparison.
  struct Entry {
    std::size_t offset = 0;
    std::uint32_t count = 0;
    std::uint32_t hash = 0;
  };
  void grow();

  std::vector<std::uint32_t> pool_;
  std::vector<Entry> entries_;
  /// Power-of-two probe table of entry indices; -1 = empty.
  std::vector<int> slots_;
  std::uint64_t rehashes_ = 0;
};

/// One expanded-but-not-yet-interned level slice: the output of
/// expand() (covering one chunk) and of merge() (covering the whole
/// frontier). States are flat rows like FlatLevel's, of stride
/// stride_for(n) = n + 3 words:
///
///   [reach mask of process 0..n-1, adv_state, parent, letter]
///
/// where (parent, letter) is the frontier index and letter of the first
/// discovery. Views are stored as chunk-local dedup indices into
/// `views` (via the state keys), whose key words are [process, mask,
/// senders...] with sender ids referring to the PARENT level's interned
/// views.
struct PendingFrontier {
  FrontierChunk chunk;
  int n = 0;
  FlatVector<std::uint32_t> rows;
  FlatVector<std::uint64_t> multiplicity;
  /// Distinct pending views of this slice; key words of view v are
  /// the KeyCodec packing of [process, mask, senders...].
  WordSeqIndex views;
  /// State dedup table, parallel to the rows: key words of state s are
  /// the KeyCodec packing of [adv_state, view index of process 0, ...,
  /// view index of n-1].
  WordSeqIndex state_index;
  /// children[i - chunk.begin] = local child indices of frontier parent
  /// i, in discovery order; filled only under keep_levels.
  ChildLinks children;
  /// True iff the slice exceeded max_states (rows incomplete).
  bool overflow = false;
  /// Expansion statistics of this slice, flushed into
  /// AnalysisOptions::metrics only at commit() so truncated levels never
  /// contribute (the determinism contract in telemetry/metrics.hpp).
  telemetry::PendingStats stats;

  static std::size_t stride_for(int processes) {
    return static_cast<std::size_t>(processes) + 3;
  }
  std::size_t stride() const { return stride_for(n); }
  std::size_t size() const { return multiplicity.size(); }
  const std::uint32_t* row(std::size_t i) const {
    return rows.data() + i * stride();
  }
};

/// Shared early-abort accumulator for one level's concurrent chunk
/// expansions: chunks report their dedup growth and stop once the
/// running total exceeds the per-level state cap, so a level that is
/// going to overflow costs O(max_states) instead of a full expansion.
/// NOTE: chunk-local counts can overcount the merged level (chunks of
/// one root may discover the same class), so a tripped budget is NOT an
/// overflow verdict by itself. What is exact: every chunk, even one
/// that aborted partway, holds distinct genuine classes of its root's
/// next level, and roots never share classes, so the sum over roots of
/// each root's largest chunk count (stats.pending_states) is a lower
/// bound on the merged level. analyze_depth (core/epsilon_approx.hpp)
/// decides a tripped level from that bound in the same pass, and
/// re-expands one chunk per root (exact counts) only when the bound stays
/// within the cap.
class FrontierBudget {
 public:
  explicit FrontierBudget(std::size_t max_states)
      : max_states_(max_states) {}

  /// Reports `delta` newly discovered states; returns false once the
  /// running total exceeds the cap.
  bool add(std::size_t delta) {
    return total_.fetch_add(delta, std::memory_order_relaxed) + delta <=
           max_states_;
  }
  bool exceeded() const {
    return total_.load(std::memory_order_relaxed) > max_states_;
  }

 private:
  std::atomic<std::size_t> total_{0};
  const std::size_t max_states_;
};

struct ExpandScratch;

/// Reusable chunk-expansion scratch (the per-parent pair memo and the
/// key buffers) for the engines of one analysis, in the style of per-core
/// preallocated pools: every running expand() leases one arena and
/// returns it when done, so at most one arena exists per concurrently
/// expanding thread and each is reused across chunks and levels. All of
/// it is released with the last engine that shares the pool, so nothing
/// outlives the analysis. Thread-safe.
class ExpandArenas {
 public:
  ExpandArenas();
  ~ExpandArenas();
  ExpandArenas(const ExpandArenas&) = delete;
  ExpandArenas& operator=(const ExpandArenas&) = delete;

  /// RAII lease of one arena.
  class Lease {
   public:
    explicit Lease(ExpandArenas& pool);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ExpandScratch& operator*() const { return *scratch_; }

   private:
    ExpandArenas& pool_;
    std::unique_ptr<ExpandScratch> scratch_;
  };

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<ExpandScratch>> free_;
};

/// One shard of the chunked BFS (see the header comment).
class FrontierEngine {
 public:
  /// Initializes the level-0 frontier: one class per input vector with
  /// dense index in [first_root, last_root). Mutates `interner` (which
  /// must outlive the engine), like every commit() does. Engines of one
  /// analysis may share `arenas`; null gives the engine its own.
  FrontierEngine(const MessageAdversary& adversary,
                 const AnalysisOptions& options, ViewInterner& interner,
                 int first_root, int last_root,
                 std::shared_ptr<ExpandArenas> arenas = nullptr);

  /// Depth expanded so far (0 right after construction).
  int level() const { return level_; }
  /// True once a level overflowed max_states; the frontier then still
  /// holds the last complete level.
  bool truncated() const { return truncated_; }
  const FlatLevel& frontier() const { return levels_.back(); }

  /// Deterministic partition of the current frontier into chunks of at
  /// most `chunk_states` parents (0 = one chunk). Never empty: an empty
  /// frontier yields one empty chunk.
  std::vector<FrontierChunk> partition(std::size_t chunk_states) const;

  /// Expands one chunk by one letter with chunk-local dedup. Read-only:
  /// chunks of one engine may be expanded concurrently. When `budget` is
  /// given the chunk reports its growth there and aborts (overflow set)
  /// once the shared total trips; the classes it holds then are still
  /// genuine -- see FrontierBudget for what that makes exact.
  ///
  /// Child views and states are deduplicated through the slice's two
  /// WordSeqIndex tables, each view resolved at most once per parent and
  /// (process, in-mask) pair. All per-chunk scratch comes from an arena
  /// leased from the engine's ExpandArenas.
  PendingFrontier expand(const FrontierChunk& chunk,
                         FrontierBudget* budget = nullptr) const;

  /// Deduplicates the chunk expansions -- which must be all chunks of
  /// the current frontier, in partition order -- across chunks. Does not
  /// touch the interner or the engine. The first chunk is adopted as the
  /// start of the merged level (its classes and views are distinct and
  /// come first), so a single chunk passes through.
  PendingFrontier merge(std::vector<PendingFrontier> chunks) const;

  /// Interns the pending views (each distinct view once, in first-use
  /// order -- the id assignment order of a serial scan) and installs the
  /// level as the new frontier. Must not be called with an overflowed
  /// level. Re-binds the interner to the calling thread (sequential
  /// hand-off); at most one commit per engine may run at a time.
  void commit(PendingFrontier level);

  /// Records that the next level overflowed (the caller decided via the
  /// global budget); the frontier keeps the last complete level.
  void mark_truncated() { truncated_ = true; }

  // History, recorded only under options.keep_levels; indexed like the
  // corresponding DepthAnalysis members restricted to this shard. Without
  // keep_levels, levels() holds just the current frontier.
  const std::vector<FlatLevel>& levels() const { return levels_; }
  const std::vector<std::vector<std::pair<int, int>>>& first_parent() const {
    return first_parent_;
  }
  const std::vector<ChildLinks>& children() const { return children_; }

 private:
  /// The adversary's per-round expansion shape, fixed at construction:
  /// the distinct (receiver, in-mask) pairs over all (letter, process)
  /// combinations. A parent's child view for process q depends only on
  /// its pair, so `pairs` bounds the per-parent view-intern work (the
  /// expand memo).
  struct ExpansionShape {
    struct Pair {
      std::uint32_t q = 0;
      NodeMask mask = 0;
    };
    std::vector<Pair> pairs;
    /// [letter * n + q] -> index into pairs.
    std::vector<std::int32_t> pair_of;
  };

  /// The key bit-widths of the level currently being expanded, derived
  /// from pre-commit state only -- expand(), merge(), and the head of
  /// commit() (before any interner mutation) all see the same codec.
  KeyCodec level_codec() const;

  const MessageAdversary* adversary_;
  AnalysisOptions options_;
  ViewInterner* interner_;
  std::shared_ptr<ExpandArenas> arenas_;
  ExpansionShape shape_;
  int level_ = 0;
  bool truncated_ = false;
  /// Never empty: back() is the current frontier.
  std::vector<FlatLevel> levels_;
  std::vector<std::vector<std::pair<int, int>>> first_parent_;
  std::vector<ChildLinks> children_;
};

}  // namespace topocon
