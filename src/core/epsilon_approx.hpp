// The epsilon-approximation of Definition 6.2, computed exactly on the
// finite depth-t prefix space of a message adversary.
//
// Fix epsilon = 2^-t. The paper constructs PS^eps_z by iteratively closing
// {z} under eps-balls intersected with PS; that is exactly eps-chain
// connectivity: a and b are in the same PS^eps-component iff there is a
// finite chain a = c_0, ..., c_k = b of admissible sequences with
// d_min(c_i, c_{i+1}) < eps. Since d_min(a, b) < 2^-t holds iff some process
// has the same view in a and b at time t (views are cumulative, Section 4),
// the components are determined by the depth-t prefixes alone:
//
//   universe   = admissible (input vector, length-t graph sequence) pairs,
//                deduplicated by (safety state, interned view vector) --
//                states that agree on all views and the adversary state are
//                indistinguishable points of the analysis;
//   adjacency  = two prefixes share the interned view id of some process;
//   components = union-find closure, linear in the number of (state, view)
//                pairs via bucketing by view id.
//
// From the components the analysis derives everything Section 5 and 6 talk
// about: valences (which components contain v-valent sequences z_v),
// separation (Corollary 5.6's criterion at resolution eps), and
// broadcastability (Definition 5.8 restricted to depth t).
//
// For a *compact* adversary this is a faithful finite approximation of PS
// itself (Theorem 6.6); for a non-compact adversary it analyzes the closure
// and is expected to stay merged at every depth (Section 6.3) -- that
// failure is one of the reproduced results, not a bug.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
#include "ptg/prefix.hpp"
#include "ptg/reach.hpp"
#include "ptg/view_intern.hpp"

namespace topocon {

namespace telemetry {
class MetricsRegistry;
}  // namespace telemetry

/// Which topology induces the component adjacency (Section 4):
///  * kMin  -- the minimum topology d_min (the paper's characterization
///    topology, Section 4.2): leaves adjacent iff SOME process has equal
///    views. This is the default and the only mode the solvability
///    checker uses.
///  * kPView -- the P-view topology d_P for a fixed process set P
///    (Section 4.1): leaves adjacent iff the JOINT P-view is equal, i.e.,
///    every process in P has equal views. P = [n] recovers the classic
///    common-prefix (Alpern-Schneider) topology d_max. These modes exist
///    for analysis and illustration: they over-separate (Theorem 5.4 makes
///    decision sets clopen in them too, but separation there does not
///    imply solvability) -- quantified in bench E6.
enum class AdjacencyTopology { kMin, kPView };

/// Pending-level dedup representation of the frontier engine
/// (core/frontier.hpp). An execution detail exactly like keep_levels and
/// the chunk size: it is never serialized into query JSON and can never
/// change any result byte -- forced dense, forced sparse, and the
/// per-chunk heuristic all produce bit-identical analyses (enforced by
/// tests/frontier_mode_test.cpp and the --frontier golden lanes).
enum class FrontierMode {
  /// Resolve to the process-wide default (set_default_frontier_mode in
  /// core/frontier.hpp; kAuto unless the CLI overrode it).
  kDefault,
  /// Per-chunk GBBS-style heuristic: direct-indexed tables when the
  /// enumerable key space is small relative to the chunk's emissions,
  /// open-addressed hashing otherwise.
  kAuto,
  /// Always the sparse open-addressed WordSeqIndex path.
  kSparse,
  /// Direct-indexed tables whenever the chunk's key space is
  /// representable under the memory cap (falls back to sparse beyond it).
  kDense,
};

/// Out-of-core spill knobs for the chunked frontier engine
/// (core/spill.*). An execution detail exactly like FrontierMode: never
/// serialized into query JSON, and artifacts are byte-identical at every
/// budget -- spilling only bounds how many expanded-but-unmerged chunks
/// stay resident at once.
struct SpillOptions {
  /// Soft budget in bytes for one level's resident chunk expansions.
  /// 0 resolves to the process-wide default (set_default_spill in
  /// core/spill.hpp), whose initial value disables spilling. A chunk
  /// spills when its footprint times the level's chunk count exceeds
  /// the budget -- a deterministic fair-share rule, so WHAT spills never
  /// depends on thread scheduling.
  std::uint64_t budget_bytes = 0;
  /// Directory for the per-run spill subdirectory; empty = the process
  /// default, then std::filesystem::temp_directory_path().
  std::string dir;
};

struct AnalysisOptions {
  /// Prefix depth t; epsilon = 2^-t.
  int depth = 4;
  /// Input domain {0, ..., num_values-1}.
  int num_values = 2;
  /// Abort (truncated = true) if any BFS level exceeds this many states.
  std::size_t max_states = 2'000'000;
  /// Retain all BFS levels and tree edges (needed for decision tables and
  /// witness extraction; disable for cheap component counting).
  bool keep_levels = true;
  /// Component adjacency; see AdjacencyTopology.
  AdjacencyTopology topology = AdjacencyTopology::kMin;
  /// Process set P for kPView (bitmask; must be nonzero in that mode).
  NodeMask pview_set = 0;
  /// Pending-level dedup representation; like keep_levels an execution
  /// detail that is never serialized and never changes a result byte.
  FrontierMode frontier = FrontierMode::kDefault;
  /// Optional per-job telemetry sink (telemetry/metrics.hpp). An
  /// execution detail like `frontier`: never serialized, never changes a
  /// result byte; null disables all collection at zero hot-path cost.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Out-of-core spill knobs (chunked engine only; the serial scan
  /// ignores them). Same execution-detail contract as `frontier`.
  SpillOptions spill = {};
};

/// One deduplicated prefix class as plain value vectors. The analysis
/// itself stores classes as FlatLevel rows; this form is what the
/// single-scan reference expansion below works on and what
/// FlatLevel::state() materializes for inspection.
struct PrefixState {
  InputVector inputs;
  ViewVector views;
  ReachVector reach;
  AdvState adv_state = 0;
  /// Number of (input, letter-sequence) prefixes in this class.
  std::uint64_t multiplicity = 1;
};

/// Allocator whose argument-less construct() default-initializes, so
/// resize() on a vector of plain words leaves the new elements
/// uninitialized instead of zero-filling them. Flat levels are sized once
/// and then written row by row; zero-filling first would commit every
/// page of a multi-hundred-MiB level before its writers touch it.
template <class T>
struct UninitializedAllocator : std::allocator<T> {
  using value_type = T;
  UninitializedAllocator() = default;
  template <class U>
  UninitializedAllocator(const UninitializedAllocator<U>&) noexcept {}
  template <class U>
  struct rebind {
    using other = UninitializedAllocator<U>;
  };
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// The storage of flat rows and multiplicities.
template <class T>
using FlatVector = std::vector<T, UninitializedAllocator<T>>;

/// One BFS level's deduplicated prefix classes in flat row form: one
/// contiguous uint32 row array plus a parallel multiplicity array, so a
/// level of any size costs a handful of allocations instead of several
/// per class. Row i (stride() = 1 + 2n words) holds
///
///   [adv_state, view id of process 0..n-1, reach mask of process 0..n-1].
///
/// Inputs are not stored per row: classes of different input vectors
/// never merge (the dedup key contains every view and every view contains
/// its own input), so each level is root-contiguous in root order, and
/// row i takes its inputs from the root whose row range contains it.
struct FlatLevel {
  int n = 0;
  /// size() rows of stride() words, laid out as above.
  FlatVector<std::uint32_t> rows;
  /// multiplicity[i] = number of (input, letter-sequence) prefixes in
  /// class i.
  FlatVector<std::uint64_t> multiplicity;
  /// Input vectors of the level's roots in root order, n values each.
  std::vector<Value> root_inputs;
  /// Rows [root_offsets[r], root_offsets[r + 1]) descend from root r;
  /// num_roots() + 1 entries.
  std::vector<std::size_t> root_offsets;

  static std::size_t stride_for(int processes) {
    return 1 + 2 * static_cast<std::size_t>(processes);
  }
  std::size_t stride() const { return stride_for(n); }
  std::size_t size() const { return multiplicity.size(); }
  bool empty() const { return multiplicity.empty(); }
  std::size_t num_roots() const {
    return root_offsets.empty() ? 0 : root_offsets.size() - 1;
  }

  const std::uint32_t* row(std::size_t i) const {
    return rows.data() + i * stride();
  }
  AdvState adv_state(std::size_t i) const {
    return static_cast<AdvState>(row(i)[0]);
  }
  /// ViewId is the signed variant of the row word type, so the view
  /// words may be read through it directly.
  std::span<const ViewId> views(std::size_t i) const {
    return {reinterpret_cast<const ViewId*>(row(i) + 1),
            static_cast<std::size_t>(n)};
  }
  std::span<const NodeMask> reach(std::size_t i) const {
    return {row(i) + 1 + n, static_cast<std::size_t>(n)};
  }
  /// Root (index into this level's root table) of row i.
  std::size_t root_of(std::size_t i) const;
  std::span<const Value> root_input(std::size_t root) const {
    return {root_inputs.data() + root * static_cast<std::size_t>(n),
            static_cast<std::size_t>(n)};
  }
  std::span<const Value> inputs(std::size_t i) const {
    return root_input(root_of(i));
  }
  /// Row i as value vectors.
  PrefixState state(std::size_t i) const;

  friend bool operator==(const FlatLevel&, const FlatLevel&) = default;
};

/// Tree links from one level to the next in CSR form: the deduplicated
/// children of parent i are targets[offsets[i] .. offsets[i + 1]), in
/// discovery order.
struct ChildLinks {
  std::vector<std::size_t> offsets = {0};
  std::vector<int> targets;

  std::size_t size() const { return offsets.size() - 1; }
  std::span<const int> operator[](std::size_t parent) const {
    return {targets.data() + offsets[parent],
            offsets[parent + 1] - offsets[parent]};
  }

  friend bool operator==(const ChildLinks&, const ChildLinks&) = default;
};

/// Summary of one connected component of the depth-t universe.
struct ComponentInfo {
  std::int64_t num_leaves = 0;
  /// Bit v set iff the component contains an all-v-input leaf (i.e., the
  /// component of some z_v in the sense of Section 5.1).
  std::uint32_t valence_mask = 0;
  /// Processes whose input is known to everyone in *every* leaf by round t.
  NodeMask common_broadcast = 0;
  /// Members of common_broadcast whose input value is moreover uniform
  /// across the component; nonempty => broadcastable (Definition 5.8
  /// witnessed within depth t, cf. Theorem 5.9).
  NodeMask broadcasters = 0;
  /// Bit v set iff value v occurs among the inputs of *every* leaf of the
  /// component. Used for the strong-validity variant of consensus
  /// (Definition 5.1's remark): a strong assignment must pick its value
  /// from this set. For broadcastable components the broadcaster's uniform
  /// input always lies here (Theorem 5.9).
  std::uint32_t common_input_values = 0;
  /// Value assigned by the meta-procedure of Section 5.1 (valence if
  /// unique, default 0 for non-valent components); -1 if the component has
  /// two valences (separation failed).
  Value assigned_value = -1;
  /// Assignment satisfying strong validity (decision value is some
  /// process's input in every run): the valence when valent, otherwise the
  /// smallest common input value; -1 if merged or infeasible at this depth.
  Value assigned_value_strong = -1;

  int num_valences() const {
    return std::popcount(valence_mask);
  }

  friend bool operator==(const ComponentInfo&, const ComponentInfo&) = default;
};

/// Result of the depth-t analysis.
struct DepthAnalysis {
  int depth = 0;
  int num_values = 2;
  int num_processes = 0;
  bool truncated = false;

  /// Shared interner; view ids in `levels` refer to it.
  std::shared_ptr<ViewInterner> interner;

  /// levels[s] = deduplicated prefix classes of length s (s = 0..depth),
  /// in the discovery order of a serial scan. Present only when
  /// options.keep_levels (levels.back() -- the leaves -- is always
  /// present). At n = 4 a class costs 44 bytes here (9 row words plus
  /// its multiplicity).
  std::vector<FlatLevel> levels;

  /// children[s][i] = indices into levels[s+1] reached from levels[s][i]
  /// by one letter (deduplicated), one CSR per level. Present only when
  /// options.keep_levels.
  std::vector<ChildLinks> children;

  /// first_parent[s][i] = (index into levels[s-1], letter) of the first
  /// discovered way to reach levels[s][i]; {-1, -1} at level 0. Present
  /// only when options.keep_levels. Used to reconstruct witness prefixes.
  std::vector<std::vector<std::pair<int, int>>> first_parent;

  /// Component id of each leaf (levels.back()).
  std::vector<int> leaf_component;
  std::vector<ComponentInfo> components;

  /// True iff no component contains two valences (Corollary 5.6 at
  /// resolution 2^-depth).
  bool valence_separated = false;
  /// Number of components with >= 2 valences ("still-bivalent" classes).
  int merged_components = 0;
  /// True iff every component containing a valence is broadcastable with a
  /// depth-t witness (Theorem 6.6's condition, checked at this depth).
  bool valent_broadcastable = false;
  /// True iff valence_separated and every component admits a strong-
  /// validity assignment (assigned_value_strong >= 0 everywhere).
  bool strong_assignable = false;

  const FlatLevel& leaves() const { return levels.back(); }
};

/// Runs the depth-t analysis. If `interner` is null a fresh one is created;
/// passing one allows sharing ids across depths and with simulations.
DepthAnalysis analyze_depth(const MessageAdversary& adversary,
                            const AnalysisOptions& options,
                            std::shared_ptr<ViewInterner> interner = nullptr);

/// REFERENCE implementation of analyze_depth(): the identical analysis
/// driven by the single-scan initial_frontier()/expand_frontier() calls
/// below instead of the chunked FrontierEngine. Every field of the
/// result -- levels, links, multiplicities, truncation, components, and
/// the interner's id assignment order -- must be bit-identical to
/// analyze_depth() at every chunk size and thread count; the fuzz
/// differential harness (tests/fuzz_differential_test.cpp, `topocon
/// fuzz`) asserts exactly that on randomly composed adversaries.
DepthAnalysis analyze_depth_oracle(
    const MessageAdversary& adversary, const AnalysisOptions& options,
    std::shared_ptr<ViewInterner> interner = nullptr);

// ---- Frontier API -------------------------------------------------------
//
// The BFS over the admissible-prefix space, exposed level by level. The
// production expansion path is the chunked FrontierEngine in
// core/frontier.hpp -- analyze_depth() above drives one engine serially,
// the parallel sweep engine (runtime/sweep/parallel_solver.*) drives one
// engine per root with sub-root chunk sharding. A key structural fact
// makes root sharding exact: the dedup key contains all views, every view
// contains its own input, so classes of *different* input vectors never
// merge -- the prefix space is the disjoint union of one subtree per
// input vector ("root"), and each subtree can be expanded independently
// with a private interner. The calls below remain as the single-scan
// REFERENCE expansion: a direct transcription of the serial BFS step that
// the frontier engine must reproduce state for state (enforced by
// tests/frontier_engine_test.cpp).

/// One expanded BFS level: the deduplicated child classes plus the tree
/// links back into the parent level.
struct FrontierLevel {
  std::vector<PrefixState> states;
  /// (parent index, letter) of the first discovery, per state.
  std::vector<std::pair<int, int>> first_parent;
  /// children[i] = deduplicated child indices of parent i; filled only
  /// when expand_frontier is called with keep_links.
  std::vector<std::vector<int>> children;
  /// True iff the level exceeded max_states (states is then incomplete).
  bool overflow = false;
};

/// Level-0 classes: one per input vector with dense index in
/// [first_root, last_root) of all_input_vectors(n, options.num_values).
std::vector<PrefixState> initial_frontier(const MessageAdversary& adversary,
                                          const AnalysisOptions& options,
                                          ViewInterner& interner,
                                          int first_root, int last_root);

/// Expands `current` by one letter with per-level deduplication.
FrontierLevel expand_frontier(const MessageAdversary& adversary,
                              ViewInterner& interner,
                              const std::vector<PrefixState>& current,
                              std::size_t max_states, bool keep_links);

/// Runs body(0), ..., body(count - 1), possibly concurrently; returns
/// once all calls finished. Lets core algorithms run on a caller's
/// thread pool without depending on the runtime layer.
using ParallelFor = std::function<void(
    std::size_t count, const std::function<void(std::size_t)>& body)>;

/// Builds leaf_component, components, and the separation/broadcastability
/// flags from analysis.levels.back(); requires num_processes, num_values,
/// and the leaves to be in place. Components are numbered by their first
/// leaf, so every output depends only on the leaf partition -- never on
/// `parallel_for` (null = serial) or the order unions happen in.
void compute_components(const AnalysisOptions& options,
                        DepthAnalysis& analysis,
                        const ParallelFor& parallel_for = {});

/// Reconstructs a concrete run prefix (inputs + graphs) that belongs to the
/// given leaf class, by walking the BFS tree backwards. Requires
/// keep_levels. Returns nullopt only if the leaf index is invalid.
std::optional<RunPrefix> reconstruct_prefix(const MessageAdversary& adversary,
                                            const DepthAnalysis& analysis,
                                            int leaf_index);

}  // namespace topocon
