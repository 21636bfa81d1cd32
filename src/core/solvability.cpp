#include "core/solvability.hpp"

#include <functional>
#include <memory>
#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace topocon {

const char* to_string(SolvabilityVerdict verdict) {
  switch (verdict) {
    case SolvabilityVerdict::kSolvable: return "SOLVABLE";
    case SolvabilityVerdict::kNotSeparated: return "NOT-SEPARATED";
    case SolvabilityVerdict::kResourceLimit: return "RESOURCE-LIMIT";
  }
  return "?";
}

std::optional<SolvabilityVerdict> parse_solvability_verdict(
    std::string_view name) {
  if (name == "SOLVABLE") return SolvabilityVerdict::kSolvable;
  if (name == "NOT-SEPARATED") return SolvabilityVerdict::kNotSeparated;
  if (name == "RESOURCE-LIMIT") return SolvabilityVerdict::kResourceLimit;
  return std::nullopt;
}

namespace {

/// The per-depth analysis the deepening driver runs: receives the depth's
/// AnalysisOptions and the interner shared across all depths of a check.
using AnalyzeAtDepth = std::function<DepthAnalysis(
    const AnalysisOptions&, const std::shared_ptr<ViewInterner>&)>;

/// The iterative-deepening driver behind check_solvability and its
/// oracle: keeping one driver means the two can only disagree if their
/// analyses do.
SolvabilityResult deepen(const MessageAdversary& adversary,
                         const SolvabilityOptions& options,
                         const AnalyzeAtDepth& analyze,
                         const DepthProgressFn& on_depth) {
  SolvabilityResult result;
  result.closure_only = !adversary.is_compact();
  auto interner = std::make_shared<ViewInterner>();
  telemetry::TraceWriter* trace =
      options.metrics != nullptr ? options.metrics->trace() : nullptr;

  for (int depth = 1; depth <= options.max_depth; ++depth) {
    AnalysisOptions analysis_options;
    analysis_options.depth = depth;
    analysis_options.num_values = options.num_values;
    analysis_options.max_states = options.max_states;
    analysis_options.keep_levels = false;  // cheap pass first
    analysis_options.metrics = options.metrics;
    const std::uint64_t span_start =
        trace != nullptr ? trace->now_us() : 0;
    DepthAnalysis cheap = analyze(analysis_options, interner);
    if (trace != nullptr) {
      trace->complete(
          "depth " + std::to_string(depth), "depth", span_start,
          trace->now_us() - span_start,
          {telemetry::TraceArg::num("depth", static_cast<std::uint64_t>(depth)),
           telemetry::TraceArg::num("leaf_classes", cheap.leaves().size())});
    }
    if (cheap.truncated) {
      result.verdict = SolvabilityVerdict::kResourceLimit;
      result.analysis = std::move(cheap);
      return result;
    }

    result.per_depth.push_back(depth_stats(cheap));
    if (on_depth) on_depth(result.per_depth.back());

    const bool certified =
        cheap.valence_separated &&
        (!options.require_broadcastable || cheap.valent_broadcastable) &&
        (!options.strong_validity || cheap.strong_assignable);
    if (certified) {
      result.verdict = SolvabilityVerdict::kSolvable;
      result.certified_depth = depth;
      if (options.build_table) {
        analysis_options.keep_levels = true;
        const std::uint64_t certify_start =
            trace != nullptr ? trace->now_us() : 0;
        DepthAnalysis full = analyze(analysis_options, interner);
        if (trace != nullptr) {
          trace->complete("depth " + std::to_string(depth) + " (certify)",
                          "depth", certify_start,
                          trace->now_us() - certify_start,
                          {telemetry::TraceArg::num(
                              "depth", static_cast<std::uint64_t>(depth))});
        }
        result.table = DecisionTable::build(full, options.strong_validity);
        result.analysis = std::move(full);
      } else {
        result.analysis = std::move(cheap);
      }
      return result;
    }
    if (depth == options.max_depth) {
      result.analysis = std::move(cheap);
    }
  }
  result.verdict = SolvabilityVerdict::kNotSeparated;
  return result;
}

}  // namespace

SolvabilityResult check_solvability(const MessageAdversary& adversary,
                                    const SolvabilityOptions& options,
                                    const ExecutionOptions& execution,
                                    const DepthProgressFn& on_depth) {
  return deepen(
      adversary, options,
      [&adversary, &execution](const AnalysisOptions& analysis_options,
                               const std::shared_ptr<ViewInterner>& interner) {
        return analyze_depth(adversary, analysis_options, interner,
                             execution);
      },
      on_depth);
}

SolvabilityResult check_solvability_oracle(const MessageAdversary& adversary,
                                           const SolvabilityOptions& options) {
  return deepen(
      adversary, options,
      [&adversary](const AnalysisOptions& analysis_options,
                   const std::shared_ptr<ViewInterner>& interner) {
        return analyze_depth_oracle(adversary, analysis_options, interner);
      },
      {});
}

DepthStats depth_stats(const DepthAnalysis& analysis) {
  DepthStats stats;
  stats.depth = analysis.depth;
  stats.num_leaf_classes = analysis.leaves().size();
  stats.num_components = static_cast<int>(analysis.components.size());
  stats.merged_components = analysis.merged_components;
  stats.separated = analysis.valence_separated;
  stats.valent_broadcastable = analysis.valent_broadcastable;
  stats.strong_assignable = analysis.strong_assignable;
  stats.interner_views = analysis.interner->size();
  return stats;
}

std::vector<DepthStats> analyze_series(const MessageAdversary& adversary,
                                       const AnalysisOptions& options,
                                       const ExecutionOptions& execution,
                                       const DepthProgressFn& on_depth) {
  std::vector<DepthStats> series;
  auto interner = std::make_shared<ViewInterner>();
  for (int depth = 1; depth <= options.depth; ++depth) {
    AnalysisOptions per_depth = options;
    per_depth.depth = depth;
    per_depth.keep_levels = false;
    const DepthAnalysis analysis =
        analyze_depth(adversary, per_depth, interner, execution);
    if (analysis.truncated) break;
    series.push_back(depth_stats(analysis));
    if (on_depth) on_depth(series.back());
  }
  return series;
}

}  // namespace topocon
