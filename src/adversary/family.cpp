#include "adversary/family.hpp"

#include <climits>
#include <stdexcept>

#include "adversary/compose.hpp"
#include "adversary/finite_loss.hpp"
#include "adversary/heard_of.hpp"
#include "adversary/lossy_link.hpp"
#include "adversary/mobile_failure.hpp"
#include "adversary/omission.hpp"
#include "adversary/vssc.hpp"
#include "adversary/windowed.hpp"

namespace topocon {

const std::vector<std::string>& known_families() {
  static const std::vector<std::string> families = {
      "lossy_link", "omission",    "heard_of", "heard_of_rounds",
      "mobile_failure", "windowed_lossy_link", "vssc", "finite_loss"};
  return families;
}

std::string family_point_label(const FamilyPoint& point) {
  if (is_composed_family(point.family)) {
    // The spec JSON exactly as carried by the family string: the label
    // alone replays the point (parse_compose_spec round-trips it).
    return std::string(composed_spec_of(point.family));
  }
  if (point.family == "lossy_link") {
    return lossy_link_subset_name(static_cast<unsigned>(point.param));
  }
  if (point.family == "omission") {
    return "n=" + std::to_string(point.n) +
           " f=" + std::to_string(point.param);
  }
  if (point.family == "heard_of") {
    return "n=" + std::to_string(point.n) +
           " k=" + std::to_string(point.param);
  }
  if (point.family == "heard_of_rounds") {
    return "n=" + std::to_string(point.n) +
           " p=" + std::to_string(point.param);
  }
  if (point.family == "mobile_failure") {
    return "n=" + std::to_string(point.n) +
           " r=" + std::to_string(point.param);
  }
  if (point.family == "windowed_lossy_link") {
    return "w=" + std::to_string(point.param);
  }
  if (point.family == "vssc") {
    return "n=" + std::to_string(point.n) +
           " stability=" + std::to_string(point.param);
  }
  if (point.family == "finite_loss") {
    return "n=" + std::to_string(point.n);
  }
  return point.family + "(n=" + std::to_string(point.n) +
         ", param=" + std::to_string(point.param) + ")";
}

namespace {

[[noreturn]] void fail_point(const std::string& family,
                             const std::string& what, int got) {
  throw std::invalid_argument(family + ": " + what + " (got " +
                              std::to_string(got) + ")");
}

void check_param_in_range(const std::string& family,
                          const FamilyParamRange& range, int param) {
  if (param < range.min || param > range.max) {
    fail_point(family,
               "param must be in [" + std::to_string(range.min) + ", " +
                   (range.max == INT_MAX ? "inf"
                                         : std::to_string(range.max)) +
                   "]",
               param);
  }
}

/// Grids beyond this are operator error, not a workload: the expansion
/// is rejected before any allocation so absurd --param-max values cannot
/// exhaust memory.
constexpr long long kMaxGridPoints = 100'000;

}  // namespace

FamilyParamRange family_param_range(const std::string& family, int n) {
  if (is_composed_family(family)) {
    // Parsing + structural validation of the embedded spec; the point's
    // n must equal the components' common process count.
    const ComposeSpec spec = parse_compose_spec(composed_spec_of(family));
    const int spec_n = validate_compose_spec(spec);
    if (n != spec_n) {
      throw std::invalid_argument("composed: n must be " +
                                  std::to_string(spec_n) + " (got " +
                                  std::to_string(n) + ")");
    }
    return {0, 0, "unused (must be 0)"};
  }
  if (family == "lossy_link") {
    if (n != 2) fail_point(family, "n must be 2", n);
    return {1, 7, "subset mask over {<-, ->, <->}"};
  }
  if (family == "omission") {
    // The alphabet's edge masks are 32-bit over n(n-1) positions
    // (graph/enumerate.hpp), representable only to n = 6.
    if (n < 2) fail_point(family, "n must be >= 2", n);
    if (n > 6) fail_point(family, "n must be <= 6", n);
    return {0, n * (n - 1), "per-round omission budget f"};
  }
  if (family == "heard_of") {
    // The alphabet filters all_graphs(n), tractable only to n = 4.
    if (n < 2) fail_point(family, "n must be >= 2", n);
    if (n > 4) fail_point(family, "n must be <= 4", n);
    return {1, n, "minimal per-receiver in-degree k"};
  }
  if (family == "heard_of_rounds") {
    // The alphabet enumerates all_graphs(n), tractable only to n = 4.
    if (n < 2 || n > 4) fail_point(family, "n must be in [2, 4]", n);
    return {1, INT_MAX, "uniform-round period p"};
  }
  if (family == "mobile_failure") {
    // The alphabet has 1 + n * (2^(n-1) - 1) graphs, tractable to n = 6;
    // the automaton encodes (sender, streak) as 1 + sender * r + len - 1,
    // so r is capped where the encoding would leave AdvState.
    if (n < 2 || n > 6) fail_point(family, "n must be in [2, 6]", n);
    return {1, (INT_MAX - 1) / n, "max consecutive faulty rounds r"};
  }
  if (family == "windowed_lossy_link") {
    if (n != 2) fail_point(family, "n must be 2", n);
    return {1, INT_MAX, "repetition window w"};
  }
  if (family == "vssc") {
    // Both alphabets come from all_graphs(n), tractable only to n = 4.
    if (n < 2) fail_point(family, "n must be >= 2", n);
    if (n > 4) fail_point(family, "n must be <= 4", n);
    return {1, INT_MAX, "stability window length"};
  }
  if (family == "finite_loss") {
    if (n < 2) fail_point(family, "n must be >= 2", n);
    if (n > 4) fail_point(family, "n must be <= 4", n);
    return {0, 0, "unused (must be 0)"};
  }
  throw std::invalid_argument("unknown adversary family: " + family);
}

void validate_family_point(const FamilyPoint& point) {
  if (is_composed_family(point.family)) {
    family_param_range(point.family, point.n);  // spec + n validation
    if (point.param != 0) {
      // Not the generic range message: it would prefix the whole spec
      // string instead of the "composed" family tag.
      throw std::invalid_argument("composed: param must be 0 (got " +
                                  std::to_string(point.param) + ")");
    }
    return;
  }
  check_param_in_range(point.family,
                       family_param_range(point.family, point.n),
                       point.param);
}

std::vector<FamilyPoint> family_grid(const std::string& family, int n,
                                     int param_min, int param_max) {
  // Validate family and n first so a typo'd family name is reported as
  // such, not as an interval problem; then the endpoints, before any
  // allocation -- the whole interval is then inside the valid range.
  const FamilyParamRange range = family_param_range(family, n);
  if (param_min > param_max) {
    throw std::invalid_argument(
        family + ": empty parameter interval [" + std::to_string(param_min) +
        ", " + std::to_string(param_max) + "]");
  }
  check_param_in_range(family, range, param_min);
  check_param_in_range(family, range, param_max);
  const long long count =
      static_cast<long long>(param_max) - param_min + 1;
  if (count > kMaxGridPoints) {
    throw std::invalid_argument(
        family + ": parameter interval [" + std::to_string(param_min) +
        ", " + std::to_string(param_max) + "] expands to " +
        std::to_string(count) + " points (limit " +
        std::to_string(kMaxGridPoints) + ")");
  }
  std::vector<FamilyPoint> points;
  points.reserve(static_cast<std::size_t>(count));
  // Widened loop variable: `int param <= param_max` would never terminate
  // (and overflow) when param_max == INT_MAX, a legal bound for the
  // window families.
  for (long long param = param_min; param <= param_max; ++param) {
    points.push_back({family, n, static_cast<int>(param)});
  }
  return points;
}

std::unique_ptr<MessageAdversary> make_family_adversary(
    const FamilyPoint& point) {
  validate_family_point(point);
  if (is_composed_family(point.family)) {
    return make_composed_adversary(
        parse_compose_spec(composed_spec_of(point.family)));
  }
  if (point.family == "lossy_link") {
    return make_lossy_link(static_cast<unsigned>(point.param));
  }
  if (point.family == "omission") {
    return make_omission_adversary(point.n, point.param);
  }
  if (point.family == "heard_of") {
    return make_heard_of_adversary(point.n, point.param);
  }
  if (point.family == "heard_of_rounds") {
    return make_heard_of_rounds_adversary(point.n, point.param);
  }
  if (point.family == "mobile_failure") {
    return make_mobile_failure_adversary(point.n, point.param);
  }
  if (point.family == "windowed_lossy_link") {
    return make_windowed_lossy_link(point.param);
  }
  if (point.family == "vssc") {
    return std::make_unique<VsscAdversary>(point.n, point.param);
  }
  if (point.family == "finite_loss") {
    return std::make_unique<FiniteLossAdversary>(point.n);
  }
  // validate_family_point accepted the name, so a missing branch here is
  // a dispatch/known_families() mismatch, not caller error.
  throw std::logic_error("make_family_adversary: unhandled family " +
                         point.family);
}

}  // namespace topocon
