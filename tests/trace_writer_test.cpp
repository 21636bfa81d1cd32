// The Chrome-trace span writer: the emitted document is well-formed JSON
// (parsed back with the repo's own strict reader), events carry the
// Trace Event Format fields chrome://tracing requires, string escaping
// is safe, threads get stable small tids, a traced Session run
// produces properly nested job > depth > level > chunk spans, and each
// level's budget decision is one span that holds its retry pass.
#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/omission.hpp"
#include "api/api.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/json.hpp"
#include "runtime/sweep/parallel_solver.hpp"
#include "runtime/sweep/thread_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace topocon {
namespace {

using telemetry::TraceArg;
using telemetry::TraceWriter;

/// Emits spans through `body`, destroys the writer (writing the closing
/// bracket), and parses the document back with the strict reader — every
/// numeric field the writer emits is integral, so the deterministic
/// integer-only mode must accept it.
sweep::JsonValue trace_document(
    const std::function<void(TraceWriter&)>& body) {
  std::ostringstream out;
  {
    TraceWriter writer(out);
    body(writer);
  }
  return sweep::JsonReader::parse(out.str());
}

TEST(TraceWriter, EmitsWellFormedCompleteEvents) {
  const sweep::JsonValue doc = trace_document([](TraceWriter& writer) {
    writer.complete("outer", "test", 0, 100,
                    {TraceArg::num("states", 42),
                     TraceArg::str("label", "{<->}")});
    writer.complete("inner", "test", 10, 20);
  });
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.elements.size(), 2u);

  const sweep::JsonValue& outer = doc.elements[0];
  EXPECT_EQ(outer.at("name").as_string(), "outer");
  EXPECT_EQ(outer.at("cat").as_string(), "test");
  EXPECT_EQ(outer.at("ph").as_string(), "X");
  EXPECT_EQ(outer.at("ts").as_uint(), 0u);
  EXPECT_EQ(outer.at("dur").as_uint(), 100u);
  EXPECT_EQ(outer.at("pid").as_uint(), 1u);
  EXPECT_EQ(outer.at("args").at("states").as_uint(), 42u);
  EXPECT_EQ(outer.at("args").at("label").as_string(), "{<->}");

  // Both events come from this thread: same tid, assigned 1-based in
  // first-event order.
  EXPECT_EQ(outer.at("tid").as_uint(), doc.elements[1].at("tid").as_uint());
  EXPECT_EQ(outer.at("tid").as_uint(), 1u);
}

TEST(TraceWriter, EmitsCounterEvents) {
  const sweep::JsonValue doc = trace_document([](TraceWriter& writer) {
    writer.counter("frontier_states", 1234);
  });
  ASSERT_EQ(doc.elements.size(), 1u);
  const sweep::JsonValue& event = doc.elements[0];
  EXPECT_EQ(event.at("ph").as_string(), "C");
  EXPECT_EQ(event.at("name").as_string(), "frontier_states");
  EXPECT_EQ(event.at("args").at("value").as_uint(), 1234u);
}

TEST(TraceWriter, EscapesNamesAndStringArgs) {
  const sweep::JsonValue doc = trace_document([](TraceWriter& writer) {
    writer.complete("quote\" slash\\ tab\t", "c\nat", 0, 1,
                    {TraceArg::str("k", std::string_view("nul\0!", 5))});
  });
  const sweep::JsonValue& event = doc.elements[0];
  EXPECT_EQ(event.at("name").as_string(), "quote\" slash\\ tab\t");
  EXPECT_EQ(event.at("cat").as_string(), "c\nat");
  EXPECT_EQ(event.at("args").at("k").as_string(),
            std::string_view("nul\0!", 5));
}

TEST(TraceWriter, AssignsDistinctTidsPerThread) {
  const sweep::JsonValue doc = trace_document([](TraceWriter& writer) {
    writer.complete("main", "t", 0, 1);
    std::thread worker(
        [&writer] { writer.complete("worker", "t", 0, 1); });
    worker.join();
  });
  ASSERT_EQ(doc.elements.size(), 2u);
  // 1-based in first-event order: main logged first.
  EXPECT_EQ(doc.elements[0].at("tid").as_uint(), 1u);
  EXPECT_EQ(doc.elements[1].at("tid").as_uint(), 2u);
}

TEST(TraceWriter, NowIsMonotonic) {
  std::ostringstream out;
  TraceWriter writer(out);
  const std::uint64_t a = writer.now_us();
  const std::uint64_t b = writer.now_us();
  EXPECT_LE(a, b);
}

// ---- Span structure of a real traced run ----------------------------------

struct Span {
  std::string name;
  std::string category;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;

  std::uint64_t end() const { return ts + dur; }
  bool contains(const Span& other) const {
    return ts <= other.ts && other.end() <= end();
  }
};

/// True iff some span of `parents` contains `child` in time.
bool contained_in_any(const Span& child, const std::vector<Span>& parents) {
  for (const Span& parent : parents) {
    if (parent.contains(child)) return true;
  }
  return false;
}

// A single-job, single-thread traced Session run must produce one job
// span per query plus depth/level/chunk spans nested inside it.
TEST(TraceWriter, SessionRunEmitsNestedSpans) {
  std::ostringstream out;
  {
    TraceWriter writer(out);
    api::Session session({.num_threads = 1,
                          .record_global = false,
                          .trace = &writer});
    SolvabilityOptions solve;
    solve.max_depth = 5;
    session.run("traced", {api::solvability({"lossy_link", 2, 7}, solve)});
  }
  const sweep::JsonValue doc = sweep::JsonReader::parse(out.str());
  ASSERT_TRUE(doc.is_array());

  std::map<std::string, std::vector<Span>> by_category;
  bool saw_frontier_counter = false;
  for (const sweep::JsonValue& event : doc.elements) {
    if (event.at("ph").as_string() == "C") {
      saw_frontier_counter |=
          event.at("name").as_string() == "frontier_states";
      continue;
    }
    Span span;
    span.name = event.at("name").as_string();
    span.category = event.at("cat").as_string();
    span.ts = event.at("ts").as_uint();
    span.dur = event.at("dur").as_uint();
    by_category[span.category].push_back(span);
  }

  // Chunk expansions log under category "expand" with name "chunk".
  ASSERT_EQ(by_category["job"].size(), 1u);
  EXPECT_FALSE(by_category["depth"].empty());
  EXPECT_FALSE(by_category["level"].empty());
  EXPECT_FALSE(by_category["expand"].empty());
  EXPECT_TRUE(saw_frontier_counter);

  // Containment down the hierarchy (flooring preserves it exactly).
  for (const Span& depth : by_category["depth"]) {
    EXPECT_TRUE(by_category["job"][0].contains(depth)) << depth.name;
  }
  for (const Span& level : by_category["level"]) {
    EXPECT_TRUE(contained_in_any(level, by_category["depth"])) << level.name;
  }
  for (const Span& chunk : by_category["expand"]) {
    EXPECT_EQ(chunk.name, "chunk");
    EXPECT_TRUE(contained_in_any(chunk, by_category["level"])) << chunk.ts;
  }
  // Every committed level decided its budget inside its own span.
  ASSERT_EQ(by_category["budget"].size(), by_category["level"].size());
  for (const Span& budget : by_category["budget"]) {
    EXPECT_EQ(budget.name, "budget");
    EXPECT_TRUE(contained_in_any(budget, by_category["level"])) << budget.ts;
  }
}

/// The "budget"-category spans of a traced parallel check, with the
/// outcome argument of each "budget" span.
struct BudgetSpans {
  std::vector<Span> decisions;
  std::vector<std::string> outcomes;
  std::vector<Span> retries;
  std::vector<Span> depths;
};

BudgetSpans traced_budget_check(std::size_t chunk_states) {
  // omission(3,2): level 1 has 176 classes, level 2 has 3872, so a
  // 176-state budget first overflows at depth 2, level 2. At chunk 1 the
  // per-root bound (each root's largest one-parent chunk) cannot prove
  // that; with one chunk per root it always can.
  std::ostringstream out;
  {
    TraceWriter writer(out);
    telemetry::MetricsRegistry registry(&writer);
    SolvabilityOptions options;
    options.max_depth = 2;
    options.max_states = 176;
    options.build_table = false;
    options.metrics = &registry;
    sweep::ThreadPool pool(1);
    sweep::ShardingOptions sharding;
    sharding.chunk_states = chunk_states;
    const auto adversary = make_omission_adversary(3, 2);
    const SolvabilityResult result = sweep::parallel_check_solvability(
        *adversary, options, pool, {}, sharding);
    EXPECT_EQ(result.verdict, SolvabilityVerdict::kResourceLimit);
  }
  BudgetSpans spans;
  for (const sweep::JsonValue& event :
       sweep::JsonReader::parse(out.str()).elements) {
    if (event.at("ph").as_string() != "X") continue;
    const Span span{event.at("name").as_string(), event.at("cat").as_string(),
                    event.at("ts").as_uint(), event.at("dur").as_uint()};
    if (span.category == "depth") spans.depths.push_back(span);
    if (span.category != "budget") continue;
    if (span.name == "budget_retry") {
      spans.retries.push_back(span);
      continue;
    }
    const sweep::JsonValue& args = event.at("args");
    EXPECT_LE(args.at("lower_bound").as_uint(), args.at("counted").as_uint());
    spans.decisions.push_back(span);
    spans.outcomes.push_back(args.at("outcome").as_string());
  }
  return spans;
}

TEST(TraceWriter, BudgetSpansNestTheRetryInsideTheDecision) {
  // Depth 1 (one level) fits; depth 2 fits level 1, then decides level 2.
  const BudgetSpans retried = traced_budget_check(1);
  EXPECT_EQ(retried.outcomes,
            (std::vector<std::string>{"fits", "fits", "retry"}));
  ASSERT_EQ(retried.retries.size(), 1u);
  EXPECT_TRUE(retried.decisions.back().contains(retried.retries[0]));
  for (const Span& decision : retried.decisions) {
    EXPECT_TRUE(contained_in_any(decision, retried.depths)) << decision.ts;
  }

  const BudgetSpans proven = traced_budget_check(0);
  EXPECT_EQ(proven.outcomes,
            (std::vector<std::string>{"fits", "fits", "proven"}));
  EXPECT_TRUE(proven.retries.empty());
}

}  // namespace
}  // namespace topocon
