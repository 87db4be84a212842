// Golden tests for the EXPLAIN facility (src/obs/explain.cc, surfaced by
// tools/xptc_explain). The full-text golden catches accidental drift in the
// trace format, the program listing, or the registry-delta rendering; the
// consistency assertions are the real product guarantee — every number the
// trace reports must equal the registry's counter delta bit for bit.

#include <gtest/gtest.h>

#include <string>

#include "obs/explain.h"
#include "obs/trace.h"
#include "test_util.h"

namespace xptc {
namespace obs {
namespace {

ExplainOptions GoldenOptions() {
  ExplainOptions options;
  options.query = "<(child)*[a]>";
  options.gen_nodes = 64;
  options.gen_shape = "uniform";
  options.gen_seed = 1;
  options.gen_labels = 4;
  return options;
}

constexpr char kGolden[] =
    R"(EXPLAIN <(child)*[a]>
document: generated shape=uniform n=64 seed=1 labels=4
dialect: plan=CoreXPath source=RegularXPath
plan: <dos[a]>

program: 4 instrs, 3 regs, result r0, main [0,4), dag_hits=0, downward=yes (bit_ops=5)
  0: r0 = true   [execs 1]
  1: r1 = label a   [execs 1]
  2: r2 = and r0 r1   [execs 1]
  3: r0 = axis aos r2   [execs 1]

dispatch: register_machine
star rounds: used 0 of budget 42
result: 28/64 nodes
cross-check: interpreter bit-for-bit match

trace:
query
  plan_cache.parse_compiled instrs=4 regs=3 dag_hits=0 downward=1
    - plan_cache: text miss, parsed
    - plan_cache: program miss, lowered
  exec.eval axis.aos.sparse_path=1 axis.aos.touches=28 star_rounds_used=0 star_round_budget=42 instrs_executed=4 result_count=28
    - dispatch: register_machine
  interpreter.select axis.aos.sparse_path=1 axis.aos.touches=28 result_count=28

registry delta (counters): {"axis.aos.sparse_path": 2, "exec.dispatch.register_machine": 1, "exec.evals": 1, "exec.instrs_executed": 4, "plan_cache.misses": 1, "plan_cache.program_misses": 1, "tree_cache.label_builds": 1}
consistent: true
)";

TEST(ExplainTest, GoldenTextOutput) {
  auto explained = ExplainQuery(GoldenOptions());
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  EXPECT_TRUE(explained->match);
  EXPECT_TRUE(explained->consistent);
  EXPECT_EQ(explained->rendered, kGolden);
}

TEST(ExplainTest, OutputIsDeterministicAcrossRuns) {
  // Same options twice: a fresh PlanCache/TreeCache per call and a
  // timing-free rendering must give byte-identical output even though the
  // process-wide registry keeps counting between calls.
  auto first = ExplainQuery(GoldenOptions());
  auto second = ExplainQuery(GoldenOptions());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->rendered, second->rendered);
  EXPECT_EQ(first->trace_json, second->trace_json);
  EXPECT_EQ(first->registry_json, second->registry_json);
}

TEST(ExplainTest, JsonModeCarriesTheSameMachineViews) {
  ExplainOptions options = GoldenOptions();
  options.json = true;
  auto explained = ExplainQuery(options);
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  EXPECT_TRUE(explained->consistent);
  const std::string& r = explained->rendered;
  // The JSON rendering embeds exactly the machine views the struct exposes.
  EXPECT_NE(r.find("\"dispatch\": \"register_machine\""), std::string::npos);
  EXPECT_NE(r.find("\"match\": true"), std::string::npos);
  EXPECT_NE(r.find("\"consistent\": true"), std::string::npos);
  EXPECT_NE(r.find(explained->registry_json), std::string::npos);
  EXPECT_NE(r.find(explained->trace_json), std::string::npos);
}

TEST(ExplainTest, JsonOutputEscapesControlCharactersInTheQuery) {
  // Newline and tab are whitespace to the parser, so the query runs; the
  // JSON dump must still be one valid object, with both characters
  // escaped inside "query" rather than written raw.
  ExplainOptions options;
  options.query = "a\nand\tb";
  options.gen_nodes = 16;
  options.json = true;
  auto explained = ExplainQuery(options);
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  const std::string& r = explained->rendered;
  EXPECT_TRUE(testing_util::JsonChecker::Valid(r)) << r;
  EXPECT_NE(r.find("\"query\": \"a\\nand\\tb\""), std::string::npos) << r;
  EXPECT_TRUE(testing_util::JsonChecker::Valid(explained->trace_json));
}

TEST(ExplainTest, FusedAndNotRendersWithExecCounts) {
  // `a and not b` lowers to label, label, andnot — the `not` fuses into
  // the conjunction and is never emitted on its own.
  ExplainOptions options = GoldenOptions();
  options.query = "a and not b";
  auto explained = ExplainQuery(options);
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  EXPECT_TRUE(explained->match);
  EXPECT_TRUE(explained->consistent) << explained->rendered;
  const std::string& r = explained->rendered;
  EXPECT_NE(r.find("program: 3 instrs"), std::string::npos) << r;
  EXPECT_NE(r.find("2: r2 = andnot r0 r1   [execs 1]"), std::string::npos)
      << r;
  EXPECT_EQ(r.find("= not r"), std::string::npos) << r;
}

TEST(ExplainTest, StarHeavyQueryKeepsTraceAndRegistryConsistent) {
  // A query that forces actual star fixpoint rounds plus the W-operator
  // cache: the consistency check now covers eval.star_rounds and the
  // within L1/L2/computed provenance counters, not just the zero case.
  ExplainOptions options;
  options.query = "W(<child[a]>) and <(child[b])*[c]>";
  options.gen_nodes = 256;
  options.gen_shape = "caterpillar";
  options.gen_seed = 3;
  auto explained = ExplainQuery(options);
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  EXPECT_TRUE(explained->match);
  EXPECT_TRUE(explained->consistent) << explained->rendered;
}

TEST(ExplainTest, SweepFallbackReportsItsTransferEntries) {
  // A filtered star whose seed label is rare on a chain blows the
  // star-round budget; the sweep that re-runs it reports how many
  // transfer entries it built, in the dispatch line, on the exec.eval
  // span and in the JSON rendering.
  ExplainOptions options;
  options.query = "<(child[not a])*[l60]>";
  options.gen_nodes = 4096;
  options.gen_shape = "chain";
  options.gen_seed = 1;
  options.gen_labels = 64;
  auto explained = ExplainQuery(options);
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  EXPECT_TRUE(explained->match);
  EXPECT_TRUE(explained->consistent) << explained->rendered;
  const std::string& r = explained->rendered;
  EXPECT_NE(r.find("dispatch: downward_fallback (transfer_entries=6)\n"),
            std::string::npos)
      << r;
  EXPECT_NE(r.find(" transfer_entries=6 "), std::string::npos) << r;

  options.json = true;
  auto json = ExplainQuery(options);
  ASSERT_TRUE(json.ok()) << json.status().message();
  EXPECT_TRUE(testing_util::JsonChecker::Valid(json->rendered))
      << json->rendered;
  EXPECT_NE(json->rendered.find("\"transfer_entries\": 6,"),
            std::string::npos)
      << json->rendered;
}

TEST(ExplainTest, TruncatedTraceIsReportedInconsistent) {
  // One eval.w_compute span per distinct W body that leaves its window
  // (`anc` below the root does): past the span cap the counts inside
  // dropped spans are lost, and EXPLAIN says so instead of reconciling an
  // incomplete trace.
  ExplainOptions options = GoldenOptions();
  options.query.clear();
  for (int i = 0; i < kMaxTraceSpans; ++i) {
    if (i > 0) options.query += " or ";
    options.query += "W(<desc[<anc[w" + std::to_string(i) + "]>]>)";
  }
  auto explained = ExplainQuery(options);
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  EXPECT_TRUE(explained->match);
  EXPECT_FALSE(explained->consistent);
  EXPECT_NE(explained->rendered.find("spans dropped past the 64-span cap"),
            std::string::npos)
      << explained->rendered;
}

TEST(ExplainTest, DroppedWindowsAreNoted) {
  // `W(a or <prec[b]>)` compiles as `a`; the body that leaves its window
  // (`anc` below the root) keeps its pass and gets no note.
  ExplainOptions options = GoldenOptions();
  options.query = "W(a or <prec[b]>) and not W(<desc[<anc[c]>]>)";
  auto explained = ExplainQuery(options);
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  EXPECT_TRUE(explained->match);
  EXPECT_TRUE(explained->consistent) << explained->rendered;
  const std::string& r = explained->rendered;
  EXPECT_NE(r.find("note: W dropped (confined): a or <prec[b]>\n"),
            std::string::npos)
      << r;
  EXPECT_EQ(r.find("note: W dropped (confined): <desc"), std::string::npos)
      << r;
  EXPECT_NE(r.find("windows_dropped=1"), std::string::npos) << r;

  options.json = true;
  auto json = ExplainQuery(options);
  ASSERT_TRUE(json.ok()) << json.status().message();
  EXPECT_TRUE(testing_util::JsonChecker::Valid(json->rendered))
      << json->rendered;
  EXPECT_NE(json->rendered.find("\"windows_dropped\": [\"a or <prec[b]>\"]"),
            std::string::npos)
      << json->rendered;
}

TEST(ExplainTest, RejectsUnknownShapeAndBadQuery) {
  ExplainOptions options = GoldenOptions();
  options.gen_shape = "moebius";
  auto bad_shape = ExplainQuery(options);
  EXPECT_FALSE(bad_shape.ok());
  EXPECT_NE(bad_shape.status().message().find("valid:"), std::string::npos);

  options = GoldenOptions();
  options.query = "<(child[";
  EXPECT_FALSE(ExplainQuery(options).ok());
}

}  // namespace
}  // namespace obs
}  // namespace xptc
