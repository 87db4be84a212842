// E12 — compiled query execution (src/exec/): DAG bytecode plans and the
// one-pass downward engine vs the PR-1 tree-walking interpreter.
//
// Two claims are measured, both consequences of T2's complexity picture:
//
//  1. DAG collapse: the interpreter re-walks every *occurrence* of a
//     repeated subexpression (pointer-identity memo over a parse tree that
//     duplicates the subtree), while lowering hash-conses the plan so each
//     distinct subexpression is one instruction. On DAG-heavy queries the
//     compiled register machine should be >= 2x the interpreter.
//
//  2. One-pass linearity: for the downward fragment the whole program runs
//     in a single bottom-up sweep over the preorder arrays (the evaluation
//     analogue of DownwardCompiledQueryToDfta) — time per node should stay
//     flat as n grows to 200k (linear combined complexity, no fixpoint
//     iteration at all).
//
// A third section measures window-root confinement (DESIGN.md §7.4.1) on
// deep caterpillars: a `W` body that cannot see past its window compiles
// without the windowed pass, which costs Σ_v |T|v| (quadratic on a deep
// spine) in the interpreter and for the unconfined control.
//
// Results are appended to BENCH_compiled.json (schema below); any
// bit-for-bit mismatch between engines dumps a replayable .case file and
// aborts the bench with exit 1.
//
// BENCH_compiled.json section schema ("exp12_compiled"):
//   {"smoke": bool,
//    "dag": {"n": int, "cases": [{"name": str, "ast_nodes": int,
//            "instrs": int, "regs": int, "dag_hits": int, "interp_us": f,
//            "compiled_us": f, "speedup": f, "match": bool}, ...]},
//    "downward": {"cases": [{"query": str, "rows": [{"n": int,
//                 "interp_ms": f, "general_ms": f, "onepass_ms": f,
//                 "onepass_ns_per_node": f, "match": bool}, ...]}, ...]},
//    "adversarial": {"query": str, "rows": [{"n": int, "interp_ms": f,
//                    "general_ms": f, "onepass_ms": f, "hybrid_ms": f,
//                    "fell_back": bool, "match": bool}, ...]},
//    "confinement": {"rows": [{"query": str, "n": int,
//                    "within_bodies": int, "windows_dropped": int,
//                    "interp_ms": f, "compiled_ms": f, "speedup": f,
//                    "match": bool}, ...]},
//    "compiled_not_slower": bool}   // CI regression gate (see ci.yml)

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exec/engine.h"
#include "obs/metrics.h"
#include "exec/program.h"
#include "xpath/eval.h"
#include "xpath/parser.h"

namespace xptc {
namespace {

// ---------------------------------------------------------------------------
// Part 1: DAG-heavy queries — interpreter vs compiled register machine.
//
// Each case repeats a base subexpression B many times in a boolean
// combination. The parse tree duplicates B per occurrence, so the
// interpreter pays |occurrences| x cost(B); hash-consed lowering computes B
// once. EvalGeneral is forced on the compiled side so the register machine
// itself (not the downward sweep) is what gets measured.

struct DagCase {
  std::string name;
  std::string text;
};

// `(B and a) or (B and not b) or (B and c) or not B` — four pointer-
// distinct occurrences of B per wrap; `wraps` nests the construction.
std::string Duplicate(const std::string& base, int wraps) {
  std::string text = base;
  for (int i = 0; i < wraps; ++i) {
    text = "((" + text + " and a) or (" + text + " and not b) or (" + text +
           " and c) or not " + text + ")";
  }
  return text;
}

std::vector<DagCase> DagCases() {
  const std::string filter_base = "<child[a]/desc[b and <child[c]>]>";
  const std::string star_base = "<(child[a]/desc)*[b]>";
  const std::string mixed_base = "<desc[c]/anc[a]> and <child[b]/foll[c]>";
  return {
      {"dag_filter_x16", Duplicate(filter_base, 2)},
      {"dag_star_x4", Duplicate(star_base, 1)},
      {"dag_mixed_x4", Duplicate(mixed_base, 1)},
  };
}

struct DagResult {
  DagCase dag_case;
  exec::CompileStats stats;
  double interp_seconds = 0;
  double compiled_seconds = 0;
  bool match = false;
};

std::vector<DagResult> DagReport(int n, bool* all_match) {
  std::printf("\nDAG-heavy queries: interpreter vs compiled register "
              "machine (uniform random tree, n = %d):\n", n);
  bench::PrintRow({"case", "|ast|", "instrs", "interp us", "compiled us",
                   "speedup", "match"});
  Alphabet alphabet;
  const Tree tree =
      bench::BenchTree(&alphabet, n, TreeShape::kUniformRecursive, 7);
  // The interpreter (the reference engine) builds a fresh Evaluator per
  // query; the compiled side reuses one ExecEngine register file, and
  // programs are compiled once (the plan-cache steady state).
  exec::ExecEngine engine(tree);
  const int inner = bench::SmokeMode() ? 3 : 10;
  std::vector<DagResult> results;
  for (const DagCase& dag_case : DagCases()) {
    NodePtr query = ParseNode(dag_case.text, &alphabet).ValueOrDie();
    auto program = exec::Program::Compile(query);
    DagResult result;
    result.dag_case = dag_case;
    result.stats = program->stats();
    Bitset interp_bits(0), compiled_bits(0);
    result.interp_seconds = bench::MedianSecondsN(
        [&] {
          Evaluator evaluator(tree);
          interp_bits = evaluator.EvalNode(*query);
        },
        inner);
    result.compiled_seconds = bench::MedianSecondsN(
        [&] { compiled_bits = engine.EvalGeneral(*program); }, inner);
    result.match = interp_bits == compiled_bits;
    bench::PrintRow(
        {dag_case.name, std::to_string(result.stats.ast_nodes),
         std::to_string(result.stats.num_instrs),
         bench::Fmt(result.interp_seconds * 1e6, 1),
         bench::Fmt(result.compiled_seconds * 1e6, 1),
         bench::Fmt(result.interp_seconds / result.compiled_seconds, 1),
         result.match ? "yes" : "MISMATCH"});
    if (!result.match) {
      *all_match = false;
      const std::string path = bench::DumpMismatchCase(
          tree, alphabet, dag_case.text,
          "exp12 DAG case: interpreter vs compiled register machine");
      std::fprintf(stderr, "FATAL: engines disagree on %s (case: %s)\n",
                   dag_case.name.c_str(), path.c_str());
    }
    results.push_back(std::move(result));
  }
  std::printf("Expected shape: speedup >= 2 on every case — the interpreter "
              "re-evaluates each textual occurrence of the repeated "
              "subexpression, the compiled plan computes it once.\n");
  return results;
}

// ---------------------------------------------------------------------------
// Part 2: the one-pass downward engine — n vs time up to 200k nodes.

struct DownwardRow {
  int n = 0;
  double interp_seconds = 0;
  double general_seconds = 0;
  double onepass_seconds = 0;
  double hybrid_seconds = 0;  // Eval: the default compiled dispatch
  bool match = false;
};

struct DownwardCase {
  std::string name;
  std::string text;
  std::vector<DownwardRow> rows;
};

std::vector<DownwardCase> DownwardReport(bool* all_match) {
  std::vector<DownwardCase> cases = {
      {"down_boolean", "<child[a]/desc[b]> and not <dos[c]>", {}},
      {"down_star", "<(child[a])*[b]> or <desc[c and <child[a]>]>", {}},
  };
  std::vector<int> sizes = {12500, 25000, 50000, 100000, 200000};
  if (bench::SmokeMode()) sizes = {1000, 4000};
  Alphabet alphabet;
  for (DownwardCase& down_case : cases) {
    std::printf("\nOne-pass downward engine, query %s:\n",
                down_case.name.c_str());
    bench::PrintRow({"n", "interp ms", "general ms", "one-pass ms",
                     "hybrid ms", "1p ns/node", "match"});
    NodePtr query = ParseNode(down_case.text, &alphabet).ValueOrDie();
    auto program = exec::Program::Compile(query);
    if (program->downward() == nullptr) {
      std::fprintf(stderr, "FATAL: %s did not compile downward\n",
                   down_case.text.c_str());
      std::exit(1);
    }
    for (int n : sizes) {
      const Tree tree =
          bench::BenchTree(&alphabet, n, TreeShape::kUniformRecursive, 5);
      exec::ExecEngine engine(tree);
      DownwardRow row;
      row.n = n;
      Bitset interp_bits(0), general_bits(0), onepass_bits(0),
          hybrid_bits(0);
      row.interp_seconds = bench::MedianSeconds([&] {
        Evaluator evaluator(tree);
        interp_bits = evaluator.EvalNode(*query);
      });
      row.general_seconds = bench::MedianSeconds(
          [&] { general_bits = engine.EvalGeneral(*program); });
      row.onepass_seconds = bench::MedianSeconds(
          [&] { onepass_bits = engine.EvalDownward(*program); });
      row.hybrid_seconds = bench::MedianSeconds(
          [&] { hybrid_bits = engine.Eval(*program); });
      row.match = interp_bits == general_bits &&
                  interp_bits == onepass_bits && interp_bits == hybrid_bits;
      bench::PrintRow({std::to_string(n),
                       bench::Fmt(row.interp_seconds * 1e3, 3),
                       bench::Fmt(row.general_seconds * 1e3, 3),
                       bench::Fmt(row.onepass_seconds * 1e3, 3),
                       bench::Fmt(row.hybrid_seconds * 1e3, 3),
                       bench::Fmt(row.onepass_seconds / n * 1e9, 1),
                       row.match ? "yes" : "MISMATCH"});
      if (!row.match) {
        *all_match = false;
        const std::string path = bench::DumpMismatchCase(
            tree, alphabet, down_case.text,
            "exp12 downward case: interpreter vs compiled engines");
        std::fprintf(stderr, "FATAL: engines disagree on %s at n=%d (%s)\n",
                     down_case.name.c_str(), n, path.c_str());
      }
      down_case.rows.push_back(row);
    }
  }
  std::printf("\nExpected shape: the one-pass ns/node column stays flat as "
              "n grows 16x — T2's linear combined complexity realised as a "
              "single bottom-up sweep (one transfer-table probe per node, "
              "no fixpoint iteration).\n");
  return cases;
}

// ---------------------------------------------------------------------------
// Part 3: the adversarial regime — deep chains with a sparse star seed.
//
// `(child[not a])*[b]` on a chain of c's whose deepest node is labelled b
// forces the set-based fixpoint engines (interpreter and register machine
// alike) through ~depth rounds of full-bitset work: Θ(n²/64). The filter
// keeps the star from collapsing to one closure kernel (a bare
// `(child)*` lowers to a single kDescFill). The one-pass sweep is
// unconditionally linear, and `Eval`'s hybrid dispatch must detect the
// blown star-round budget and land there.

struct AdversarialRow {
  int n = 0;
  double interp_seconds = 0;
  double general_seconds = 0;
  double onepass_seconds = 0;
  double hybrid_seconds = 0;
  bool match = false;
  bool fell_back = false;  // hybrid ended in the one-pass sweep
};

std::vector<AdversarialRow> AdversarialReport(bool* all_match) {
  std::printf("\nAdversarial deep chains, sparse star seed "
              "(<(child[not a])*[b]>, a chain of c's whose deepest node is "
              "b):\n");
  bench::PrintRow({"n", "interp ms", "general ms", "one-pass ms",
                   "hybrid ms", "fell back", "match"});
  Alphabet alphabet;
  const Symbol b = alphabet.Intern("b");
  const Symbol c = alphabet.Intern("c");
  const std::string text = "<(child[not a])*[b]>";
  NodePtr query = ParseNode(text, &alphabet).ValueOrDie();
  auto program = exec::Program::Compile(query);
  std::vector<int> sizes = {4000, 16000, 64000};
  if (bench::SmokeMode()) sizes = {1000, 4000};
  std::vector<AdversarialRow> rows;
  for (int n : sizes) {
    TreeBuilder builder;
    for (int i = 0; i < n; ++i) builder.Begin(i == n - 1 ? b : c);
    for (int i = 0; i < n; ++i) builder.End();
    const Tree tree = std::move(builder).Finish().ValueOrDie();
    exec::ExecEngine engine(tree);
    AdversarialRow row;
    row.n = n;
    Bitset interp_bits(0), general_bits(0), onepass_bits(0), hybrid_bits(0);
    // The quadratic engines get one rep (minutes-scale otherwise).
    row.interp_seconds = bench::MedianSeconds(
        [&] {
          Evaluator evaluator(tree);
          interp_bits = evaluator.EvalNode(*query);
        },
        1);
    row.general_seconds = bench::MedianSeconds(
        [&] { general_bits = engine.EvalGeneral(*program); }, 1);
    row.onepass_seconds = bench::MedianSeconds(
        [&] { onepass_bits = engine.EvalDownward(*program); });
    row.hybrid_seconds = bench::MedianSeconds(
        [&] { hybrid_bits = engine.Eval(*program); });
    row.fell_back = engine.last_used_downward();
    row.match = interp_bits == general_bits &&
                interp_bits == onepass_bits && interp_bits == hybrid_bits;
    bench::PrintRow({std::to_string(n),
                     bench::Fmt(row.interp_seconds * 1e3, 2),
                     bench::Fmt(row.general_seconds * 1e3, 2),
                     bench::Fmt(row.onepass_seconds * 1e3, 3),
                     bench::Fmt(row.hybrid_seconds * 1e3, 3),
                     row.fell_back ? "yes" : "NO",
                     row.match ? "yes" : "MISMATCH"});
    if (!row.match) {
      *all_match = false;
      const std::string path = bench::DumpMismatchCase(
          tree, alphabet, text, "exp12 adversarial chain case");
      std::fprintf(stderr, "FATAL: engines disagree at n=%d (%s)\n", n,
                   path.c_str());
    }
    rows.push_back(row);
  }
  std::printf("Expected shape: interp/general columns grow ~quadratically, "
              "one-pass and hybrid stay linear; the hybrid must report "
              "falling back on every row.\n");
  return rows;
}

// ---------------------------------------------------------------------------
// Part 4: window-root confinement on deep trees.
//
// The interpreter runs every `W` body on each subtree window: O(Σ_v |T|v|)
// bitset work, quadratic on a caterpillar's spine. The compiled program
// drops the window of a confined body and runs φ' once over the tree; the
// control's `anc` step leaves its window, so both sides run the pass.

struct ConfineRow {
  std::string query;
  int n = 0;
  int within_bodies = 0;
  int windows_dropped = 0;
  double interp_seconds = 0;
  double compiled_seconds = 0;
  bool match = false;
};

std::vector<ConfineRow> ConfinementReport(bool* all_match) {
  std::printf("\nWindow-root confinement on caterpillar trees "
              "(interpreter = windowed pass, compiled = as compiled):\n");
  bench::PrintRow({"query", "n", "W bodies", "dropped", "interp ms",
                   "compiled ms", "speedup", "match"},
                  22);
  const char* texts[] = {
      "W(a or <prec[b]>)",       // confined: compiles as `a`
      "W(<child[<psib[b]>]>)",   // confined: siblings below the root
      "W(<desc[<anc[b]>]>)",     // control: `anc` leaves the window
  };
  std::vector<int> sizes = {4096, 16384, 65536};
  if (bench::SmokeMode()) sizes = {1000, 4000};
  Alphabet alphabet;
  std::vector<ConfineRow> rows;
  for (int n : sizes) {
    const Tree tree =
        bench::BenchTree(&alphabet, n, TreeShape::kCaterpillar, 12);
    for (const char* text : texts) {
      NodePtr query = ParseNode(text, &alphabet).ValueOrDie();
      auto program = exec::Program::Compile(query);
      ConfineRow row;
      row.query = text;
      row.n = n;
      row.within_bodies = static_cast<int>(program->within_bodies().size());
      row.windows_dropped = program->stats().windows_dropped;
      Bitset interp_bits(0), compiled_bits(0);
      // Windowed sides are quadratic here: one rep each.
      row.interp_seconds = bench::MedianSeconds(
          [&] {
            Evaluator evaluator(tree);
            interp_bits = evaluator.EvalNode(*query);
          },
          1);
      // A fresh engine per run: nothing memoised between reps.
      row.compiled_seconds = bench::MedianSeconds(
          [&] {
            exec::ExecEngine engine(tree);
            compiled_bits = engine.Eval(*program);
          },
          row.within_bodies > 0 ? 1 : 3);
      row.match = interp_bits == compiled_bits;
      bench::PrintRow(
          {text, std::to_string(n), std::to_string(row.within_bodies),
           std::to_string(row.windows_dropped),
           bench::Fmt(row.interp_seconds * 1e3, 3),
           bench::Fmt(row.compiled_seconds * 1e3, 3),
           bench::Fmt(row.interp_seconds / row.compiled_seconds, 1),
           row.match ? "yes" : "MISMATCH"},
          22);
      if (!row.match) {
        *all_match = false;
        const std::string path = bench::DumpMismatchCase(
            tree, alphabet, text, "exp12 confinement case");
        std::fprintf(stderr, "FATAL: engines disagree on %s at n=%d (%s)\n",
                     text, n, path.c_str());
      }
      rows.push_back(std::move(row));
    }
  }
  std::printf("Expected shape: the confined rows' compiled column grows "
              "linearly while the interpreter's grows with Σ_v |T|v|; the "
              "control row runs the windowed pass on both sides.\n");
  return rows;
}

// ---------------------------------------------------------------------------
// JSON section.

std::string SectionJson(const std::vector<DagResult>& dag, int dag_n,
                        const std::vector<DownwardCase>& downward,
                        const std::vector<AdversarialRow>& adversarial,
                        const std::vector<ConfineRow>& confinement,
                        bool compiled_not_slower) {
  std::ostringstream os;
  os << "{\"smoke\": " << (bench::SmokeMode() ? "true" : "false");
  os << ", \"dag\": {\"n\": " << dag_n << ", \"cases\": [";
  for (size_t i = 0; i < dag.size(); ++i) {
    const DagResult& r = dag[i];
    if (i > 0) os << ", ";
    os << "{\"name\": \"" << r.dag_case.name << "\""
       << ", \"ast_nodes\": " << r.stats.ast_nodes
       << ", \"instrs\": " << r.stats.num_instrs
       << ", \"regs\": " << r.stats.num_regs
       << ", \"dag_hits\": " << r.stats.dag_hits
       << ", \"interp_us\": " << bench::Fmt(r.interp_seconds * 1e6, 2)
       << ", \"compiled_us\": " << bench::Fmt(r.compiled_seconds * 1e6, 2)
       << ", \"speedup\": "
       << bench::Fmt(r.interp_seconds / r.compiled_seconds, 2)
       << ", \"match\": " << (r.match ? "true" : "false") << "}";
  }
  os << "]}, \"downward\": {\"cases\": [";
  for (size_t c = 0; c < downward.size(); ++c) {
    const DownwardCase& down_case = downward[c];
    if (c > 0) os << ", ";
    os << "{\"query\": \"" << down_case.name << "\", \"rows\": [";
    for (size_t i = 0; i < down_case.rows.size(); ++i) {
      const DownwardRow& row = down_case.rows[i];
      if (i > 0) os << ", ";
      os << "{\"n\": " << row.n
         << ", \"interp_ms\": " << bench::Fmt(row.interp_seconds * 1e3, 4)
         << ", \"general_ms\": " << bench::Fmt(row.general_seconds * 1e3, 4)
         << ", \"onepass_ms\": " << bench::Fmt(row.onepass_seconds * 1e3, 4)
         << ", \"hybrid_ms\": " << bench::Fmt(row.hybrid_seconds * 1e3, 4)
         << ", \"onepass_ns_per_node\": "
         << bench::Fmt(row.onepass_seconds / row.n * 1e9, 2)
         << ", \"match\": " << (row.match ? "true" : "false") << "}";
    }
    os << "]}";
  }
  os << "]}, \"adversarial\": {\"query\": "
     << "\"(child[not a])*[b] sparse chain\", \"rows\": [";
  for (size_t i = 0; i < adversarial.size(); ++i) {
    const AdversarialRow& row = adversarial[i];
    if (i > 0) os << ", ";
    os << "{\"n\": " << row.n
       << ", \"interp_ms\": " << bench::Fmt(row.interp_seconds * 1e3, 3)
       << ", \"general_ms\": " << bench::Fmt(row.general_seconds * 1e3, 3)
       << ", \"onepass_ms\": " << bench::Fmt(row.onepass_seconds * 1e3, 4)
       << ", \"hybrid_ms\": " << bench::Fmt(row.hybrid_seconds * 1e3, 4)
       << ", \"fell_back\": " << (row.fell_back ? "true" : "false")
       << ", \"match\": " << (row.match ? "true" : "false") << "}";
  }
  os << "]}, \"confinement\": {\"rows\": [";
  for (size_t i = 0; i < confinement.size(); ++i) {
    const ConfineRow& row = confinement[i];
    if (i > 0) os << ", ";
    os << "{\"query\": \"" << row.query << "\", \"n\": " << row.n
       << ", \"within_bodies\": " << row.within_bodies
       << ", \"windows_dropped\": " << row.windows_dropped
       << ", \"interp_ms\": " << bench::Fmt(row.interp_seconds * 1e3, 3)
       << ", \"compiled_ms\": " << bench::Fmt(row.compiled_seconds * 1e3, 4)
       << ", \"speedup\": "
       << bench::Fmt(row.interp_seconds / row.compiled_seconds, 1)
       << ", \"match\": " << (row.match ? "true" : "false") << "}";
  }
  os << "]}, \"compiled_not_slower\": "
     << (compiled_not_slower ? "true" : "false") << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Registered microbenchmarks (complexity fits on demand).

void BM_CompiledGeneral(benchmark::State& state) {
  Alphabet alphabet;
  NodePtr query =
      ParseNode(Duplicate("<child[a]/desc[b and <child[c]>]>", 2), &alphabet)
          .ValueOrDie();
  auto program = exec::Program::Compile(query);
  const Tree tree = bench::BenchTree(
      &alphabet, static_cast<int>(state.range(0)),
      TreeShape::kUniformRecursive, 5);
  exec::ExecEngine engine(tree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.EvalGeneral(*program));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompiledGeneral)->RangeMultiplier(4)->Range(64, 16384)
    ->Complexity();

void BM_DownwardSweep(benchmark::State& state) {
  Alphabet alphabet;
  NodePtr query =
      ParseNode("<(child[a])*[b]> or <desc[c and <child[a]>]>", &alphabet)
          .ValueOrDie();
  auto program = exec::Program::Compile(query);
  const Tree tree = bench::BenchTree(
      &alphabet, static_cast<int>(state.range(0)),
      TreeShape::kUniformRecursive, 5);
  exec::ExecEngine engine(tree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.EvalDownward(*program));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DownwardSweep)->RangeMultiplier(4)->Range(64, 16384)
    ->Complexity();

}  // namespace
}  // namespace xptc

int main(int argc, char** argv) {
  xptc::bench::PrintHeader(
      "E12: compiled query execution",
      "lowering to DAG bytecode makes evaluation cost track distinct "
      "subexpressions, and the downward fragment runs in one linear "
      "bottom-up sweep [T2]",
      "DAG-heavy queries interpreter-vs-compiled at fixed n; downward "
      "queries interpreter vs register machine vs one-pass sweep on "
      "uniform trees n = 12.5k..200k; confined vs windowed W bodies on "
      "caterpillars n = 4k..65k");
  const int dag_n = xptc::bench::SmokeMode() ? 2000 : 50000;
  bool all_match = true;
  const auto dag = xptc::DagReport(dag_n, &all_match);
  const auto downward = xptc::DownwardReport(&all_match);
  const auto adversarial = xptc::AdversarialReport(&all_match);
  const auto confinement = xptc::ConfinementReport(&all_match);
  // Regression gate (see ci.yml): total time of the *default* compiled
  // dispatch (register machine for DAG cases, Eval's hybrid for downward
  // cases) must not exceed the PR-1 interpreter on the same workload.
  double interp_total = 0, compiled_total = 0;
  for (const auto& r : dag) {
    interp_total += r.interp_seconds;
    compiled_total += r.compiled_seconds;
  }
  for (const auto& down_case : downward) {
    for (const auto& row : down_case.rows) {
      interp_total += row.interp_seconds;
      compiled_total += row.hybrid_seconds;
    }
  }
  for (const auto& row : adversarial) {
    interp_total += row.interp_seconds;
    compiled_total += row.hybrid_seconds;
  }
  const bool compiled_not_slower = compiled_total <= interp_total;
  xptc::bench::UpdateBenchJson(
      xptc::bench::CompiledJsonPath(), "exp12_compiled",
      xptc::SectionJson(dag, dag_n, downward, adversarial, confinement,
                        compiled_not_slower));
  // The full registry export rides along (dispatch counts, star rounds,
  // instruction totals for every run above) — the section's counter-valued
  // fields are a named slice of these.
  xptc::bench::UpdateBenchJson(xptc::bench::CompiledJsonPath(),
                               "obs_registry",
                               xptc::obs::Registry::Default().Json());
  std::printf("(recorded in %s)\n", xptc::bench::CompiledJsonPath().c_str());
  if (!all_match) return 1;
  if (!compiled_not_slower) {
    std::fprintf(stderr,
                 "FATAL: compiled engines slower than the interpreter in "
                 "aggregate (%.3f ms vs %.3f ms)\n",
                 compiled_total * 1e3, interp_total * 1e3);
    return 1;
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
