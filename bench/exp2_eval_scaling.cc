// E2 — Core XPath evaluation is linear-time in |T| (Gottlob–Koch–Pichler,
// cited as the baseline complexity in the paper); the naive relational
// semantics is cubic.
//
// Shape to observe: ns/node roughly flat for the set-based evaluator as n
// grows; the naive evaluator's per-node cost grows superlinearly until it
// is unusable.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "bench_util.h"
#include "xpath/eval.h"
#include "xpath/eval_naive.h"
#include "xpath/parser.h"

namespace xptc {
namespace {

// The queries deliberately contain path compositions, so the naive
// evaluator pays full relation-composition cost (its Θ(n³) term).
const char* kQueries[] = {
    "<desc[a]/foll[b]>",
    "<child[a]/desc[b]/anc[c]>",
    "not <anc/desc[a]> and <dos[b]>",
};

void ScalingReport() {
  std::printf("\nPer-node evaluation cost (3 Core XPath queries, uniform "
              "random trees):\n");
  bench::PrintRow({"n", "set ns/node", "naive ns/node", "naive/set"});
  Alphabet alphabet;
  std::vector<NodePtr> queries;
  for (const char* text : kQueries) {
    queries.push_back(ParseNode(text, &alphabet).ValueOrDie());
  }
  std::vector<int> sizes = {64, 256, 1024, 4096, 16384};
  if (bench::SmokeMode()) sizes = {64, 256};
  for (int n : sizes) {
    const Tree tree = bench::BenchTree(&alphabet, n,
                                       TreeShape::kUniformRecursive, 5);
    const double set_seconds = bench::MedianSeconds([&] {
      for (const auto& query : queries) EvalNodeSet(tree, *query);
    });
    double naive_seconds = -1;
    if (n <= 1024) {
      naive_seconds = bench::MedianSeconds([&] {
        for (const auto& query : queries) EvalNodeNaive(tree, *query);
      });
    }
    const double set_ns = set_seconds / 3 / n * 1e9;
    const double naive_ns = naive_seconds < 0 ? -1 : naive_seconds / 3 / n * 1e9;
    bench::PrintRow({std::to_string(n), bench::Fmt(set_ns, 1),
                     naive_ns < 0 ? "(skipped)" : bench::Fmt(naive_ns, 1),
                     naive_ns < 0 ? "-" : bench::Fmt(naive_ns / set_ns, 1)});
  }
  std::printf("Expected shape: flat set-evaluator column (linear combined "
              "complexity); the naive per-node cost and the naive/set ratio "
              "grow with n (superlinear total), until naive is unusable.\n");
}

// Naive-reference-vs-optimized-engine speedups on W-heavy workloads. The
// naive evaluator (explicit relations, real subtree extraction for `W`)
// and the optimized engine run in the same process on the same tree;
// results are checked bit-for-bit and appended to BENCH_eval.json. The
// tree stays small enough for the cubic reference.
void SpeedupReport() {
  const bool smoke = bench::SmokeMode();
  const int n = smoke ? 128 : 512;
  std::printf("\nNaive reference vs optimized engine, W-heavy queries "
              "(uniform random tree, n = %d):\n", n);
  bench::PrintRow({"case", "naive ms", "opt ms", "speedup", "match"});
  Alphabet alphabet;
  const Tree tree =
      bench::BenchTree(&alphabet, n, TreeShape::kUniformRecursive, 7);
  const std::pair<const char*, const char*> w_cases[] = {
      {"w_desc", "W(<desc[b]>)"},
      {"w_nested", "W(<desc[b and W(<child[a]>)]>)"},
  };
  std::vector<bench::SpeedupCase> cases;
  for (const auto& [name, text] : w_cases) {
    NodePtr query = ParseNode(text, &alphabet).ValueOrDie();
    bench::SpeedupCase result;
    result.name = name;
    result.query = text;
    result.n = n;
    Bitset opt_bits(0), naive_bits(0);
    result.opt_seconds =
        bench::MedianSeconds([&] { opt_bits = EvalNodeSet(tree, *query); });
    // The naive engine is orders of magnitude slower; one rep suffices.
    result.naive_seconds = bench::MedianSeconds(
        [&] { naive_bits = EvalNodeNaive(tree, *query); }, 1);
    result.match = opt_bits == naive_bits;
    cases.push_back(result);
    bench::PrintRow({result.name, bench::Fmt(result.naive_seconds * 1e3, 2),
                     bench::Fmt(result.opt_seconds * 1e3, 3),
                     bench::Fmt(result.naive_seconds / result.opt_seconds, 1),
                     result.match ? "yes" : "MISMATCH"});
    if (!result.match) {
      std::fprintf(stderr, "FATAL: engines disagree on %s\n", text);
      std::exit(1);
    }
  }
  bench::UpdateBenchJson(bench::BenchJsonPath(), "exp2_eval_scaling",
                         bench::SpeedupCasesJson(cases));
  std::printf("(recorded in %s)\n", bench::BenchJsonPath().c_str());
}

void BM_SetEval(benchmark::State& state) {
  Alphabet alphabet;
  NodePtr query = ParseNode(kQueries[0], &alphabet).ValueOrDie();
  const Tree tree = bench::BenchTree(&alphabet, static_cast<int>(state.range(0)),
                                     TreeShape::kUniformRecursive, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalNodeSet(tree, *query));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SetEval)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_NaiveEval(benchmark::State& state) {
  Alphabet alphabet;
  NodePtr query = ParseNode(kQueries[0], &alphabet).ValueOrDie();
  const Tree tree = bench::BenchTree(&alphabet, static_cast<int>(state.range(0)),
                                     TreeShape::kUniformRecursive, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalNodeNaive(tree, *query));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NaiveEval)->RangeMultiplier(4)->Range(64, 1024)->Complexity();

void BM_SetEvalByShape(benchmark::State& state) {
  Alphabet alphabet;
  NodePtr query = ParseNode(kQueries[1], &alphabet).ValueOrDie();
  const Tree tree =
      bench::BenchTree(&alphabet, 4096,
                       static_cast<TreeShape>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalNodeSet(tree, *query));
  }
}
BENCHMARK(BM_SetEvalByShape)
    ->Arg(static_cast<int>(TreeShape::kUniformRecursive))
    ->Arg(static_cast<int>(TreeShape::kChain))
    ->Arg(static_cast<int>(TreeShape::kStar))
    ->Arg(static_cast<int>(TreeShape::kFullBinary));

}  // namespace
}  // namespace xptc

int main(int argc, char** argv) {
  xptc::bench::PrintHeader(
      "E2: evaluation complexity of Core XPath",
      "Core XPath evaluates in O(|Q| * |T|) combined complexity [T2]; the "
      "naive relational semantics is Theta(|T|^3)",
      "fixed query set, trees n = 64..16384, per-node cost for the "
      "set-based evaluator vs. the naive reference evaluator");
  xptc::ScalingReport();
  xptc::SpeedupReport();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
