// E3 — combined complexity is linear in |Q| as well: growing step-chain
// queries on a fixed tree should evaluate in time proportional to their
// size.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "xpath/eval.h"
#include "xpath/eval_naive.h"

namespace xptc {
namespace {

// child[a]/desc[b]/child[a]/... — a chain of `steps` filtered steps.
NodePtr ChainQuery(int steps, const std::vector<Symbol>& labels) {
  PathPtr path = MakeAxis(Axis::kChild);
  for (int i = 0; i < steps; ++i) {
    const Axis axis = i % 2 == 0 ? Axis::kChild : Axis::kDescendant;
    path = MakeSeq(path, MakeFilter(MakeAxis(axis),
                                    MakeLabel(labels[i % labels.size()])));
  }
  return MakeSome(std::move(path));
}

void QuerySizeReport() {
  std::printf("\nEvaluation time vs. query size (fixed tree n = 4096):\n");
  bench::PrintRow({"steps", "|query|", "time us", "us/step"});
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  const Tree tree =
      bench::BenchTree(&alphabet, 4096, TreeShape::kUniformRecursive, 11);
  std::vector<int> step_counts = {4, 8, 16, 32, 64, 128, 256};
  if (bench::SmokeMode()) step_counts = {4, 8, 16};
  for (int steps : step_counts) {
    NodePtr query = ChainQuery(steps, labels);
    const double seconds =
        bench::MedianSeconds([&] { EvalNodeSet(tree, *query); }, 5);
    bench::PrintRow({std::to_string(steps), std::to_string(NodeSize(*query)),
                     bench::Fmt(seconds * 1e6, 1),
                     bench::Fmt(seconds * 1e6 / steps, 2)});
  }
  std::printf("Expected shape: us/step roughly constant (linear in |Q|).\n");
}

// Deep-star speedups: `(child)*` from the root of a depth-d chain. The
// naive reference materializes the child relation and closes it with
// Warshall (Θ(d³) bit-work); the optimized engine runs a one-pass closure
// kernel. Both run in this process and must agree bit-for-bit.
void DeepStarReport() {
  const bool smoke = bench::SmokeMode();
  std::printf("\nNaive reference vs optimized engine, (child)* on depth-d "
              "chain trees:\n");
  bench::PrintRow({"depth", "naive ms", "opt ms", "speedup", "match"});
  Alphabet alphabet;
  PathPtr star = MakeStar(MakeAxis(Axis::kChild));
  std::vector<int> depths = smoke ? std::vector<int>{100, 200}
                                  : std::vector<int>{1000, 4000};
  std::vector<bench::SpeedupCase> cases;
  for (int depth : depths) {
    const Tree tree =
        bench::BenchTree(&alphabet, depth, TreeShape::kChain, 13);
    Bitset from_root(tree.size());
    from_root.Set(tree.root());
    Bitset opt_bits(0), naive_bits(0);
    bench::SpeedupCase result;
    result.name = "child_star_depth_" + std::to_string(depth);
    result.query = "(child)* forward image from root";
    result.n = depth;
    result.opt_seconds = bench::MedianSecondsN(
        [&] {
          Evaluator evaluator(tree);
          opt_bits = evaluator.EvalFwd(*star, from_root);
        },
        smoke ? 3 : 20, 5);
    result.naive_seconds = bench::MedianSeconds(
        [&] {
          naive_bits = EvalPathNaive(tree, *star).Row(tree.root());
        },
        1);
    result.match = opt_bits == naive_bits;
    cases.push_back(result);
    bench::PrintRow({std::to_string(depth),
                     bench::Fmt(result.naive_seconds * 1e3, 3),
                     bench::Fmt(result.opt_seconds * 1e3, 4),
                     bench::Fmt(result.naive_seconds / result.opt_seconds, 1),
                     result.match ? "yes" : "MISMATCH"});
    if (!result.match) {
      std::fprintf(stderr, "FATAL: engines disagree at depth %d\n", depth);
      std::exit(1);
    }
  }
  bench::UpdateBenchJson(bench::BenchJsonPath(), "exp3_query_scaling",
                         bench::SpeedupCasesJson(cases));
  std::printf("(recorded in %s)\n", bench::BenchJsonPath().c_str());
}

void BM_ChainQuery(benchmark::State& state) {
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  const Tree tree =
      bench::BenchTree(&alphabet, 4096, TreeShape::kUniformRecursive, 11);
  NodePtr query = ChainQuery(static_cast<int>(state.range(0)), labels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalNodeSet(tree, *query));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ChainQuery)->RangeMultiplier(2)->Range(4, 256)->Complexity();

}  // namespace
}  // namespace xptc

int main(int argc, char** argv) {
  xptc::bench::PrintHeader(
      "E3: combined complexity, query side",
      "Core XPath evaluation is linear in |Q| on a fixed tree [T2]",
      "step-chain queries of 4..256 filtered steps on a 4096-node tree");
  xptc::QuerySizeReport();
  xptc::DeepStarReport();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
