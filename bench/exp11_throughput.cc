// E11 — Throughput layer: work-stealing BatchEngine, PlanCache,
// and per-tree cross-query memoisation (TreeCache).
//
// Unlike E2–E9 this experiment measures no claim from the paper; it
// measures the serving layer built on top of the paper's evaluator. Three
// numbers matter:
//   1. batch queries/sec vs. worker count (cold caches vs. warm caches);
//   2. warm PlanCache parse throughput vs. cold Query::Parse;
//   3. a hard bit-for-bit match between BatchEngine results and a
//      sequential Query::Select loop (the bench exits non-zero on any
//      mismatch — it doubles as an integration check).
//
// Scaling caveat recorded in the JSON: speedup-vs-workers is only
// observable when the host actually has cores; "hw_threads" states what
// this run had. Warm-vs-cold cache effects are visible on any host.
//
// JSON section schema ("exp11_throughput" in BENCH_throughput.json):
//   {"smoke": bool, "hw_threads": int, "trees": int, "queries": int,
//    "nodes_per_tree": int,
//    "parse": {"cold_us": f, "warm_us": f, "speedup": f},
//    "plan_cache": {"hits": int, "misses": int, "evictions": int,
//                   "program_hits": int, "program_misses": int,
//                   "lowering_ms": f},
//    "workers": [{"workers": int, "cold_qps": f, "warm_qps": f,
//                 "warm_speedup_vs_1": f}, ...],
//    "match": bool}

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "workload/batch.h"
#include "workload/plan_cache.h"
#include "xpath/engine.h"

namespace xptc {
namespace {

// A serving-style workload: duplicate texts (plan-cache hits), shared W
// bodies across distinct queries (structural TreeCache hits), and a spread
// of cheap label tests next to W-heavy queries (uneven task costs, which
// is what work stealing is for). The surviving W bodies use non-downward
// axes (foll/right) so `W φ ≡ φ` cannot rewrite them away; a few downward
// Ws are kept to exercise the dialect-shrinking rewrite too.
const char* kWorkload[] = {
    "<child[a]>",
    "<desc[b]>",
    "<desc[a]/foll[b]>",
    "<child[a]/desc[b]/anc[c]>",
    "not <anc/desc[a]> and <dos[b]>",
    "W(<desc[a]/foll[b]>)",
    "W(<desc[a]/foll[b]>)",  // duplicate text: the plan-cache hit path
    "W(<desc[b and <right[a]>]>)",
    "W(<foll[a]>) and <child[b]>",
    "W(<desc[a]/foll[b]>) or W(<desc[b and <right[a]>]>)",  // shared bodies
    "<desc[a]>",
    "<desc[a]> and <desc[b]>",
    "a and <child[b]>",
    "b or c",
    "<(child)*[a]>",
    "<(child/child)*[b]>",
    "<desc[W(<desc[c]/foll[a]>)]>",
    "W(<desc[c]/foll[a]>)",  // body shared with the previous query
    "<anc[a]>",
    "<foll[b]> or <child[c]>",
    "W(<desc[b]/foll[a]>) and W(<desc[c]/foll[a]>)",
    "<dos[a and <right[b]>]>",
    "W(<desc[a]>)",  // downward body: simplifies to Core XPath
    "<child[a]/desc[b]/anc[c]>",  // duplicate text
};
const size_t kNumWorkloadTexts = sizeof(kWorkload) / sizeof(kWorkload[0]);

struct Corpus {
  Alphabet alphabet;
  std::vector<std::shared_ptr<const Tree>> trees;
  std::vector<Query> queries;
  int nodes_per_tree = 0;
};

// Fills in place: Alphabet is neither copyable nor movable.
void BuildCorpus(Corpus* corpus) {
  const bool smoke = bench::SmokeMode();
  const int num_trees = smoke ? 4 : 12;
  corpus->nodes_per_tree = smoke ? 400 : 4000;
  const TreeShape shapes[] = {TreeShape::kUniformRecursive, TreeShape::kChain,
                              TreeShape::kFullBinary, TreeShape::kStar};
  for (int i = 0; i < num_trees; ++i) {
    corpus->trees.push_back(std::make_shared<Tree>(
        bench::BenchTree(&corpus->alphabet, corpus->nodes_per_tree,
                         shapes[i % 4], /*seed=*/100 + i)));
  }
  for (const char* text : kWorkload) {
    corpus->queries.push_back(
        Query::Parse(text, &corpus->alphabet).ValueOrDie());
  }
}

// (2) Parse throughput: cold Query::Parse vs. warm PlanCache::Parse.
void ParseReport(Corpus& corpus, std::ostringstream* json) {
  const int inner = bench::SmokeMode() ? 20 : 200;
  const double cold_seconds = bench::MedianSecondsN(
      [&] {
        for (const char* text : kWorkload) {
          Query::Parse(text, &corpus.alphabet).ValueOrDie();
        }
      },
      inner);
  PlanCache cache;
  for (const char* text : kWorkload) {
    cache.Parse(text, &corpus.alphabet).ValueOrDie();  // prime
  }
  const double warm_seconds = bench::MedianSecondsN(
      [&] {
        for (const char* text : kWorkload) {
          cache.Parse(text, &corpus.alphabet).ValueOrDie();
        }
      },
      inner);
  // Compiled-plan path: the first pass pays one lowering per distinct
  // canonical plan root (program misses); from then on every ParseCompiled
  // is a text hit + program hit, both counted in Stats.
  for (const char* text : kWorkload) {
    cache.ParseCompiled(text, &corpus.alphabet).ValueOrDie();
  }
  const double compiled_seconds = bench::MedianSecondsN(
      [&] {
        for (const char* text : kWorkload) {
          cache.ParseCompiled(text, &corpus.alphabet).ValueOrDie();
        }
      },
      inner);
  const size_t num_texts = sizeof(kWorkload) / sizeof(kWorkload[0]);
  const double cold_us = cold_seconds / num_texts * 1e6;
  const double warm_us = warm_seconds / num_texts * 1e6;
  const double compiled_us = compiled_seconds / num_texts * 1e6;
  const double speedup = warm_us > 0 ? cold_us / warm_us : 0;
  std::printf("\nParse throughput (%zu texts, %d duplicates):\n", num_texts,
              2);
  bench::PrintRow({"cold us/parse", "warm us/parse", "warm compiled us",
                   "speedup"});
  bench::PrintRow({bench::Fmt(cold_us, 2), bench::Fmt(warm_us, 3),
                   bench::Fmt(compiled_us, 3), bench::Fmt(speedup, 1)});
  const PlanCache::Stats stats = cache.stats();
  std::printf("PlanCache: %zu hits, %zu misses, %zu evictions; "
              "%zu program hits, %zu program misses (lowering %.3f ms)\n",
              stats.hits, stats.misses, stats.evictions, stats.program_hits,
              stats.program_misses, stats.lowering_seconds * 1e3);
  *json << "\"parse\": {\"cold_us\": " << bench::Fmt(cold_us, 3)
        << ", \"warm_us\": " << bench::Fmt(warm_us, 3)
        << ", \"speedup\": " << bench::Fmt(speedup, 1) << "}, "
        << "\"plan_cache\": {\"hits\": " << stats.hits
        << ", \"misses\": " << stats.misses
        << ", \"evictions\": " << stats.evictions
        << ", \"program_hits\": " << stats.program_hits
        << ", \"program_misses\": " << stats.program_misses
        << ", \"lowering_ms\": " << bench::Fmt(stats.lowering_seconds * 1e3, 3)
        << "}";
}

// First (tree, query) index pair where the matrices differ, if any. A
// shape mismatch reports {0, 0}.
std::optional<std::pair<size_t, size_t>> FirstMismatch(
    const std::vector<std::vector<Bitset>>& got,
    const std::vector<std::vector<Bitset>>& want) {
  if (got.size() != want.size()) return std::make_pair(size_t{0}, size_t{0});
  for (size_t t = 0; t < got.size(); ++t) {
    if (got[t].size() != want[t].size()) return std::make_pair(t, size_t{0});
    for (size_t q = 0; q < got[t].size(); ++q) {
      if (!(got[t][q] == want[t][q])) return std::make_pair(t, q);
    }
  }
  return std::nullopt;
}

// (1) + (3): batch throughput sweep with a bit-for-bit check against the
// sequential loop.
void ThroughputReport(Corpus& corpus, std::ostringstream* json) {
  const bool smoke = bench::SmokeMode();
  // Reference: plain sequential Query::Select, no shared caches.
  std::vector<std::vector<Bitset>> reference(corpus.trees.size());
  const double seq_seconds = bench::MedianSeconds([&] {
    for (size_t t = 0; t < corpus.trees.size(); ++t) {
      reference[t].clear();
      for (const Query& query : corpus.queries) {
        reference[t].push_back(query.Select(*corpus.trees[t]));
      }
    }
  });
  const double pairs = static_cast<double>(corpus.trees.size()) *
                       static_cast<double>(corpus.queries.size());
  std::printf("\nBatch throughput (%zu trees x %zu queries = %.0f tasks; "
              "sequential baseline %.1f qps):\n",
              corpus.trees.size(), corpus.queries.size(), pairs,
              pairs / seq_seconds);
  bench::PrintRow({"workers", "cold qps", "warm qps", "warm vs 1w"});

  std::vector<int> worker_counts = smoke ? std::vector<int>{1, 2}
                                         : std::vector<int>{1, 2, 4, 8};
  bool all_match = true;
  std::string mismatch_case;
  double warm_qps_1 = 0;
  *json << "\"workers\": [";
  for (size_t wi = 0; wi < worker_counts.size(); ++wi) {
    const int workers = worker_counts[wi];
    // Cold: fresh engine per sample — includes TreeCache construction and
    // the first (memo-building) evaluation of every W body.
    const double cold_seconds = bench::MedianSeconds([&] {
      BatchOptions options;
      options.num_workers = workers;
      BatchEngine engine(options);
      for (const auto& tree : corpus.trees) engine.AddTree(tree);
      auto results = engine.Run(corpus.queries);
      benchmark::DoNotOptimize(results);
    });
    // Warm: same engine re-run — TreeCaches and per-worker ExecEngines
    // are populated, steady-state serving throughput.
    BatchOptions options;
    options.num_workers = workers;
    BatchEngine engine(options);
    for (const auto& tree : corpus.trees) engine.AddTree(tree);
    auto warm_results = engine.Run(corpus.queries);  // warm-up run
    if (const auto bad = FirstMismatch(warm_results, reference)) {
      all_match = false;
      // Dump the first offending (tree, query) pair in the fuzzer's .case
      // format so it enters the standard replay/shrink workflow.
      if (mismatch_case.empty() && bad->second < kNumWorkloadTexts) {
        mismatch_case = bench::DumpMismatchCase(
            *corpus.trees[bad->first], corpus.alphabet,
            kWorkload[bad->second],
            "exp11: BatchEngine (workers=" + std::to_string(workers) +
                ") differs from sequential Query::Select");
      }
    }
    const double warm_seconds = bench::MedianSeconds([&] {
      auto results = engine.Run(corpus.queries);
      benchmark::DoNotOptimize(results);
    });
    const double cold_qps = pairs / cold_seconds;
    const double warm_qps = pairs / warm_seconds;
    if (workers == 1) warm_qps_1 = warm_qps;
    const double vs_one = warm_qps_1 > 0 ? warm_qps / warm_qps_1 : 0;
    bench::PrintRow({std::to_string(workers), bench::Fmt(cold_qps, 0),
                     bench::Fmt(warm_qps, 0), bench::Fmt(vs_one, 2)});
    if (wi > 0) *json << ", ";
    *json << "{\"workers\": " << workers
          << ", \"cold_qps\": " << bench::Fmt(cold_qps, 1)
          << ", \"warm_qps\": " << bench::Fmt(warm_qps, 1)
          << ", \"warm_speedup_vs_1\": " << bench::Fmt(vs_one, 2) << "}";
  }
  *json << "]";
  if (!all_match) {
    std::fprintf(stderr,
                 "FATAL: BatchEngine results differ from sequential "
                 "Query::Select%s%s\n",
                 mismatch_case.empty() ? "" : "; repro written to ",
                 mismatch_case.c_str());
    std::exit(1);
  }
  std::printf("Match vs sequential Select: yes (bit-for-bit)\n");
  *json << ", \"match\": true";
}

// Registered benchmark so `--benchmark_filter` users can sweep too.
void BM_BatchRunWarm(benchmark::State& state) {
  static Corpus* corpus = [] {
    auto* c = new Corpus;
    BuildCorpus(c);
    return c;
  }();
  BatchOptions options;
  options.num_workers = static_cast<int>(state.range(0));
  BatchEngine engine(options);
  for (const auto& tree : corpus->trees) engine.AddTree(tree);
  benchmark::DoNotOptimize(engine.Run(corpus->queries));  // warm caches
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(corpus->queries));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus->trees.size()) *
                          static_cast<int64_t>(corpus->queries.size()));
}
BENCHMARK(BM_BatchRunWarm)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace xptc

int main(int argc, char** argv) {
  xptc::bench::PrintHeader(
      "E11: throughput layer (BatchEngine + PlanCache + TreeCache)",
      "engineering experiment, no paper claim: batch qps scales with "
      "workers; warm plan-cache parses are >=10x cold parses; batch "
      "results are bit-for-bit equal to sequential Select",
      "corpus of mixed-shape trees x 24-query Regular-XPath(W) workload; "
      "worker sweep with cold vs warm caches; cold Query::Parse vs warm "
      "PlanCache::Parse");
  xptc::Corpus corpus;
  xptc::BuildCorpus(&corpus);
  std::ostringstream json;
  json << "{\"smoke\": " << (xptc::bench::SmokeMode() ? "true" : "false")
       << ", \"hw_threads\": " << xptc::ThreadPool::DefaultWorkers()
       << ", \"trees\": " << corpus.trees.size()
       << ", \"queries\": " << corpus.queries.size()
       << ", \"nodes_per_tree\": " << corpus.nodes_per_tree << ", ";
  xptc::ParseReport(corpus, &json);
  json << ", ";
  xptc::ThroughputReport(corpus, &json);
  json << "}";
  xptc::bench::UpdateBenchJson(xptc::bench::ThroughputJsonPath(),
                               "exp11_throughput", json.str());
  // The full registry export rides along: the section fields above are a
  // named slice of these counters (PlanCache/TreeCache/ThreadPool/Batch
  // stats() all read the same registry-backed counters).
  xptc::bench::UpdateBenchJson(xptc::bench::ThroughputJsonPath(),
                               "obs_registry",
                               xptc::obs::Registry::Default().Json());
  std::printf("(recorded in %s)\n",
              xptc::bench::ThroughputJsonPath().c_str());
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
