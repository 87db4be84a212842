#include "testing/stress.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/alphabet.h"
#include "common/bitset.h"
#include "common/check.h"
#include "common/rng.h"
#include "exec/engine.h"
#include "obs/metrics.h"
#include "tree/generate.h"
#include "workload/batch.h"
#include "workload/plan_cache.h"
#include "workload/tree_cache.h"
#include "xpath/ast.h"
#include "xpath/engine.h"
#include "xpath/generator.h"

namespace xptc {
namespace testing {

StressReport RunConcurrencyStress(const StressOptions& options) {
  XPTC_CHECK_GT(options.num_threads, 0);
  XPTC_CHECK_GT(options.num_trees, 0);
  XPTC_CHECK_GT(options.num_queries, 0);

  Alphabet alphabet;
  Rng rng(options.seed);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 4);

  // Shared workload: documents of varied shapes...
  std::vector<std::shared_ptr<const Tree>> trees;
  for (int t = 0; t < options.num_trees; ++t) {
    TreeGenOptions tree_options;
    tree_options.num_nodes = rng.NextInt(2, options.max_tree_nodes);
    tree_options.shape = static_cast<TreeShape>(rng.NextBelow(7));
    Rng tree_rng = rng.Fork();
    trees.push_back(std::make_shared<const Tree>(
        GenerateTree(tree_options, labels, &tree_rng)));
  }

  // ... and query texts biased toward `W` (the memo under contention).
  QueryGenOptions query_options;
  query_options.max_depth = 3;
  query_options.require_within = true;
  std::vector<std::string> texts;
  for (int q = 0; q < options.num_queries; ++q) {
    if (q % 4 == 0) query_options.require_within = !query_options.require_within;
    Rng query_rng = rng.Fork();
    texts.push_back(NodeToString(
        *GenerateNode(query_options, labels, &query_rng), alphabet));
  }

  // Sequential pre-pass: parse every text once (all symbols are interned
  // after this — Alphabet::Intern is not thread-safe, so no new label may
  // be minted once threads start) and compute the expected answers.
  std::vector<Query> queries;
  for (const std::string& text : texts) {
    queries.push_back(Query::Parse(text, &alphabet).ValueOrDie());
  }
  std::vector<std::vector<Bitset>> expected;
  for (const auto& tree : trees) {
    std::vector<Bitset> row;
    for (const Query& query : queries) row.push_back(query.Select(*tree));
    expected.push_back(std::move(row));
  }

  // The shared contended state.
  BatchEngine engine;
  for (const auto& tree : trees) engine.AddTree(tree);
  PlanCache plan_cache(static_cast<size_t>(options.plan_cache_capacity));

  std::atomic<int64_t> evaluations{0};
  // Shared target of the obs::Histogram merge-under-concurrency check:
  // client threads Merge their per-thread histograms into this one while
  // other threads are still merging and the driver is still Observing.
  obs::Histogram merged_hist;
  std::mutex report_mu;
  StressReport report;
  const auto record_mismatch = [&](const std::string& description) {
    std::lock_guard<std::mutex> lock(report_mu);
    ++report.mismatches;
    if (report.first_mismatch.empty()) report.first_mismatch = description;
  };

  const auto client = [&](int id, uint64_t client_seed) {
    Rng client_rng(client_seed);
    // Per-thread histogram (no contention while observing); merged into
    // the shared one when the thread finishes.
    obs::Histogram local_hist;
    // Per-thread compiled engines, lazily bound per tree, attached to the
    // batch engine's shared TreeCaches (an ExecEngine is single-thread; the
    // cache behind it is the contended part).
    std::vector<std::unique_ptr<exec::ExecEngine>> engines(trees.size());
    for (int it = 0; it < options.iterations_per_thread; ++it) {
      const int t = static_cast<int>(client_rng.NextBelow(trees.size()));
      const int q = static_cast<int>(client_rng.NextBelow(texts.size()));
      Bitset got;
      if (client_rng.NextBool(0.5)) {
        // Path A: shared PlanCache (LRU churn) + an ExecEngine on the
        // shared TreeCache.
        auto parsed = plan_cache.ParseCompiled(texts[static_cast<size_t>(q)],
                                               &alphabet);
        if (!parsed.ok()) {
          record_mismatch("thread " + std::to_string(id) +
                          ": plan cache parse failed: " +
                          parsed.status().ToString());
          continue;
        }
        auto& slot = engines[static_cast<size_t>(t)];
        if (slot == nullptr) {
          TreeCache* cache = engine.tree_cache(t).get();
          slot = std::make_unique<exec::ExecEngine>(cache->tree(), cache);
        }
        got = slot->Eval(*parsed.ValueOrDie().program);
      } else {
        // Path B: plain pre-parsed query, fresh local state.
        got = queries[static_cast<size_t>(q)].Select(
            *trees[static_cast<size_t>(t)]);
      }
      evaluations.fetch_add(1, std::memory_order_relaxed);
      local_hist.Observe(got.Count());
      if (!(got == expected[static_cast<size_t>(t)][static_cast<size_t>(q)])) {
        record_mismatch("thread " + std::to_string(id) + ": tree " +
                        std::to_string(t) + ", query '" +
                        texts[static_cast<size_t>(q)] + "' diverged");
      }
    }
    // Concurrent with other clients' merges and the driver's Observes.
    merged_hist.Merge(local_hist);
  };

  std::vector<std::thread> threads;
  Rng seed_rng = rng.Fork();
  for (int id = 0; id < options.num_threads; ++id) {
    threads.emplace_back(client, id, seed_rng.Next());
  }

  // Whole-matrix sweeps from the driver, concurrent with the clients (the
  // documented contract: Run vs Run vs external TreeCache users).
  for (int sweep = 0; sweep < options.batch_sweeps; ++sweep) {
    const std::vector<std::vector<Bitset>> got = engine.Run(queries);
    for (size_t t = 0; t < got.size(); ++t) {
      for (size_t q = 0; q < got[t].size(); ++q) {
        evaluations.fetch_add(1, std::memory_order_relaxed);
        merged_hist.Observe(got[t][q].Count());
        if (!(got[t][q] == expected[t][q])) {
          record_mismatch("batch sweep " + std::to_string(sweep) + ": tree " +
                          std::to_string(t) + ", query '" + texts[q] +
                          "' diverged");
        }
      }
    }
  }

  for (std::thread& thread : threads) thread.join();

  report.evaluations = evaluations.load();
  report.plan_cache_hits = static_cast<int64_t>(plan_cache.stats().hits);
  report.plan_cache_evictions =
      static_cast<int64_t>(plan_cache.stats().evictions);
  // Merge invariants, checked after all writers quiesced: no observation
  // was lost or duplicated, and the buckets account for every observation.
  report.histogram_count = merged_hist.count();
  int64_t bucket_sum = 0;
  for (int k = 0; k < obs::Histogram::kBuckets; ++k) {
    bucket_sum += merged_hist.bucket(k);
  }
  report.histogram_ok = report.histogram_count == report.evaluations &&
                        bucket_sum == report.histogram_count;
  return report;
}

}  // namespace testing
}  // namespace xptc
