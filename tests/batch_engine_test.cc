#include "workload/batch.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/engine.h"
#include "exec/program.h"
#include "tree/generate.h"
#include "workload/tree_cache.h"
#include "xpath/engine.h"
#include "xpath/generator.h"
#include "test_util.h"

namespace xptc {
namespace {

using testing_util::T;

// A workload with duplicate W bodies and a mix of cheap and expensive
// queries — the shapes the batch layer exists for.
std::vector<Query> MixedWorkload(Alphabet* alphabet) {
  // The W bodies use non-downward axes (foll/right) so `W φ ≡ φ` cannot
  // rewrite them away — the plans really exercise the TreeCache W memo.
  const char* texts[] = {
      "<child[a]>",
      "<desc[b]>",
      "W(<desc[a]/foll[b]>)",
      "W(<desc[b and <right[a]>]>)",
      "W(<desc[a]/foll[b]>) or W(<desc[b and <right[a]>]>)",  // shared bodies
      "W(<desc[b]>)",  // downward body: simplifies to Core, still correct
      "not <anc/desc[a]> and <dos[b]>",
      "<(child)*[a]>",
      "b or c",
  };
  std::vector<Query> queries;
  for (const char* text : texts) {
    queries.push_back(Query::Parse(text, alphabet).ValueOrDie());
  }
  return queries;
}

std::vector<std::shared_ptr<const Tree>> SharedCorpus(Alphabet* alphabet,
                                                      int max_nodes,
                                                      uint64_t seed) {
  std::vector<std::shared_ptr<const Tree>> out;
  for (Tree& tree : testing_util::CorpusTrees(alphabet, 3, max_nodes, seed)) {
    out.push_back(std::make_shared<Tree>(std::move(tree)));
  }
  return out;
}

void ExpectAllEqual(const std::vector<std::vector<Bitset>>& got,
                    const std::vector<std::shared_ptr<const Tree>>& trees,
                    const std::vector<Query>& queries) {
  ASSERT_EQ(got.size(), trees.size());
  for (size_t t = 0; t < trees.size(); ++t) {
    ASSERT_EQ(got[t].size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(got[t][q], queries[q].Select(*trees[t]))
          << "tree " << t << " query " << q;
    }
  }
}

TEST(BatchEngineTest, MatchesSequentialSelectAcrossWorkerCounts) {
  Alphabet alphabet;
  const auto trees = SharedCorpus(&alphabet, 24, 11);
  const auto queries = MixedWorkload(&alphabet);
  for (int workers : {1, 3}) {
    BatchOptions options;
    options.num_workers = workers;
    BatchEngine engine(options);
    for (const auto& tree : trees) engine.AddTree(tree);
    ExpectAllEqual(engine.Run(queries), trees, queries);
  }
}

TEST(BatchEngineTest, RandomizedQueriesMatchSequential) {
  Alphabet alphabet;
  Rng rng(20260806);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  QueryGenOptions options;
  options.max_depth = 4;
  options.allow_within = true;
  std::vector<Query> queries;
  for (int i = 0; i < 24; ++i) {
    queries.push_back(Query::FromExpr(GenerateNode(options, labels, &rng)));
  }
  const auto trees = SharedCorpus(&alphabet, 20, 77);
  BatchOptions batch_options;
  batch_options.num_workers = 3;
  BatchEngine engine(batch_options);
  for (const auto& tree : trees) engine.AddTree(tree);
  ExpectAllEqual(engine.Run(queries), trees, queries);
}

TEST(BatchEngineTest, SecondRunIsWarmAndStillCorrect) {
  Alphabet alphabet;
  const auto trees = SharedCorpus(&alphabet, 16, 5);
  const auto queries = MixedWorkload(&alphabet);
  BatchOptions options;
  options.num_workers = 2;
  BatchEngine engine(options);
  for (const auto& tree : trees) engine.AddTree(tree);
  const auto first = engine.Run(queries);
  // The workload is W-heavy; the per-tree caches must have been fed.
  size_t within_total = 0;
  for (int t = 0; t < engine.num_trees(); ++t) {
    within_total += engine.tree_cache(t)->within_entries();
    EXPECT_GT(engine.tree_cache(t)->label_entries(), 0u) << "tree " << t;
  }
  EXPECT_GT(within_total, 0u);
  // Warm rerun: same bits, and no new W entries (every body memoised).
  const auto second = engine.Run(queries);
  ASSERT_EQ(first.size(), second.size());
  for (size_t t = 0; t < first.size(); ++t) {
    for (size_t q = 0; q < first[t].size(); ++q) {
      EXPECT_EQ(first[t][q], second[t][q]);
    }
  }
  size_t within_after = 0;
  for (int t = 0; t < engine.num_trees(); ++t) {
    within_after += engine.tree_cache(t)->within_entries();
  }
  EXPECT_EQ(within_total, within_after);
}

TEST(BatchEngineTest, SelectBatchFacade) {
  Alphabet alphabet;
  const auto trees = SharedCorpus(&alphabet, 12, 3);
  const auto queries = MixedWorkload(&alphabet);
  const auto results = Query::SelectBatch(trees, queries, /*num_workers=*/2);
  ExpectAllEqual(results, trees, queries);
}

TEST(BatchEngineTest, EmptyInputsProduceEmptyResults) {
  Alphabet alphabet;
  BatchEngine engine;
  EXPECT_TRUE(engine.Run({}).empty());
  auto tree = std::make_shared<Tree>(T("a(b,c)", &alphabet));
  engine.AddTree(tree);
  const auto results = engine.Run({});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].empty());
}

TEST(BatchEngineTest, ExternalPoolIsShared) {
  Alphabet alphabet;
  ThreadPool pool(2);
  const auto trees = SharedCorpus(&alphabet, 12, 21);
  const auto queries = MixedWorkload(&alphabet);
  BatchOptions options;
  options.pool = &pool;
  BatchEngine first(options);
  BatchEngine second(options);
  EXPECT_EQ(first.num_workers(), 2);
  for (const auto& tree : trees) {
    first.AddTree(tree);
    second.AddTree(tree);
  }
  ExpectAllEqual(first.Run(queries), trees, queries);
  ExpectAllEqual(second.Run(queries), trees, queries);
}

// The TSan target: one shared TreeCache used simultaneously by standalone
// ExecEngines on external threads and by a BatchEngine run. Any missing
// synchronisation in TreeCache shows up here.
TEST(BatchEngineStressTest, ConcurrentEnginesAndBatchRunOnSharedCaches) {
  Alphabet alphabet;
  auto tree = std::make_shared<Tree>(
      testing_util::T("a(b(d(a,b),e(c)),c(b(a),d))", &alphabet));
  const auto queries = MixedWorkload(&alphabet);
  std::vector<Bitset> expected;
  for (const Query& query : queries) expected.push_back(query.Select(*tree));

  BatchOptions options;
  options.num_workers = 2;
  BatchEngine engine(options);
  engine.AddTree(tree);
  const std::shared_ptr<TreeCache>& cache = engine.tree_cache(0);
  std::vector<std::shared_ptr<const exec::Program>> programs;
  for (const Query& query : queries) {
    programs.push_back(exec::Program::Compile(query.plan()));
  }

  std::vector<std::thread> threads;
  threads.reserve(3);
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      // Each external thread owns its engine but shares the TreeCache
      // with the batch engine's workers and the other threads.
      exec::ExecEngine own(*tree, cache.get());
      for (int round = 0; round < 20; ++round) {
        const size_t q = static_cast<size_t>((t + round) % queries.size());
        const Bitset got = own.Eval(*programs[q]);
        ASSERT_EQ(got, expected[q]) << "thread " << t << " round " << round;
      }
    });
  }
  for (int round = 0; round < 5; ++round) {
    const auto results = engine.Run(queries);
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(results[0][q], expected[q]) << "batch round " << round;
    }
  }
  for (auto& thread : threads) thread.join();
}

TEST(BatchEngineStressTest, ConcurrentRunsOnOneEngine) {
  Alphabet alphabet;
  const auto trees = SharedCorpus(&alphabet, 12, 31);
  const auto queries = MixedWorkload(&alphabet);
  BatchOptions options;
  options.num_workers = 2;
  BatchEngine engine(options);
  for (const auto& tree : trees) engine.AddTree(tree);
  engine.Run(queries);  // settle engine rows before racing Runs
  std::vector<std::thread> callers;
  callers.reserve(2);
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        ExpectAllEqual(engine.Run(queries), trees, queries);
      }
    });
  }
  for (auto& caller : callers) caller.join();
}

}  // namespace
}  // namespace xptc
