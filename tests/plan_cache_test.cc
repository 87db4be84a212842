#include "workload/plan_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/alphabet.h"
#include "common/bitset.h"
#include "exec/engine.h"
#include "exec/program.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "workload/tree_cache.h"
#include "xpath/ast.h"
#include "xpath/fragment.h"
#include "xpath/parser.h"

namespace xptc {
namespace {

using testing_util::T;

TEST(PlanCacheTest, HitReturnsSamePlanAndCountsStats) {
  Alphabet alphabet;
  PlanCache cache;
  auto first = cache.Parse("<child[a]>", &alphabet).ValueOrDie();
  auto second = cache.Parse("<child[a]>", &alphabet).ValueOrDie();
  EXPECT_EQ(first.get(), second.get());  // the very same Query object
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, SurroundingWhitespaceIsNormalised) {
  Alphabet alphabet;
  PlanCache cache;
  auto bare = cache.Parse("<child[a]>", &alphabet).ValueOrDie();
  auto padded = cache.Parse("  <child[a]> \n", &alphabet).ValueOrDie();
  EXPECT_EQ(bare.get(), padded.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, CachedPlanMatchesDirectParse) {
  Alphabet alphabet;
  PlanCache cache;
  const std::string text = "W(<desc[b and W(<child[a]>)]>)";
  auto cached = cache.Parse(text, &alphabet).ValueOrDie();
  Query direct = Query::Parse(text, &alphabet).ValueOrDie();
  EXPECT_EQ(NodeToString(*cached->plan(), alphabet),
            NodeToString(*direct.plan(), alphabet));
  EXPECT_EQ(cached->dialect(), direct.dialect());
  EXPECT_EQ(cached->source_dialect(), direct.source_dialect());
}

// Evaluates `compiled` on `engine` and returns how many `W` sets the run
// computed (the bottom-up pass, as opposed to a memo hit).
int64_t WithinSetsComputed(exec::ExecEngine* engine,
                           const PlanCache::CompiledQuery& compiled,
                           Bitset* result) {
  obs::Counter& computed =
      obs::Registry::Default().counter("eval.within_computed");
  const int64_t before = computed.value();
  *result = engine->Eval(*compiled.program);
  return computed.value() - before;
}

TEST(PlanCacheTest, WithinBodySharedByTwoPlansIsComputedOncePerTree) {
  // Two texts with different plans that share the body `<desc[<anc[b]>]>`
  // under `W` (its `anc` step leaves the window, so the body keeps its
  // windowed pass). Each plan is interned privately when it is compiled, so the two
  // programs hold different copies of the body; the per-tree memo keys it
  // structurally, so the second text's run finds the first one's set.
  Alphabet alphabet;
  const Tree tree = T("r(a(b,c),b(a,c(b)),c)", &alphabet);
  const auto shared_tree = std::make_shared<const Tree>(tree);
  TreeCache tree_cache(shared_tree);
  exec::ExecEngine engine(*shared_tree, &tree_cache);
  PlanCache cache;
  auto first =
      cache.ParseCompiled("W(<desc[<anc[b]>]>) and a", &alphabet)
          .ValueOrDie();
  auto second =
      cache.ParseCompiled("c or W(<desc[<anc[b]>]>)", &alphabet)
          .ValueOrDie();
  ASSERT_NE(first.program, second.program);
  ASSERT_EQ(first.program->within_bodies().size(), 1u);
  ASSERT_EQ(second.program->within_bodies().size(), 1u);

  Bitset result;
  EXPECT_EQ(WithinSetsComputed(&engine, first, &result), 1);
  EXPECT_EQ(result, first.query->Select(*shared_tree));
  EXPECT_EQ(WithinSetsComputed(&engine, second, &result), 0);
  EXPECT_EQ(result, second.query->Select(*shared_tree));
  EXPECT_EQ(tree_cache.within_entries(), 1u);

  // A fresh engine on the same tree starts with no memo of its own and
  // still computes nothing.
  exec::ExecEngine other(*shared_tree, &tree_cache);
  EXPECT_EQ(WithinSetsComputed(&other, second, &result), 0);
}

TEST(PlanCacheTest, ChurnKeepsWithinSetsAndBoundsTheProgramIndex) {
  // Far more distinct texts than the cache holds, twice through two
  // threads: every plan is evicted and recompiled (interned afresh) on the
  // second pass, yet the per-tree memo answers every `W` body from the
  // first pass, holds one set per distinct body, and the program index
  // stays within twice the capacity throughout.
  constexpr size_t kCapacity = 8;
  constexpr int kTexts = 20 * static_cast<int>(kCapacity);
  constexpr int kBodies = 24;
  constexpr int kThreads = 2;
  Alphabet alphabet;
  const auto tree = std::make_shared<const Tree>(
      T("r(a(b,c(l1,l2)),b(a,c(b,l3)),c(l5,a(l7)))", &alphabet));
  std::vector<std::string> texts;
  std::vector<Bitset> expected;
  for (int i = 0; i < kTexts; ++i) {
    // Distinct texts, plans and programs; `kBodies` distinct W bodies,
    // each kept by its `desc/prec` step, which leaves the window.
    texts.push_back("W(<desc/prec[l" + std::to_string(i % kBodies) +
                    "] | parent/child[a]>) and not x" + std::to_string(i));
    expected.push_back(
        Query::Parse(texts.back(), &alphabet).ValueOrDie().Select(*tree));
  }
  TreeCache tree_cache(tree);
  PlanCache cache(kCapacity);
  obs::Counter& computed =
      obs::Registry::Default().counter("eval.within_computed");
  size_t max_slots = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const int64_t computed_before = computed.value();
    std::vector<size_t> thread_max(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        exec::ExecEngine engine(*tree, &tree_cache);
        for (int k = 0; k < kTexts; ++k) {
          // The threads walk the texts in opposite orders.
          const int i = t == 0 ? k : kTexts - 1 - k;
          auto compiled =
              cache.ParseCompiled(texts[static_cast<size_t>(i)], &alphabet)
                  .ValueOrDie();
          EXPECT_EQ(engine.Eval(*compiled.program),
                    expected[static_cast<size_t>(i)])
              << texts[static_cast<size_t>(i)];
          thread_max[static_cast<size_t>(t)] = std::max(
              thread_max[static_cast<size_t>(t)], cache.program_slots());
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (const size_t m : thread_max) max_slots = std::max(max_slots, m);
    if (pass == 1) {
      EXPECT_EQ(computed.value() - computed_before, 0)
          << "the second pass recomputed W sets";
    }
  }
  EXPECT_EQ(tree_cache.within_entries(), static_cast<size_t>(kBodies));
  EXPECT_LE(max_slots, 2 * kCapacity);
  EXPECT_GE(cache.stats().program_misses, static_cast<size_t>(2 * kTexts));
}

TEST(PlanCacheTest, IdenticalTextUnderDifferentAlphabetsIsDistinct) {
  Alphabet first, second;
  PlanCache cache;
  auto a = cache.Parse("<child[a]>", &first).ValueOrDie();
  auto b = cache.Parse("<child[a]>", &second).ValueOrDie();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsedAtCapacity) {
  Alphabet alphabet;
  PlanCache cache(/*capacity=*/2);
  auto a = cache.Parse("a", &alphabet).ValueOrDie();
  cache.Parse("b", &alphabet).ValueOrDie();
  cache.Parse("a", &alphabet).ValueOrDie();  // refresh a; b is now LRU
  cache.Parse("c", &alphabet).ValueOrDie();  // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  // a survived the eviction...
  auto a2 = cache.Parse("a", &alphabet).ValueOrDie();
  EXPECT_EQ(a.get(), a2.get());
  // ...b did not: re-parsing it is a miss (a fresh object).
  const size_t misses_before = cache.stats().misses;
  cache.Parse("b", &alphabet).ValueOrDie();
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(PlanCacheTest, EvictedPlanRemainsUsable) {
  // shared_ptr ownership: eviction must not invalidate handed-out plans.
  Alphabet alphabet;
  PlanCache cache(/*capacity=*/1);
  auto a = cache.Parse("<child[a]>", &alphabet).ValueOrDie();
  cache.Parse("<child[b]>", &alphabet).ValueOrDie();  // evicts a's entry
  EXPECT_EQ(a->dialect(), Dialect::kCoreXPath);  // still alive and valid
}

TEST(PlanCacheTest, ParseErrorsAreNotCached) {
  Alphabet alphabet;
  PlanCache cache;
  EXPECT_FALSE(cache.Parse("<<", &alphabet).ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Parse("<<", &alphabet).ok());  // still an error
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PlanCacheTest, ConcurrentParsesAreSafeAndConverge) {
  // Many threads hammering the same small text set: no crashes, no torn
  // stats, and afterwards each text resolves to one stable plan.
  Alphabet alphabet;
  PlanCache cache;
  const std::vector<std::string> texts = {"<child[a]>", "<desc[b]>",
                                          "W(<desc[b]>)", "a and b"};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        for (const std::string& text : texts) {
          auto q = cache.Parse(text, &alphabet);
          ASSERT_TRUE(q.ok());
          ASSERT_NE(q.ValueOrDie(), nullptr);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4u * 50u * texts.size());
  for (const std::string& text : texts) {
    auto a = cache.Parse(text, &alphabet).ValueOrDie();
    auto b = cache.Parse(text, &alphabet).ValueOrDie();
    EXPECT_EQ(a.get(), b.get());
  }
}

TEST(PlanCacheTest, ConcurrentFreshLabelsRoundTripThroughAlphabet) {
  // Cold compiles run in parallel, and each parse of a never-seen label
  // grows the shared alphabet: the cache must serialise those mutations
  // (run under TSan in CI) so that no symbol is lost or minted twice.
  Alphabet alphabet;
  PlanCache cache;
  constexpr int kThreads = 4;
  constexpr int kTexts = 100;
  std::vector<std::vector<PlanCache::CompiledQuery>> plans(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTexts; ++i) {
        const std::string tag = std::to_string(t) + "_" + std::to_string(i);
        auto q = cache.ParseCompiled("<child[l" + tag + "]> and m" + tag,
                                     &alphabet);
        ASSERT_TRUE(q.ok()) << q.status().ToString();
        plans[t].push_back(q.ValueOrDie());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(alphabet.size(), 2 * kThreads * kTexts);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(plans[t].size(), static_cast<size_t>(kTexts));
    for (int i = 0; i < kTexts; ++i) {
      const std::string tag = std::to_string(t) + "_" + std::to_string(i);
      std::set<Symbol> labels;
      CollectNodeLabels(*plans[t][i].query->plan(), &labels);
      std::set<std::string> names;
      for (Symbol label : labels) names.insert(alphabet.Name(label));
      EXPECT_EQ(names, (std::set<std::string>{"l" + tag, "m" + tag}));
      EXPECT_NE(plans[t][i].program, nullptr);
    }
  }
}

TEST(PlanCacheTest, RacingColdMissesDoNotDuplicateEntries) {
  // Regression: two threads missing on the same cold key both parse; the
  // insert path must re-check the index under the lock so the loser reuses
  // the winner's entry. The old code blindly inserted both, leaving a
  // stale duplicate in the LRU list whose eventual eviction erased the
  // LIVE entry's index slot (hot key became a permanent miss).
  for (int round = 0; round < 25; ++round) {
    Alphabet alphabet;
    PlanCache cache;
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        ASSERT_TRUE(cache.Parse("W(<desc[a]>)", &alphabet).ok());
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(cache.size(), 1u);  // one key -> exactly one LRU entry
    const PlanCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, 4u);
  }
}

TEST(PlanCacheTest, PurgeDropsAlphabetEntriesAndPrograms) {
  Alphabet keep, drop;
  PlanCache cache;
  auto kept = cache.Parse("<child[a]>", &keep).ValueOrDie();
  cache.Parse("<child[a]>", &drop).ValueOrDie();
  cache.Parse("<desc[b]>", &drop).ValueOrDie();
  EXPECT_EQ(cache.size(), 3u);
  cache.Purge(&drop);
  EXPECT_EQ(cache.size(), 1u);
  // The purged alphabet's entries are gone: same text + address is a miss.
  const size_t misses = cache.stats().misses;
  auto reparsed = cache.Parse("<child[a]>", &drop).ValueOrDie();
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_NE(reparsed, nullptr);
  // The surviving alphabet still hits the very same plan object.
  EXPECT_EQ(cache.Parse("<child[a]>", &keep).ValueOrDie().get(), kept.get());
}

}  // namespace
}  // namespace xptc
