#include "workload/plan_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/alphabet.h"
#include "exec/program.h"
#include "xpath/ast.h"
#include "xpath/fragment.h"
#include "xpath/intern.h"
#include "xpath/parser.h"

namespace xptc {
namespace {

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

TEST(PlanCacheTest, HashConsingSharesSubexpressionsAcrossQueries) {
  // Two distinct query texts containing the same subexpression: after
  // interning, the shared subtree must be pointer-identical, so every
  // pointer-keyed evaluator memo hits across the two plans.
  Alphabet alphabet;
  PlanCache cache;
  auto q1 = cache.Parse("<child[a]> and b", &alphabet).ValueOrDie();
  auto q2 = cache.Parse("<child[a]> or c", &alphabet).ValueOrDie();
  ASSERT_EQ(q1->plan()->op, NodeOp::kAnd);
  ASSERT_EQ(q2->plan()->op, NodeOp::kOr);
  EXPECT_EQ(q1->plan()->left.get(), q2->plan()->left.get())
      << "interner failed to share <child[a]> across two cached plans";
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

TEST(PlanCacheTest, UnoptimizedAndOptimizedAreDistinctEntries) {
  Alphabet alphabet;
  PlanCache cache;
  auto opt = cache.Parse("W(<desc[a]>)", &alphabet).ValueOrDie();
  auto raw = cache.Parse("W(<desc[a]>)", &alphabet, /*optimize=*/false)
                 .ValueOrDie();
  EXPECT_NE(opt.get(), raw.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(raw->dialect(), raw->source_dialect());
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

TEST(PlanCacheTest, PurgeDropsAlphabetEntriesAndInterner) {
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

TEST(ExprInternerTest, InternsStructurallyEqualTrees) {
  Alphabet alphabet;
  ExprInterner interner;
  NodePtr a = ParseNode("<child[a]> and <desc[b]>", &alphabet).ValueOrDie();
  NodePtr b = ParseNode("<child[a]> and <desc[b]>", &alphabet).ValueOrDie();
  ASSERT_NE(a.get(), b.get());  // parser does not hash-cons
  NodePtr ia = interner.Intern(a);
  NodePtr ib = interner.Intern(b);
  EXPECT_EQ(ia.get(), ib.get());
  // Idempotent: interning an interned expression is the identity.
  EXPECT_EQ(interner.Intern(ia).get(), ia.get());
}

TEST(ExprInternerTest, SharesSubtreesAcrossDifferentRoots) {
  Alphabet alphabet;
  ExprInterner interner;
  NodePtr conj =
      interner.Intern(ParseNode("<child[a]> and b", &alphabet).ValueOrDie());
  NodePtr disj =
      interner.Intern(ParseNode("<child[a]> or c", &alphabet).ValueOrDie());
  EXPECT_EQ(conj->left.get(), disj->left.get());
  EXPECT_NE(conj.get(), disj.get());
}

TEST(ExprInternerTest, InternsPathsIncludingPredicates) {
  Alphabet alphabet;
  ExprInterner interner;
  PathPtr p1 =
      interner.Intern(ParsePath("(child[a])*", &alphabet).ValueOrDie());
  PathPtr p2 =
      interner.Intern(ParsePath("(child[a])*", &alphabet).ValueOrDie());
  EXPECT_EQ(p1.get(), p2.get());
}

TEST(ExprInternerTest, SweepKeepsCanonicalsAndStaysCorrect) {
  Alphabet alphabet;
  ExprInterner interner;
  NodePtr kept =
      interner.Intern(ParseNode("<child[keep]>", &alphabet).ValueOrDie());
  interner.Sweep();
  // A sweep drops only unreferenced canonicals: afterwards, re-interning
  // an equal tree (or the canonical itself) still lands on the same
  // representative.
  NodePtr again =
      interner.Intern(ParseNode("<child[keep]>", &alphabet).ValueOrDie());
  EXPECT_EQ(again.get(), kept.get());
  EXPECT_EQ(interner.Intern(kept).get(), kept.get());
}

TEST(ExprInternerTest, SelfTrimSweepsUnreferencedCanonicals) {
  // A long-running interner must not grow without bound: once the
  // canonical sets double (past kMinSweepSize), canonical nodes no live
  // plan references are swept. Intern many distinct throwaway queries
  // (results immediately discarded) — enough that the sweep fires at
  // least once — and check the canonical sets shrank while a held plan
  // survived.
  Alphabet alphabet;
  ExprInterner interner;
  NodePtr kept =
      interner.Intern(ParseNode("<child[keep]>", &alphabet).ValueOrDie());
  constexpr size_t kDistinct = 30000;  // ~3 canonicals each > threshold
  for (size_t i = 0; i < kDistinct; ++i) {
    NodePtr throwaway =
        ParseNode("<child[x" + std::to_string(i) + "]>", &alphabet)
            .ValueOrDie();
    ASSERT_NE(interner.Intern(throwaway), nullptr);
  }
  EXPECT_LT(interner.unique_nodes(), kDistinct)
      << "self-trim never swept the discarded canonicals";
  EXPECT_EQ(interner
                .Intern(ParseNode("<child[keep]>", &alphabet).ValueOrDie())
                .get(),
            kept.get())
      << "sweep must not evict canonicals still referenced by live plans";
}

TEST(ExprInternerTest, InternDoesNotHoldItsInput) {
  // The input memo lives for one call: once Intern returns, a fresh input
  // whose class already has a canonical is owned by its caller alone.
  Alphabet alphabet;
  ExprInterner interner;
  NodePtr kept = interner.Intern(
      ParseNode("<child[a]> and not b", &alphabet).ValueOrDie());
  NodePtr input = ParseNode("<child[a]> and not b", &alphabet).ValueOrDie();
  EXPECT_EQ(interner.Intern(input).get(), kept.get());
  EXPECT_EQ(input.use_count(), 1);
}

TEST(ExprInternerTest, SharedInputIsInternedOnce) {
  // A DAG input whose tree unfolding is 2^64 nodes: the per-call memo
  // visits each shared node once, so interning stays linear in the DAG.
  Alphabet alphabet;
  ExprInterner interner;
  NodePtr dag = MakeLabel(alphabet.Intern("a"));
  for (int i = 0; i < 64; ++i) dag = MakeAnd(dag, dag);
  NodePtr canonical = interner.Intern(dag);
  EXPECT_EQ(interner.unique_nodes(), 65u);
  EXPECT_EQ(canonical->left.get(), canonical->right.get());
}

TEST(ExprInternerTest, OneSweepRemovesADiscardedDeepChain) {
  // Erasing a node re-checks its children, so a discarded chain goes in
  // the one pass of the first sweep, however deep it is — not one level
  // per round.
  Alphabet alphabet;
  ExprInterner interner;
  NodePtr kept =
      interner.Intern(ParseNode("<child[keep]>", &alphabet).ValueOrDie());
  const size_t nodes_before = interner.unique_nodes();
  const size_t paths_before = interner.unique_paths();
  {
    NodePtr chain = MakeLabel(alphabet.Intern("leaf"));
    for (int i = 0; i < 1000; ++i) {
      chain = MakeSome(MakeFilter(MakeAxis(Axis::kChild), MakeNot(chain)));
    }
    ASSERT_NE(interner.Intern(chain), nullptr);
  }
  EXPECT_GE(interner.unique_nodes(), nodes_before + 2000);
  EXPECT_EQ(interner.sweeps(), 0u);
  interner.Sweep();
  EXPECT_EQ(interner.sweeps(), 1u);
  EXPECT_EQ(interner.unique_nodes(), nodes_before);
  EXPECT_EQ(interner.unique_paths(), paths_before);
  EXPECT_EQ(interner
                .Intern(ParseNode("<child[keep]>", &alphabet).ValueOrDie())
                .get(),
            kept.get());
}

TEST(ExprInternerTest, SweepsRunOnlyWhenTheSetsDouble) {
  // With every plan held live, nothing is ever swept, and each automatic
  // sweep waits for the sets to double: O(log n) sweeps over n interned
  // nodes, so the sweeps' total cost stays linear.
  Alphabet alphabet;
  ExprInterner interner;
  std::vector<NodePtr> held;
  for (int i = 0; i < 20000; ++i) {
    held.push_back(interner.Intern(
        ParseNode("<child[x" + std::to_string(i) + "]>", &alphabet)
            .ValueOrDie()));
  }
  const size_t total = interner.unique_nodes() + interner.unique_paths();
  size_t max_sweeps = 0;
  for (size_t size = ExprInterner::kMinSweepSize; size <= total; size *= 2) {
    ++max_sweeps;
  }
  EXPECT_GE(interner.sweeps(), 1u);
  EXPECT_LE(interner.sweeps(), max_sweeps);
  EXPECT_EQ(interner.unique_nodes(), 2 * held.size());
}

}  // namespace
}  // namespace xptc
