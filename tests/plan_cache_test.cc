#include "workload/plan_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/alphabet.h"
#include "common/bitset.h"
#include "common/rng.h"
#include "exec/engine.h"
#include "exec/program.h"
#include "obs/trace.h"
#include "tree/generate.h"
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

TEST(PlanCacheTest, PathQueriesAreCachedSeparately) {
  Alphabet alphabet;
  PlanCache cache;
  auto p1 = cache.ParsePath("child/desc[a]", &alphabet).ValueOrDie();
  auto p2 = cache.ParsePath("child/desc[a]", &alphabet).ValueOrDie();
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  // A node query with coincidentally identical text would be a different
  // key (is_path differs) — no cross-contamination.
  EXPECT_EQ(cache.size(), 1u);
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

// Warms a compiled plan with real engine profiles and checks the profile
// reopt machinery end to end: the reopt fires at most once per program
// generation, any re-cached program is bit-for-bit equivalent, and the
// stats/trace surfaces agree with what happened.
TEST(PlanCacheTest, ProfileReoptPreservesResultsAndFiresAtMostOnce) {
  Alphabet alphabet;
  PlanCache cache;
  // A starred plan on a deep chain: the measured star rounds (~tree depth)
  // dwarf the static estimate, so the profile actually moves the model.
  const std::string text = "W(<child[a]> and <desc[b]>)";
  auto compiled = cache.ParseCompiled(text, &alphabet).ValueOrDie();
  ASSERT_NE(compiled.program, nullptr);

  Rng rng(11);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  TreeGenOptions options;
  options.num_nodes = 600;
  options.shape = TreeShape::kChain;
  const Tree tree = GenerateTree(options, labels, &rng);

  exec::ExecEngine engine(tree);
  const Bitset baseline = engine.EvalGeneral(*compiled.program);
  const std::vector<int64_t> execs = engine.last_run().instr_execs;
  ASSERT_EQ(execs.size(), compiled.program->code().size());

  for (int i = 0; i < PlanCache::kWarmProfiledRuns; ++i) {
    cache.RecordExecution(&alphabet, compiled, execs);
  }

  // The next hit for the warm root runs the profile-fed superoptimizer.
  obs::QueryTrace trace;
  PlanCache::CompiledQuery after;
  {
    obs::QueryTrace::Scope scope(&trace);
    after = cache.ParseCompiled(text, &alphabet).ValueOrDie();
  }
  ASSERT_NE(after.program, nullptr);
  const size_t reopts = cache.stats().profile_reopts;
  EXPECT_LE(reopts, 1u);
  if (after.program != compiled.program) {
    // A re-cached program must be counted, noted on the trace, and — the
    // load-bearing property — observationally identical.
    EXPECT_EQ(reopts, 1u);
    bool noted = false;
    for (const std::string& note : trace.root().notes) {
      if (note == "plan_cache: profile reopt") noted = true;
    }
    EXPECT_TRUE(noted);
  } else {
    EXPECT_EQ(reopts, 0u);
  }
  EXPECT_EQ(engine.EvalGeneral(*after.program), baseline);

  // At most one attempt per generation: re-warming the same (unchanged)
  // program must not stack further reopts.
  for (int i = 0; i < 2 * PlanCache::kWarmProfiledRuns; ++i) {
    cache.RecordExecution(&alphabet, after, execs);
  }
  auto third = cache.ParseCompiled(text, &alphabet).ValueOrDie();
  EXPECT_EQ(engine.EvalGeneral(*third.program), baseline);
  EXPECT_LE(cache.stats().profile_reopts, reopts + 1);
}

// Deterministic firing: a path star whose fixpoint converges in zero
// rounds on the measured tree (label `c` never occurs, so the star's
// frontier starts empty). The static model prices the body at the default
// round estimate and keeps the body-only `label a` mask in main; the
// measured profile says the body never runs, so the profile-fed pass must
// sink that mask into the body, win on modeled cost, and re-cache.
TEST(PlanCacheTest, ProfileReoptFiresOnZeroRoundStar) {
  Alphabet alphabet;
  PlanCache cache;
  const std::string text = "<(child[a]/desc)*[c]>";
  auto compiled = cache.ParseCompiled(text, &alphabet).ValueOrDie();
  ASSERT_NE(compiled.program, nullptr);

  Rng rng(11);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);  // a, b
  TreeGenOptions options;
  options.num_nodes = 400;
  options.shape = TreeShape::kUniformRecursive;
  const Tree tree = GenerateTree(options, labels, &rng);

  exec::ExecEngine engine(tree);
  const Bitset baseline = engine.EvalGeneral(*compiled.program);
  const std::vector<int64_t> execs = engine.last_run().instr_execs;
  ASSERT_EQ(execs.size(), compiled.program->code().size());
  for (int i = 0; i < PlanCache::kWarmProfiledRuns; ++i) {
    cache.RecordExecution(&alphabet, compiled, execs);
  }

  obs::QueryTrace trace;
  PlanCache::CompiledQuery after;
  {
    obs::QueryTrace::Scope scope(&trace);
    after = cache.ParseCompiled(text, &alphabet).ValueOrDie();
  }
  ASSERT_NE(after.program, nullptr);
  EXPECT_EQ(cache.stats().profile_reopts, 1u);
  EXPECT_NE(after.program.get(), compiled.program.get());
  ASSERT_NE(after.program->pre_superopt(), nullptr);
  EXPECT_GE(after.program->superopt_stats().sunk, 1);
  bool noted = false;
  for (const std::string& note : trace.root().notes) {
    if (note == "plan_cache: profile reopt") noted = true;
  }
  EXPECT_TRUE(noted);
  // The rewrite is invisible in results — on the profiled tree and on one
  // where the star actually runs (label `c` present).
  EXPECT_EQ(engine.EvalGeneral(*after.program), baseline);
  Rng rng3(12);
  const std::vector<Symbol> labels3 = DefaultLabels(&alphabet, 3);
  TreeGenOptions options3;
  options3.num_nodes = 400;
  options3.shape = TreeShape::kUniformRecursive;
  const Tree tree3 = GenerateTree(options3, labels3, &rng3);
  exec::ExecEngine engine3(tree3);
  EXPECT_EQ(engine3.EvalGeneral(*after.program),
            engine3.EvalGeneral(*compiled.program));
}

TEST(PlanCacheTest, RecordExecutionDropsMismatchedAndForeignProfiles) {
  Alphabet alphabet;
  PlanCache cache;
  const std::string text = "W(<child[a]>)";
  auto compiled = cache.ParseCompiled(text, &alphabet).ValueOrDie();
  ASSERT_NE(compiled.program, nullptr);

  // Size-mismatched profiles must never warm the plan.
  const std::vector<int64_t> wrong(compiled.program->code().size() + 3, 5);
  for (int i = 0; i < 4 * PlanCache::kWarmProfiledRuns; ++i) {
    cache.RecordExecution(&alphabet, compiled, wrong);
  }
  auto again = cache.ParseCompiled(text, &alphabet).ValueOrDie();
  EXPECT_EQ(again.program.get(), compiled.program.get());
  EXPECT_EQ(cache.stats().profile_reopts, 0u);

  // A CompiledQuery minted by a different cache (different interner, so a
  // different canonical root and program) must be ignored, not crash.
  PlanCache other;
  auto foreign = other.ParseCompiled(text, &alphabet).ValueOrDie();
  const std::vector<int64_t> sized(foreign.program->code().size(), 5);
  for (int i = 0; i < 4 * PlanCache::kWarmProfiledRuns; ++i) {
    cache.RecordExecution(&alphabet, foreign, sized);
  }
  EXPECT_EQ(cache.stats().profile_reopts, 0u);

  // Null-program records (e.g. a caller that only used Parse) are no-ops.
  PlanCache::CompiledQuery bare;
  bare.query = compiled.query;
  cache.RecordExecution(&alphabet, bare, sized);
  EXPECT_EQ(cache.stats().profile_reopts, 0u);
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
