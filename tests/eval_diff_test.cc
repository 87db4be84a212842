// Randomized differential test for the optimized evaluator: generated
// trees × generated queries. Node-expression checks go through the
// cross-formalism oracle registry (src/testing/oracle.h), which compares
// the kernel-optimized `Evaluator` against the naive reference semantics
// and the compiled bytecode engine bit for bit — including `W`-heavy
// queries, nested stars, and deep chain trees that stress the semi-naive
// fixpoints. Path (binary-relation) checks stay direct: the registry's
// oracle interface is unary. Well over 1000 (tree, query) pairs run per
// invocation (the exact count is asserted at the bottom of each suite).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "testing/oracle.h"
#include "tree/generate.h"
#include "workload/batch.h"
#include "xpath/ast.h"
#include "xpath/engine.h"
#include "xpath/eval.h"
#include "xpath/eval_naive.h"
#include "xpath/generator.h"
#include "xpath/parser.h"
#include "test_util.h"

namespace xptc {
namespace {

using testing_util::N;
using testing_util::P;
using xptc::testing::Disagreement;
using xptc::testing::MakeDefaultRegistry;
using xptc::testing::OracleRegistry;

/// The cheap engine registry (naive / sets / exec / dexec) used by the node
/// sweeps below; heavy logic/automata oracles have their own suites.
std::unique_ptr<OracleRegistry> MakeCheapRegistry(Alphabet* alphabet) {
  xptc::testing::DefaultRegistryOptions options;
  options.include_heavy = false;
  options.include_batch = false;
  return MakeDefaultRegistry(alphabet, options);
}

Bitset RandomNodeSet(const Tree& tree, Rng* rng, double density = 0.35) {
  Bitset out(tree.size());
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (rng->NextBool(density)) out.Set(v);
  }
  return out;
}

/// Forward image of `sources` under the naive relation (union of rows).
Bitset NaiveFwdImage(const BitMatrix& relation, const Bitset& sources) {
  Bitset out(relation.n());
  for (int v = sources.FindFirst(); v >= 0; v = sources.FindNext(v)) {
    out |= relation.Row(v);
  }
  return out;
}

/// Backward image of `targets`: {i : Row(i) ∩ targets ≠ ∅}.
Bitset NaiveBackImage(const BitMatrix& relation, const Bitset& targets) {
  Bitset out(relation.n());
  for (int i = 0; i < relation.n(); ++i) {
    Bitset row = relation.Row(i);
    row &= targets;
    if (row.Any()) out.Set(i);
  }
  return out;
}

/// One differential check of a path expression on a tree: EvalFwd and
/// EvalBack from a random source/target set, against naive.
void CheckPath(const Tree& tree, const PathExpr& path, Rng* rng,
               const Alphabet& alphabet) {
  const BitMatrix reference = EvalPathNaive(tree, path);
  const Bitset sources = RandomNodeSet(tree, rng);
  const Bitset targets = RandomNodeSet(tree, rng);

  Evaluator opt(tree);

  const Bitset fwd = opt.EvalFwd(path, sources);
  ASSERT_EQ(fwd, NaiveFwdImage(reference, sources))
      << "EvalFwd vs naive for " << PathToString(path, alphabet) << " on "
      << tree.ToTerm(alphabet);

  const Bitset back = opt.EvalBack(path, targets);
  ASSERT_EQ(back, NaiveBackImage(reference, targets))
      << "EvalBack vs naive for " << PathToString(path, alphabet) << " on "
      << tree.ToTerm(alphabet);
}

void CheckNode(OracleRegistry* registry, const Tree& tree,
               const NodePtr& node, const Alphabet& alphabet) {
  const std::optional<Disagreement> disagreement = registry->Check(tree, node);
  ASSERT_FALSE(disagreement.has_value())
      << disagreement->Describe() << " for " << NodeToString(*node, alphabet)
      << " on " << tree.ToTerm(alphabet);
}

TEST(EvalDiffTest, RandomTreesRandomQueries) {
  Alphabet alphabet;
  Rng rng(20260805);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  auto registry = MakeCheapRegistry(&alphabet);
  QueryGenOptions options;
  options.max_depth = 4;
  int pairs = 0;
  for (int round = 0; round < 130; ++round) {
    TreeGenOptions tree_options;
    tree_options.num_nodes = rng.NextInt(1, 20);
    tree_options.shape = static_cast<TreeShape>(rng.NextInt(0, 6));
    const Tree tree = GenerateTree(tree_options, labels, &rng);
    for (int q = 0; q < 3; ++q) {
      CheckPath(tree, *GeneratePath(options, labels, &rng), &rng, alphabet);
      ++pairs;
      CheckNode(registry.get(), tree, GenerateNode(options, labels, &rng),
                alphabet);
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 780);
  // Every node case must have been compared against the reference by at
  // least two other engines (sets + exec vs naive).
  EXPECT_GE(registry->stats().comparisons, 2 * 390);
}

TEST(EvalDiffTest, WithinHeavyQueries) {
  // Force `W` into every generated query: wrap the generator's output and
  // sprinkle handwritten nested-W forms, so the shared-context W engine's
  // global memo and bottom-up pass are differentially covered.
  Alphabet alphabet;
  Rng rng(424242);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  auto registry = MakeCheapRegistry(&alphabet);
  QueryGenOptions options;
  options.max_depth = 3;
  options.allow_within = true;
  const std::vector<const char*> handwritten = {
      "W(<desc[a]>)",
      "W(W(<child[b]>))",
      "W(<child[W(<desc[a]>)]>)",
      "not W(<desc[a]> or <desc[b]>)",
      "W(<(child)*[b]>)",
      "W(<desc[W(not <child>)]> and <child>)",
      "<desc[W(<child[a]>)]> or W(<child[W(leaf)]>)",
  };
  int pairs = 0;
  for (int round = 0; round < 40; ++round) {
    TreeGenOptions tree_options;
    tree_options.num_nodes = rng.NextInt(1, 16);
    tree_options.shape = static_cast<TreeShape>(rng.NextInt(0, 6));
    const Tree tree = GenerateTree(tree_options, labels, &rng);
    for (const char* text : handwritten) {
      CheckNode(registry.get(), tree, N(text, &alphabet), alphabet);
      ++pairs;
    }
    for (int q = 0; q < 2; ++q) {
      // Wrap a random body in W, nested once more half the time.
      NodePtr body = GenerateNode(options, labels, &rng);
      NodePtr w = MakeWithin(rng.NextBool() ? MakeWithin(body) : body);
      CheckNode(registry.get(), tree, w, alphabet);
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 360);
}

TEST(EvalDiffTest, DeepStarsOnChains) {
  // Chain/comb/caterpillar trees drive the star fixpoint through many
  // rounds — exactly where the semi-naive frontier logic can diverge from
  // the reference if the delta bookkeeping is wrong.
  Alphabet alphabet;
  Rng rng(90909);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  const std::vector<const char*> star_paths = {
      "(child)*",
      "(parent)*",
      "(child[a])*",
      "((child | right)*[not b])*",
      "(child/child)*",
      "((child)*[b]/parent)*",
  };
  int pairs = 0;
  for (int round = 0; round < 24; ++round) {
    TreeGenOptions tree_options;
    tree_options.num_nodes = rng.NextInt(8, 40);
    const TreeShape deep_shapes[] = {TreeShape::kChain, TreeShape::kComb,
                                     TreeShape::kCaterpillar};
    tree_options.shape = deep_shapes[rng.NextInt(0, 2)];
    const Tree tree = GenerateTree(tree_options, labels, &rng);
    for (const char* text : star_paths) {
      CheckPath(tree, *P(text, &alphabet), &rng, alphabet);
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 144);
}

TEST(EvalDiffTest, BatchEngineMatchesSequentialLoop) {
  // The throughput layer re-enters this harness: random trees × random
  // W-enabled queries, the parallel BatchEngine against a plain sequential
  // Query::Select loop (which itself is covered against naive/exec above).
  Alphabet alphabet;
  Rng rng(31337);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  QueryGenOptions options;
  options.max_depth = 4;
  options.allow_within = true;
  std::vector<std::shared_ptr<const Tree>> trees;
  for (int i = 0; i < 12; ++i) {
    TreeGenOptions tree_options;
    tree_options.num_nodes = rng.NextInt(1, 24);
    tree_options.shape = static_cast<TreeShape>(rng.NextInt(0, 6));
    trees.push_back(
        std::make_shared<Tree>(GenerateTree(tree_options, labels, &rng)));
  }
  std::vector<Query> queries;
  for (int i = 0; i < 20; ++i) {
    queries.push_back(Query::FromExpr(GenerateNode(options, labels, &rng)));
  }
  const auto batched = Query::SelectBatch(trees, queries, /*num_workers=*/3);
  ASSERT_EQ(batched.size(), trees.size());
  int pairs = 0;
  for (size_t t = 0; t < trees.size(); ++t) {
    ASSERT_EQ(batched[t].size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(batched[t][q], queries[q].Select(*trees[t]))
          << "tree " << t << " query "
          << NodeToString(*queries[q].plan(), alphabet);
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 240);
}

TEST(EvalDiffTest, SubtreeContextAgainstExtractedSubtree) {
  // Context-bound evaluation (the W building block) against physically
  // extracted subtrees, for node sets of random W-enabled queries.
  Alphabet alphabet;
  Rng rng(171717);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  QueryGenOptions options;
  options.max_depth = 3;
  int pairs = 0;
  for (int round = 0; round < 60; ++round) {
    TreeGenOptions tree_options;
    tree_options.num_nodes = rng.NextInt(2, 16);
    tree_options.shape = static_cast<TreeShape>(rng.NextInt(0, 6));
    const Tree tree = GenerateTree(tree_options, labels, &rng);
    const NodeId v = rng.NextInt(0, tree.size() - 1);
    const Tree sub = tree.ExtractSubtree(v);
    for (int q = 0; q < 2; ++q) {
      NodePtr node = GenerateNode(options, labels, &rng);
      Evaluator context_eval(tree, v);
      const Bitset in_context = context_eval.EvalNode(*node);
      const Bitset reference = EvalNodeNaive(sub, *node);
      for (NodeId w = 0; w < tree.size(); ++w) {
        const bool expected =
            tree.InSubtree(w, v) && reference.Get(w - v);
        ASSERT_EQ(in_context.Get(w), expected)
            << NodeToString(*node, alphabet) << " node " << w << " context "
            << v << " on " << tree.ToTerm(alphabet);
      }
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 120);
}

}  // namespace
}  // namespace xptc
