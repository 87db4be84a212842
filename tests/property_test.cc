// Parameterized property sweeps: each suite states one semantic invariant
// and is instantiated across independent random seeds, so a failure pins
// down both the property and a reproducible generator stream.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "compile/compile.h"
#include "logic/fo_eval.h"
#include "logic/xpath_to_fo.h"
#include "testing/oracle.h"
#include "tree/generate.h"
#include "xpath/eval.h"
#include "xpath/eval_naive.h"
#include "xpath/fragment.h"
#include "xpath/generator.h"
#include "xpath/rewrite.h"
#include "test_util.h"

namespace xptc {
namespace {

using xptc::testing::DefaultRegistryOptions;
using xptc::testing::Disagreement;
using xptc::testing::MakeDefaultRegistry;
using xptc::testing::OracleRegistry;

constexpr uint64_t kSeeds[] = {11, 22, 33, 44, 55, 66, 77, 88};

int64_t RunsOf(const OracleRegistry& registry, const std::string& name) {
  const auto& runs = registry.stats().runs;
  const auto it = runs.find(name);
  return it == runs.end() ? 0 : it->second;
}

class SeededProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  SeededProperty() : rng_(GetParam()), labels_(DefaultLabels(&alphabet_, 3)) {}

  Tree RandomTree(int max_nodes) {
    TreeGenOptions options;
    options.num_nodes = rng_.NextInt(1, max_nodes);
    options.shape = static_cast<TreeShape>(rng_.NextInt(0, 6));
    return GenerateTree(options, labels_, &rng_);
  }

  Alphabet alphabet_;
  Rng rng_;
  std::vector<Symbol> labels_;
};

// Property 1: all engine-tier evaluation pipelines (naive relational
// semantics, set-based evaluator, compiled bytecode engine) agree on node
// sets — checked through the oracle registry — and the set-based
// evaluator agrees with the naive semantics on full relations.
class EvaluatorAgreement : public SeededProperty {};
TEST_P(EvaluatorAgreement, HoldsOnRandomInstances) {
  DefaultRegistryOptions registry_options;
  registry_options.include_heavy = false;
  registry_options.include_batch = false;
  auto registry = MakeDefaultRegistry(&alphabet_, registry_options);
  QueryGenOptions options;
  options.max_depth = 4;
  for (int i = 0; i < 25; ++i) {
    const Tree tree = RandomTree(18);
    NodePtr node = GenerateNode(options, labels_, &rng_);
    const std::optional<Disagreement> disagreement =
        registry->Check(tree, node);
    ASSERT_FALSE(disagreement.has_value())
        << disagreement->Describe() << " for "
        << NodeToString(*node, alphabet_) << " on " << tree.ToTerm(alphabet_);
    PathPtr path = GeneratePath(options, labels_, &rng_);
    const BitMatrix reference = EvalPathNaive(tree, *path);
    Evaluator evaluator(tree);
    ASSERT_EQ(evaluator.EvalBack(*path, evaluator.All()), reference.Domain())
        << PathToString(*path, alphabet_);
  }
  EXPECT_EQ(RunsOf(*registry, "naive"), 25);
  EXPECT_EQ(RunsOf(*registry, "sets"), 25);
  EXPECT_EQ(RunsOf(*registry, "exec"), 25);
}
INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorAgreement,
                         ::testing::ValuesIn(kSeeds));

// Property 2: forward and backward images are transposes of each other:
// m ∈ Fwd(p, {n})  iff  n ∈ Back(p, {m}).
class ImageDuality : public SeededProperty {};
TEST_P(ImageDuality, HoldsOnRandomInstances) {
  QueryGenOptions options;
  options.max_depth = 3;
  for (int i = 0; i < 15; ++i) {
    const Tree tree = RandomTree(12);
    PathPtr path = GeneratePath(options, labels_, &rng_);
    Evaluator evaluator(tree);
    for (NodeId n = 0; n < tree.size(); ++n) {
      Bitset source(tree.size());
      source.Set(n);
      const Bitset forward = evaluator.EvalFwd(*path, source);
      for (int m = forward.FindFirst(); m >= 0; m = forward.FindNext(m)) {
        Bitset target(tree.size());
        target.Set(m);
        ASSERT_TRUE(evaluator.EvalBack(*path, target).Get(n))
            << PathToString(*path, alphabet_) << " pair (" << n << "," << m
            << ") on " << tree.ToTerm(alphabet_);
      }
    }
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, ImageDuality, ::testing::ValuesIn(kSeeds));

// Property 3: syntactic converse is semantic transposition.
class ConverseProperty : public SeededProperty {};
TEST_P(ConverseProperty, HoldsOnRandomInstances) {
  QueryGenOptions options;
  options.max_depth = 3;
  for (int i = 0; i < 20; ++i) {
    const Tree tree = RandomTree(12);
    PathPtr path = GeneratePath(options, labels_, &rng_);
    ASSERT_EQ(EvalPathNaive(tree, *ConversePath(path)),
              EvalPathNaive(tree, *path).Transpose())
        << PathToString(*path, alphabet_);
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, ConverseProperty,
                         ::testing::ValuesIn(kSeeds));

// Property 4: W is the identity on downward expressions and idempotent
// everywhere.
class WithinProperty : public SeededProperty {};
TEST_P(WithinProperty, HoldsOnRandomInstances) {
  QueryGenOptions downward;
  downward.max_depth = 4;
  downward.downward_only = true;
  QueryGenOptions any;
  any.max_depth = 3;
  for (int i = 0; i < 15; ++i) {
    const Tree tree = RandomTree(14);
    NodePtr down = GenerateNode(downward, labels_, &rng_);
    ASSERT_EQ(EvalNodeSet(tree, *down),
              EvalNodeSet(tree, *MakeWithin(down)))
        << NodeToString(*down, alphabet_);
    NodePtr node = GenerateNode(any, labels_, &rng_);
    ASSERT_EQ(EvalNodeSet(tree, *MakeWithin(node)),
              EvalNodeSet(tree, *MakeWithin(MakeWithin(node))))
        << NodeToString(*node, alphabet_);
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, WithinProperty, ::testing::ValuesIn(kSeeds));

// Property 5: the simplifier preserves semantics and never grows input.
class SimplifierProperty : public SeededProperty {};
TEST_P(SimplifierProperty, HoldsOnRandomInstances) {
  QueryGenOptions options;
  options.max_depth = 5;
  for (int i = 0; i < 20; ++i) {
    const Tree tree = RandomTree(14);
    NodePtr node = GenerateNode(options, labels_, &rng_);
    NodePtr simplified = SimplifyNode(node);
    ASSERT_LE(NodeSize(*simplified), NodeSize(*node));
    ASSERT_EQ(EvalNodeSet(tree, *node), EvalNodeSet(tree, *simplified))
        << NodeToString(*node, alphabet_) << " vs "
        << NodeToString(*simplified, alphabet_) << " on "
        << tree.ToTerm(alphabet_);
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, SimplifierProperty,
                         ::testing::ValuesIn(kSeeds));

// Property 6: the FO(MTC) translation preserves unary-query semantics —
// the `fo` oracle (NodeToFO + model checker) cross-checked against the
// engine tier through the registry (small trees — FO model checking is
// expensive; the query-size gate is lifted so every case runs).
class TranslationProperty : public SeededProperty {};
TEST_P(TranslationProperty, HoldsOnRandomInstances) {
  DefaultRegistryOptions registry_options;
  registry_options.include_batch = false;
  registry_options.fo_max_tree_nodes = 8;
  registry_options.fo_max_query_size = 1 << 20;
  auto registry = MakeDefaultRegistry(&alphabet_, registry_options);
  QueryGenOptions options;
  options.max_depth = 2;
  for (int i = 0; i < 10; ++i) {
    const Tree tree = RandomTree(8);
    NodePtr node = GenerateNode(options, labels_, &rng_);
    const std::optional<Disagreement> disagreement =
        registry->Check(tree, node);
    ASSERT_FALSE(disagreement.has_value())
        << disagreement->Describe() << " for "
        << NodeToString(*node, alphabet_) << " on " << tree.ToTerm(alphabet_);
  }
  // The FO oracle must actually have run (not been fragment-gated away).
  EXPECT_EQ(RunsOf(*registry, "fo"), 10);
}
INSTANTIATE_TEST_SUITE_P(Seeds, TranslationProperty,
                         ::testing::ValuesIn(kSeeds));

// Property 7: the NTWA compiler preserves unary-query semantics on the
// supported fragment — the `ntwa` oracle cross-checked against the engine
// tier (and, where applicable, `fo` and `dfta`) through the registry.
class CompilationProperty : public SeededProperty {};
TEST_P(CompilationProperty, HoldsOnRandomInstances) {
  DefaultRegistryOptions registry_options;
  registry_options.include_batch = false;
  registry_options.ntwa_max_tree_nodes = 12;
  registry_options.ntwa_max_query_size = 1 << 20;
  auto registry = MakeDefaultRegistry(&alphabet_, registry_options);
  QueryGenOptions options;
  options.max_depth = 3;
  const std::vector<Symbol> universe = {labels_[0], labels_[1]};
  for (int i = 0; i < 12; ++i) {
    NodePtr query = GenerateCompilableNode(options, universe, &rng_);
    ASSERT_TRUE(XPathToNtwaCompiler::CheckSupported(*query).ok());
    TreeGenOptions tree_options;
    tree_options.num_nodes = rng_.NextInt(1, 12);
    tree_options.shape = static_cast<TreeShape>(rng_.NextInt(0, 6));
    const Tree tree = GenerateTree(tree_options, universe, &rng_);
    const std::optional<Disagreement> disagreement =
        registry->Check(tree, query);
    ASSERT_FALSE(disagreement.has_value())
        << disagreement->Describe() << " for "
        << NodeToString(*query, alphabet_) << " on "
        << tree.ToTerm(alphabet_);
  }
  EXPECT_EQ(RunsOf(*registry, "ntwa"), 12);
}
INSTANTIATE_TEST_SUITE_P(Seeds, CompilationProperty,
                         ::testing::ValuesIn(kSeeds));

// Property 8: generated compile-fragment queries always pass the static
// fragment check (the generator and checker agree on the fragment).
class GeneratorFragmentProperty : public SeededProperty {};
TEST_P(GeneratorFragmentProperty, HoldsOnRandomInstances) {
  QueryGenOptions options;
  options.max_depth = 5;
  for (int i = 0; i < 50; ++i) {
    NodePtr query = GenerateCompilableNode(options, labels_, &rng_);
    ASSERT_TRUE(XPathToNtwaCompiler::CheckSupported(*query).ok())
        << NodeToString(*query, alphabet_);
    // Downward generation stays in the downward fragment.
    QueryGenOptions downward = options;
    downward.downward_only = true;
    NodePtr down = GenerateNode(downward, labels_, &rng_);
    ASSERT_TRUE(IsDownwardNode(*down)) << NodeToString(*down, alphabet_);
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorFragmentProperty,
                         ::testing::ValuesIn(kSeeds));

}  // namespace
}  // namespace xptc
