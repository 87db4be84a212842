#include "xpath/engine.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tree/generate.h"
#include "xpath/eval.h"
#include "xpath/eval_naive.h"
#include "xpath/generator.h"
#include "xpath/parser.h"
#include "test_util.h"

namespace xptc {
namespace {

using testing_util::T;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : tree_(T("a(b(d,e),c)", &alphabet_)) {}
  Alphabet alphabet_;
  Tree tree_;
};

TEST_F(EngineTest, QueryParseSelectMatch) {
  Query query = Query::Parse("<child[d]>", &alphabet_).ValueOrDie();
  EXPECT_EQ(query.dialect(), Dialect::kCoreXPath);
  EXPECT_EQ(query.SelectVector(tree_), (std::vector<NodeId>{1}));
  EXPECT_TRUE(query.Matches(tree_, 1));
  EXPECT_FALSE(query.Matches(tree_, 0));
  EXPECT_EQ(query.Select(tree_).Count(), 1);
}

TEST_F(EngineTest, QueryParseErrorsPropagate) {
  EXPECT_FALSE(Query::Parse("<<", &alphabet_).ok());
  EXPECT_FALSE(PathQuery::Parse("child/", &alphabet_).ok());
}

TEST_F(EngineTest, OptimizationIsTransparent) {
  Query opt = Query::Parse("<dos/dos[d and true]>", &alphabet_).ValueOrDie();
  EXPECT_EQ(opt.ToString(alphabet_), "<dos[d]>");
  EXPECT_GT(NodeSize(*opt.expr()), NodeSize(*opt.plan()));
  // The original expression is preserved alongside the plan.
  EXPECT_NE(NodeToString(*opt.expr(), alphabet_),
            NodeToString(*opt.plan(), alphabet_));
}

TEST_F(EngineTest, DialectReflectsPlanSourceDialectReflectsText) {
  // Regression for the dialect-source inconsistency: Query used to
  // classify the original text while PathQuery classified the plan. Policy
  // now: dialect() is the plan's (what executes), source_dialect() is the
  // text's (what was written). `W φ ≡ φ` for downward φ makes the two
  // observably differ.
  Query w = Query::Parse("W(<desc[a]>)", &alphabet_).ValueOrDie();
  EXPECT_EQ(w.source_dialect(), Dialect::kRegularXPathW);
  EXPECT_EQ(w.dialect(), Dialect::kCoreXPath);

  // A W that simplification cannot remove stays Regular XPath(W) in both.
  Query hard = Query::Parse("W(<anc[a]>)", &alphabet_).ValueOrDie();
  EXPECT_EQ(hard.dialect(), Dialect::kRegularXPathW);
  EXPECT_EQ(hard.source_dialect(), Dialect::kRegularXPathW);

  // Core queries are Core under both views.
  Query core = Query::Parse("<child[d]>", &alphabet_).ValueOrDie();
  EXPECT_EQ(core.dialect(), Dialect::kCoreXPath);
  EXPECT_EQ(core.source_dialect(), Dialect::kCoreXPath);
}

TEST_F(EngineTest, PathQueryDialectFollowsSamePolicy) {
  // `(child)*` is Regular XPath as written; star-of-base-axis simplifies
  // to a Core-expressible plan only if the rewriter knows it. Whatever the
  // rewriter does, the invariant under test is: dialect() classifies the
  // plan, source_dialect() classifies the text, and the source dialect
  // never shrinks below the plan dialect.
  PathQuery star = PathQuery::Parse("(child)*", &alphabet_).ValueOrDie();
  EXPECT_EQ(star.source_dialect(), ClassifyPath(*star.expr()));
  EXPECT_EQ(star.dialect(), ClassifyPath(*star.plan()));
  EXPECT_GE(static_cast<int>(star.source_dialect()),
            static_cast<int>(star.dialect()));

  PathQuery core = PathQuery::Parse("child/desc[d]", &alphabet_).ValueOrDie();
  EXPECT_EQ(core.dialect(), Dialect::kCoreXPath);
  EXPECT_EQ(core.source_dialect(), Dialect::kCoreXPath);
}

TEST_F(EngineTest, PathQueryNavigation) {
  PathQuery path = PathQuery::Parse("child/child", &alphabet_).ValueOrDie();
  EXPECT_EQ(path.From(tree_, 0), (std::vector<NodeId>{2, 3}));
  Bitset sources(tree_.size());
  sources.Set(0);
  EXPECT_EQ(path.FromSet(tree_, sources).ToVector(),
            (std::vector<int>{2, 3}));
  Bitset targets(tree_.size());
  targets.Set(3);
  EXPECT_EQ(path.Into(tree_, targets).ToVector(), (std::vector<int>{0}));
}

TEST_F(EngineTest, ReversedNavigatesBackwards) {
  PathQuery path = PathQuery::Parse("desc[d]", &alphabet_).ValueOrDie();
  PathQuery reversed = path.Reversed();
  // d's ancestors.
  EXPECT_EQ(reversed.From(tree_, 2), (std::vector<NodeId>{0, 1}));
  // Reversal is semantically the transpose on random inputs.
  Rng rng(17);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet_, 2);
  QueryGenOptions options;
  options.max_depth = 3;
  for (int i = 0; i < 20; ++i) {
    PathQuery forward = PathQuery::FromExpr(
        GeneratePath(options, labels, &rng));
    PathQuery backward = forward.Reversed();
    TreeGenOptions tree_options;
    tree_options.num_nodes = rng.NextInt(1, 10);
    const Tree tree = GenerateTree(tree_options, labels, &rng);
    EXPECT_EQ(EvalPathNaive(tree, *backward.plan()),
              EvalPathNaive(tree, *forward.plan()).Transpose());
  }
}

TEST_F(EngineTest, EngineAgreesWithDirectEvaluation) {
  Rng rng(18);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet_, 3);
  QueryGenOptions options;
  options.max_depth = 4;
  for (int i = 0; i < 40; ++i) {
    NodePtr expr = GenerateNode(options, labels, &rng);
    Query query = Query::FromExpr(expr);
    TreeGenOptions tree_options;
    tree_options.num_nodes = rng.NextInt(1, 16);
    const Tree tree = GenerateTree(tree_options, labels, &rng);
    EXPECT_EQ(query.Select(tree), EvalNodeSet(tree, *expr))
        << NodeToString(*expr, alphabet_);
  }
}

}  // namespace
}  // namespace xptc
