#include "xpath/rewrite.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tree/enumerate.h"
#include "tree/generate.h"
#include "xpath/eval_naive.h"
#include "xpath/generator.h"
#include "xpath/parser.h"
#include "test_util.h"

namespace xptc {
namespace {

using testing_util::N;
using testing_util::P;

TEST(RewriteTest, UnitAndFusionRules) {
  Alphabet alphabet;
  EXPECT_EQ(PathToString(*SimplifyPath(P("self/child/self", &alphabet)),
                         alphabet),
            "child");
  EXPECT_EQ(PathToString(*SimplifyPath(P("child[true]", &alphabet)), alphabet),
            "child");
  EXPECT_EQ(
      PathToString(*SimplifyPath(P("child[a][b]", &alphabet)), alphabet),
      "child[a and b]");
  EXPECT_EQ(PathToString(*SimplifyPath(P("child | child", &alphabet)),
                         alphabet),
            "child");
}

TEST(RewriteTest, StarCollapses) {
  Alphabet alphabet;
  EXPECT_EQ(PathToString(*SimplifyPath(P("child*", &alphabet)), alphabet),
            "dos");
  EXPECT_EQ(PathToString(*SimplifyPath(P("parent*", &alphabet)), alphabet),
            "aos");
  EXPECT_EQ(PathToString(*SimplifyPath(P("dos*", &alphabet)), alphabet),
            "dos");
  EXPECT_EQ(PathToString(*SimplifyPath(P("(child*)*", &alphabet)), alphabet),
            "dos");
  // child+ = child/child* = child/dos = desc.
  EXPECT_EQ(PathToString(*SimplifyPath(P("child+", &alphabet)), alphabet),
            "desc");
  EXPECT_EQ(PathToString(*SimplifyPath(P("parent+", &alphabet)), alphabet),
            "anc");
  EXPECT_EQ(PathToString(*SimplifyPath(P("dos/dos", &alphabet)), alphabet),
            "dos");
}

TEST(RewriteTest, BooleanLaws) {
  Alphabet alphabet;
  EXPECT_EQ(NodeToString(*SimplifyNode(N("not not a", &alphabet)), alphabet),
            "a");
  EXPECT_EQ(NodeToString(*SimplifyNode(N("a and true", &alphabet)), alphabet),
            "a");
  EXPECT_EQ(NodeToString(*SimplifyNode(N("a or false", &alphabet)), alphabet),
            "a");
  EXPECT_EQ(
      NodeToString(*SimplifyNode(N("a and false", &alphabet)), alphabet),
      "not true");
  EXPECT_EQ(NodeToString(*SimplifyNode(N("a or a", &alphabet)), alphabet),
            "a");
  EXPECT_EQ(NodeToString(*SimplifyNode(N("<self[a]>", &alphabet)), alphabet),
            "a");
  EXPECT_EQ(NodeToString(*SimplifyNode(N("<child*>", &alphabet)), alphabet),
            "true");
}

TEST(RewriteTest, WithinOfDownwardDropsW) {
  Alphabet alphabet;
  EXPECT_EQ(NodeToString(*SimplifyNode(N("W(<desc[a]>)", &alphabet)),
                         alphabet),
            "<desc[a]>");
  // Upward navigation under W must be preserved.
  EXPECT_EQ(NodeToString(*SimplifyNode(N("W(<anc[a]>)", &alphabet)), alphabet),
            "W(<anc[a]>)");
  EXPECT_EQ(NodeToString(*SimplifyNode(N("W(W(<anc[a]>))", &alphabet)),
                         alphabet),
            "W(<anc[a]>)");
}

TEST(RewriteTest, SimplifierIsIdempotent) {
  Alphabet alphabet;
  Rng rng(12);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  QueryGenOptions options;
  options.max_depth = 5;
  for (int i = 0; i < 100; ++i) {
    PathPtr p = SimplifyPath(GeneratePath(options, labels, &rng));
    EXPECT_TRUE(PathEquals(*p, *SimplifyPath(p)))
        << PathToString(*p, alphabet);
    NodePtr n = SimplifyNode(GenerateNode(options, labels, &rng));
    EXPECT_TRUE(NodeEquals(*n, *SimplifyNode(n)))
        << NodeToString(*n, alphabet);
  }
}

TEST(RewriteTest, SimplifyingASimplifiedExpressionReturnsIt) {
  // A constructor no rule fires on keeps its input node when the children
  // came back unchanged, so re-simplifying a simplified plan hands back
  // the very same object (pointer-keyed memos stay warm).
  Alphabet alphabet;
  Rng rng(13);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  QueryGenOptions options;
  options.max_depth = 6;
  for (int i = 0; i < 300; ++i) {
    NodePtr n = SimplifyNode(GenerateNode(options, labels, &rng));
    EXPECT_EQ(SimplifyNode(n).get(), n.get()) << NodeToString(*n, alphabet);
    PathPtr p = SimplifyPath(GeneratePath(options, labels, &rng));
    EXPECT_EQ(SimplifyPath(p).get(), p.get()) << PathToString(*p, alphabet);
  }
}

TEST(RewriteTest, StructurallyEqualSubexpressionsArePointerEqual) {
  // One call hash-conses its whole output: repeats in the input, and
  // repeats a rule creates, come back as one shared node.
  Alphabet alphabet;
  NodePtr n = SimplifyNode(
      N("(<child[a]> and <desc[b]>) or (<child[a]> and c)", &alphabet));
  ASSERT_EQ(n->op, NodeOp::kOr);
  EXPECT_EQ(n->left->left.get(), n->right->left.get());
  PathPtr p = SimplifyPath(P("(child[a])*/(child[a])*", &alphabet));
  ASSERT_EQ(p->op, PathOp::kSeq);
  EXPECT_EQ(p->left.get(), p->right.get());
  // `a and a` is recognised on canonical (pointer-equal) operands.
  EXPECT_EQ(NodeToString(*SimplifyNode(N("<child[a and b]> and "
                                         "<child[a and b]>",
                                         &alphabet)),
                         alphabet),
            "<child[a and b]>");
}

TEST(RewriteTest, SharedInputIsSimplifiedOnce) {
  // A DAG input whose tree unfolding is 2^64 nodes: a shared input node
  // is walked once per call, so simplifying stays linear in the DAG.
  Alphabet alphabet;
  NodePtr dag = MakeLabel(alphabet.Intern("a"));
  for (int i = 0; i < 64; ++i) dag = MakeAnd(dag, MakeNot(dag));
  NodePtr n = SimplifyNode(dag);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(n->op, NodeOp::kAnd);
    EXPECT_EQ(n->left.get(), n->right->left.get());
    n = n->left;
  }
  EXPECT_EQ(n->op, NodeOp::kLabel);
}

TEST(RewriteTest, SimplifyDoesNotHoldItsInput) {
  // The unique table and the memo live for one call: once it returns, an
  // input the rules replaced is owned by its caller alone.
  Alphabet alphabet;
  NodePtr input = N("not not (<child[a]> and b)", &alphabet);
  NodePtr out = SimplifyNode(input);
  EXPECT_EQ(out.get(), input->left->left.get());
  EXPECT_EQ(input.use_count(), 1);
  EXPECT_EQ(input->left.use_count(), 1);
}

TEST(RewriteTest, SimplifierNeverGrowsExpressions) {
  Alphabet alphabet;
  Rng rng(13);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  QueryGenOptions options;
  options.max_depth = 5;
  for (int i = 0; i < 100; ++i) {
    PathPtr p = GeneratePath(options, labels, &rng);
    EXPECT_LE(PathSize(*SimplifyPath(p)), PathSize(*p));
    NodePtr n = GenerateNode(options, labels, &rng);
    EXPECT_LE(NodeSize(*SimplifyNode(n)), NodeSize(*n));
  }
}

// The critical property: simplification preserves semantics, verified
// exhaustively on all trees up to 4 nodes and on random larger trees.
TEST(RewriteTest, SoundnessExhaustiveSmallModels) {
  Alphabet alphabet;
  Rng rng(14);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  QueryGenOptions options;
  options.max_depth = 4;
  std::vector<PathPtr> paths;
  std::vector<PathPtr> simplified;
  std::vector<NodePtr> nodes;
  std::vector<NodePtr> simplified_nodes;
  for (int i = 0; i < 40; ++i) {
    paths.push_back(GeneratePath(options, labels, &rng));
    simplified.push_back(SimplifyPath(paths.back()));
    nodes.push_back(GenerateNode(options, labels, &rng));
    simplified_nodes.push_back(SimplifyNode(nodes.back()));
  }
  EnumerateTrees(4, labels, [&](const Tree& tree) {
    for (size_t i = 0; i < paths.size(); ++i) {
      ASSERT_EQ(EvalPathNaive(tree, *paths[i]),
                EvalPathNaive(tree, *simplified[i]))
          << PathToString(*paths[i], alphabet) << "  vs  "
          << PathToString(*simplified[i], alphabet) << "  on  "
          << tree.ToTerm(alphabet);
      ASSERT_EQ(EvalNodeNaive(tree, *nodes[i]),
                EvalNodeNaive(tree, *simplified_nodes[i]))
          << NodeToString(*nodes[i], alphabet) << "  vs  "
          << NodeToString(*simplified_nodes[i], alphabet) << "  on  "
          << tree.ToTerm(alphabet);
    }
  });
}

TEST(RewriteTest, SoundnessRandomLargerTrees) {
  Alphabet alphabet;
  Rng rng(15);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  QueryGenOptions options;
  options.max_depth = 5;
  for (int i = 0; i < 60; ++i) {
    PathPtr p = GeneratePath(options, labels, &rng);
    PathPtr s = SimplifyPath(p);
    TreeGenOptions tree_options;
    tree_options.num_nodes = rng.NextInt(1, 20);
    tree_options.shape = static_cast<TreeShape>(rng.NextInt(0, 6));
    const Tree tree = GenerateTree(tree_options, labels, &rng);
    ASSERT_EQ(EvalPathNaive(tree, *p), EvalPathNaive(tree, *s))
        << PathToString(*p, alphabet) << "  vs  " << PathToString(*s, alphabet)
        << "  on  " << tree.ToTerm(alphabet);
  }
}

}  // namespace
}  // namespace xptc
