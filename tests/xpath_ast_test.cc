#include "xpath/ast.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "xpath/fragment.h"
#include "xpath/generator.h"
#include "xpath/parser.h"
#include "test_util.h"

namespace xptc {
namespace {

using testing_util::N;
using testing_util::P;

TEST(AxisTest, InverseIsAnInvolution) {
  for (int i = 0; i < kNumAxes; ++i) {
    const Axis axis = static_cast<Axis>(i);
    EXPECT_EQ(InverseAxis(InverseAxis(axis)), axis);
  }
}

TEST(AxisTest, NamesRoundTrip) {
  for (int i = 0; i < kNumAxes; ++i) {
    const Axis axis = static_cast<Axis>(i);
    const auto parsed = AxisFromString(AxisToString(axis));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, axis);
  }
  EXPECT_FALSE(AxisFromString("nonsense").has_value());
}

TEST(AxisTest, DownwardImpliesForward) {
  for (int i = 0; i < kNumAxes; ++i) {
    const Axis axis = static_cast<Axis>(i);
    if (IsDownwardAxis(axis)) {
      EXPECT_TRUE(IsForwardAxis(axis));
    }
  }
}

TEST(ParserTest, ParsesAxesAndOperators) {
  Alphabet alphabet;
  PathPtr p = P("child/desc[a and not b]/right | parent*", &alphabet);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->op, PathOp::kUnion);
  EXPECT_EQ(PathToString(*p, alphabet),
            "child/desc[a and not b]/right | parent*");
}

TEST(ParserTest, PlusDesugarsToSeqStar) {
  Alphabet alphabet;
  PathPtr p = P("child+", &alphabet);
  EXPECT_EQ(PathToString(*p, alphabet), "child/child*");
}

TEST(ParserTest, SugarDesugars) {
  Alphabet alphabet;
  EXPECT_EQ(NodeToString(*N("root", &alphabet), alphabet), "not <parent>");
  EXPECT_EQ(NodeToString(*N("leaf", &alphabet), alphabet), "not <child>");
  EXPECT_EQ(NodeToString(*N("false", &alphabet), alphabet), "not true");
}

TEST(ParserTest, NodeExpressions) {
  Alphabet alphabet;
  NodePtr n = N("a or (b and <child[c]>) or W(not d)", &alphabet);
  EXPECT_EQ(NodeToString(*n, alphabet), "a or b and <child[c]> or W(not d)");
}

TEST(ParserTest, PrecedenceParenthesization) {
  Alphabet alphabet;
  // Union under composition requires parentheses.
  PathPtr p = MakeSeq(MakeUnion(MakeAxis(Axis::kChild), MakeAxis(Axis::kParent)),
                      MakeAxis(Axis::kChild));
  const std::string text = PathToString(*p, alphabet);
  EXPECT_EQ(text, "(child | parent)/child");
  PathPtr reparsed = P(text, &alphabet);
  EXPECT_TRUE(PathEquals(*p, *reparsed));
}

TEST(ParserTest, RejectsMalformedInput) {
  Alphabet alphabet;
  EXPECT_FALSE(ParsePath("child/", &alphabet).ok());
  EXPECT_FALSE(ParsePath("(child", &alphabet).ok());
  EXPECT_FALSE(ParsePath("child]]", &alphabet).ok());
  EXPECT_FALSE(ParsePath("bogusaxis", &alphabet).ok());
  EXPECT_FALSE(ParseNode("a and", &alphabet).ok());
  EXPECT_FALSE(ParseNode("<child", &alphabet).ok());
  EXPECT_FALSE(ParseNode("not", &alphabet).ok());
  EXPECT_FALSE(ParseNode("W child", &alphabet).ok());
  // Reserved words cannot be labels.
  EXPECT_FALSE(ParseNode("self", &alphabet).ok());
}

TEST(ParserTest, RoundTripOnRandomExpressions) {
  Alphabet alphabet;
  Rng rng(2024);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  QueryGenOptions options;
  options.max_depth = 5;
  for (int i = 0; i < 200; ++i) {
    PathPtr p = GeneratePath(options, labels, &rng);
    const std::string text = PathToString(*p, alphabet);
    Result<PathPtr> reparsed = ParsePath(text, &alphabet);
    ASSERT_TRUE(reparsed.ok()) << text << " : " << reparsed.status();
    EXPECT_TRUE(PathEquals(*p, **reparsed)) << text;

    NodePtr n = GenerateNode(options, labels, &rng);
    const std::string node_text = NodeToString(*n, alphabet);
    Result<NodePtr> node_reparsed = ParseNode(node_text, &alphabet);
    ASSERT_TRUE(node_reparsed.ok()) << node_text << " : "
                                    << node_reparsed.status();
    EXPECT_TRUE(NodeEquals(*n, **node_reparsed)) << node_text;
  }
}

TEST(AstTest, SizeAndWithinDepth) {
  Alphabet alphabet;
  NodePtr n = N("W(a and W(b))", &alphabet);
  EXPECT_EQ(NodeWithinDepth(*n), 2);
  EXPECT_EQ(NodeSize(*n), 5);
  PathPtr p = P("child[W(a)]/desc", &alphabet);
  EXPECT_EQ(PathWithinDepth(*p), 1);
  EXPECT_EQ(PathSize(*p), 6);
}

TEST(AstTest, HashConsistentWithEquality) {
  Alphabet alphabet;
  Rng rng(99);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  QueryGenOptions options;
  options.max_depth = 4;
  for (int i = 0; i < 100; ++i) {
    PathPtr p = GeneratePath(options, labels, &rng);
    // Re-parsing produces a structurally equal expression with equal hash.
    PathPtr q = P(PathToString(*p, alphabet), &alphabet);
    ASSERT_TRUE(PathEquals(*p, *q));
    EXPECT_EQ(PathHash(*p), PathHash(*q));
  }
}

TEST(FragmentTest, DialectClassification) {
  Alphabet alphabet;
  EXPECT_EQ(ClassifyPath(*P("child/desc[a]", &alphabet)),
            Dialect::kCoreXPath);
  EXPECT_EQ(ClassifyPath(*P("(child/right)*", &alphabet)),
            Dialect::kRegularXPath);
  EXPECT_EQ(ClassifyPath(*P("child[W(a)]", &alphabet)),
            Dialect::kRegularXPathW);
  EXPECT_EQ(ClassifyNode(*N("<child> and not a", &alphabet)),
            Dialect::kCoreXPath);
  EXPECT_EQ(ClassifyNode(*N("W(a)", &alphabet)), Dialect::kRegularXPathW);
}

TEST(FragmentTest, DownwardAndForward) {
  Alphabet alphabet;
  EXPECT_TRUE(IsDownwardPath(*P("child/desc[a and not <dos[b]>]", &alphabet)));
  EXPECT_FALSE(IsDownwardPath(*P("child/parent", &alphabet)));
  EXPECT_FALSE(IsDownwardPath(*P("child[<right>]", &alphabet)));
  EXPECT_TRUE(IsForwardPath(*P("child/right/foll", &alphabet)));
  EXPECT_FALSE(IsForwardPath(*P("child/left", &alphabet)));
  EXPECT_TRUE(IsDownwardNode(*N("W(a and <child>)", &alphabet)));
  EXPECT_FALSE(IsDownwardNode(*N("<anc[a]>", &alphabet)));
}

TEST(ConverseTest, SyntacticConverseOfCompositePath) {
  Alphabet alphabet;
  PathPtr p = P("child[a]/desc", &alphabet);
  PathPtr conv = ConversePath(p);
  // Right-nested composition keeps its parentheses in the printer.
  EXPECT_EQ(PathToString(*conv, alphabet), "anc/(self[a]/parent)");
}

}  // namespace
}  // namespace xptc
