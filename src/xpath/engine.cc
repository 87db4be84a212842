#include "xpath/engine.h"

#include "xpath/eval.h"
#include "xpath/parser.h"
#include "xpath/rewrite.h"

namespace xptc {

Result<Query> Query::Parse(const std::string& text, Alphabet* alphabet) {
  XPTC_ASSIGN_OR_RETURN(NodePtr expr, ParseNode(text, alphabet));
  return FromExpr(std::move(expr));
}

Query Query::FromExpr(NodePtr expr) {
  return Query(expr, SimplifyNode(expr));
}

Bitset Query::Select(const Tree& tree) const {
  return EvalNodeSet(tree, *optimized_);
}

std::vector<NodeId> Query::SelectVector(const Tree& tree) const {
  const std::vector<int> ids = Select(tree).ToVector();
  return std::vector<NodeId>(ids.begin(), ids.end());
}

bool Query::Matches(const Tree& tree, NodeId node) const {
  return Select(tree).Get(node);
}

std::string Query::ToString(const Alphabet& alphabet) const {
  return NodeToString(*optimized_, alphabet);
}

Result<PathQuery> PathQuery::Parse(const std::string& text,
                                   Alphabet* alphabet) {
  XPTC_ASSIGN_OR_RETURN(PathPtr expr, ParsePath(text, alphabet));
  return FromExpr(std::move(expr));
}

PathQuery PathQuery::FromExpr(PathPtr expr) {
  return PathQuery(expr, SimplifyPath(expr));
}

std::vector<NodeId> PathQuery::From(const Tree& tree, NodeId context) const {
  return EvalPathFrom(tree, *optimized_, context);
}

Bitset PathQuery::FromSet(const Tree& tree, const Bitset& sources) const {
  Evaluator evaluator(tree);
  return evaluator.EvalFwd(*optimized_, sources);
}

Bitset PathQuery::Into(const Tree& tree, const Bitset& targets) const {
  Evaluator evaluator(tree);
  return evaluator.EvalBack(*optimized_, targets);
}

PathQuery PathQuery::Reversed() const {
  return PathQuery(ConversePath(original_), ConversePath(optimized_));
}

std::string PathQuery::ToString(const Alphabet& alphabet) const {
  return PathToString(*optimized_, alphabet);
}

}  // namespace xptc
