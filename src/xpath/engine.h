#ifndef XPTC_XPATH_ENGINE_H_
#define XPTC_XPATH_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "common/bitset.h"
#include "common/result.h"
#include "tree/tree.h"
#include "xpath/ast.h"
#include "xpath/fragment.h"

namespace xptc {

class PlanCache;  // workload/plan_cache.h

/// High-level façade over the node-expression pipeline: parse → simplify →
/// classify → evaluate. The typical entry point for library
/// users who just want answers:
///
///   XPTC_ASSIGN_OR_RETURN(Query q,
///                         Query::Parse("<child[title]>", &alphabet));
///   Bitset matches = q.Select(document);
///
/// A `Query` is immutable and reusable across documents sharing the same
/// alphabet.
class Query {
 public:
  /// Parses and simplifies a node-expression query.
  static Result<Query> Parse(const std::string& text, Alphabet* alphabet);

  /// Wraps an existing expression; the plan is its simplified,
  /// hash-consed form (xpath/rewrite.h).
  static Query FromExpr(NodePtr expr);

  /// The expression as written and the expression as executed.
  const NodePtr& expr() const { return original_; }
  const NodePtr& plan() const { return optimized_; }

  /// The smallest dialect containing the *plan* (the expression that is
  /// actually executed) — the measure of what the engine pays for.
  /// Simplification can shrink the dialect (e.g. `W φ ≡ φ` for downward φ
  /// drops Regular XPath(W) to Core XPath); this accessor reflects that.
  Dialect dialect() const { return dialect_; }

  /// The smallest dialect containing the query *as written* — what the
  /// user asked for, before simplification. `source_dialect()` always
  /// contains `dialect()` in the hierarchy.
  Dialect source_dialect() const { return source_dialect_; }

  /// All nodes of `tree` satisfying the query, computed by the reference
  /// interpreter (`Evaluator`, xpath/eval.h). Production paths run the
  /// compiled engine instead; this stays independent of it so it can check
  /// the engine's answers.
  Bitset Select(const Tree& tree) const;

  /// Evaluates the cross product trees × queries in parallel on a
  /// work-stealing pool and returns `result[t][q]`, bit-for-bit equal to
  /// `queries[q].Select(*trees[t])`. Convenience façade over the compiled
  /// `BatchEngine` (workload/batch.h); defined in src/workload/batch.cc.
  /// `num_workers <= 0` selects hardware concurrency.
  static std::vector<std::vector<Bitset>> SelectBatch(
      const std::vector<std::shared_ptr<const Tree>>& trees,
      const std::vector<Query>& queries, int num_workers = 0);

  /// Same, as a document-ordered id vector.
  std::vector<NodeId> SelectVector(const Tree& tree) const;

  /// Does the query hold at `node`?
  bool Matches(const Tree& tree, NodeId node) const;

  /// The executed form, printable.
  std::string ToString(const Alphabet& alphabet) const;

 private:
  friend class PlanCache;  // parses under its own lock, then simplifies

  Query(NodePtr original, NodePtr optimized)
      : original_(std::move(original)),
        optimized_(std::move(optimized)),
        dialect_(ClassifyNode(*optimized_)),
        source_dialect_(ClassifyNode(*original_)) {}

  NodePtr original_;
  NodePtr optimized_;
  Dialect dialect_;         // of the plan (executed form)
  Dialect source_dialect_;  // of the expression as written
};

/// Façade for path expressions (binary relations): navigation from context
/// nodes.
class PathQuery {
 public:
  static Result<PathQuery> Parse(const std::string& text, Alphabet* alphabet);
  static PathQuery FromExpr(PathPtr expr);

  const PathPtr& expr() const { return original_; }
  const PathPtr& plan() const { return optimized_; }

  /// Dialect of the plan / of the expression as written — same policy as
  /// `Query` (classify what executes; expose the source separately).
  Dialect dialect() const { return dialect_; }
  Dialect source_dialect() const { return source_dialect_; }

  /// Nodes reachable from `context` (document order).
  std::vector<NodeId> From(const Tree& tree, NodeId context) const;

  /// Nodes reachable from any node of `sources`.
  Bitset FromSet(const Tree& tree, const Bitset& sources) const;

  /// Nodes from which something in `targets` is reachable (backward image).
  Bitset Into(const Tree& tree, const Bitset& targets) const;

  /// The syntactic converse query: navigates the relation backwards.
  PathQuery Reversed() const;

  std::string ToString(const Alphabet& alphabet) const;

 private:
  PathQuery(PathPtr original, PathPtr optimized)
      : original_(std::move(original)),
        optimized_(std::move(optimized)),
        dialect_(ClassifyPath(*optimized_)),
        source_dialect_(ClassifyPath(*original_)) {}

  PathPtr original_;
  PathPtr optimized_;
  Dialect dialect_;
  Dialect source_dialect_;
};

}  // namespace xptc

#endif  // XPTC_XPATH_ENGINE_H_
