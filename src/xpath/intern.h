#ifndef XPTC_XPATH_INTERN_H_
#define XPTC_XPATH_INTERN_H_

#include <unordered_map>
#include <unordered_set>

#include "xpath/ast.h"

namespace xptc {

/// Hash-consing interner for expression DAGs: structurally equal
/// subexpressions are collapsed onto one shared node, so `Intern(a) ==
/// Intern(b)` (pointer equality) iff `NodeEquals(*a, *b)`.
///
/// Its one user is `exec::Program::Compile`, which interns the plan it
/// lowers in a private, per-call interner: pointer-keyed lowering memos
/// then compute every structurally distinct subexpression of the query —
/// and every distinct `W` body — exactly once. Nothing is shared across
/// plans: the `PlanCache` program index and the `TreeCache` `W` memo key
/// structurally (NodeHash/NodeEquals), so they hit across queries without
/// a process-wide canonical set.
///
/// Interning is bottom-up: children are interned first, so structural
/// equality of a candidate reduces to *shallow* equality (same op, same
/// label/axis, pointer-identical children) — each node costs O(1) hashing
/// regardless of subtree size. Expressions are immutable and held by
/// shared_ptr. A per-call memo keeps a DAG input linear (a shared input
/// node is walked once per call); nothing about the input outlives the
/// call, so an `Intern` costs O(size of its input). The canonical sets
/// live as long as the interner.
///
/// Not thread-safe; use one per thread (or per call).
class ExprInterner {
 public:
  ExprInterner() = default;
  ExprInterner(const ExprInterner&) = delete;
  ExprInterner& operator=(const ExprInterner&) = delete;
  ExprInterner(ExprInterner&&) = default;
  ExprInterner& operator=(ExprInterner&&) = default;

  /// Returns the canonical representative of `node` (possibly `node`
  /// itself, if it is the first of its equivalence class). Null passes
  /// through (absent optional children).
  NodePtr Intern(const NodePtr& node);
  PathPtr Intern(const PathPtr& path);

  /// Number of distinct equivalence classes currently held.
  size_t unique_nodes() const { return nodes_.size(); }
  size_t unique_paths() const { return paths_.size(); }

 private:
  // Per-call input → canonical memo, keyed by input address (the caller
  // holds the input for the whole call, so no address is reused inside
  // it). Only shared input nodes (use_count > 1) that had to be rebuilt
  // over interned children are recorded: a node held once is reachable
  // along one edge of the DAG and visited once, and any other node is
  // shallow-equal to its canonical node, so a revisit finds it in the
  // canonical set. (A plan from the copy-on-change simplifier shares most
  // nodes with its parse tree, so recording every shared node would cost
  // an allocation per node.)
  struct Memo {
    std::unordered_map<const NodeExpr*, NodePtr> nodes;
    std::unordered_map<const PathExpr*, PathPtr> paths;
  };

  NodePtr InternNode(const NodePtr& node, Memo* memo);
  PathPtr InternPath(const PathPtr& path, Memo* memo);

  // Shallow hash/equality: valid only once children are interned, which
  // Intern guarantees by recursing first.
  struct NodeHasher {
    size_t operator()(const NodePtr& n) const;
  };
  struct NodeShallowEq {
    bool operator()(const NodePtr& a, const NodePtr& b) const;
  };
  struct PathHasher {
    size_t operator()(const PathPtr& p) const;
  };
  struct PathShallowEq {
    bool operator()(const PathPtr& a, const PathPtr& b) const;
  };

  std::unordered_set<NodePtr, NodeHasher, NodeShallowEq> nodes_;
  std::unordered_set<PathPtr, PathHasher, PathShallowEq> paths_;
};

}  // namespace xptc

#endif  // XPTC_XPATH_INTERN_H_
