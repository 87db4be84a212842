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
/// Why this matters for throughput: every pointer-keyed memo downstream —
/// the evaluator's per-context `node_cache_`, the per-evaluation `W` memo,
/// and the cross-query `TreeCache` — suddenly hits across *different*
/// queries of a workload whenever they share a subexpression. The
/// `PlanCache` routes every parsed plan through one interner per alphabet,
/// which is what makes a query workload evaluate as a DAG instead of a
/// forest.
///
/// Interning is bottom-up: children are interned first, so structural
/// equality of a candidate reduces to *shallow* equality (same op, same
/// label/axis, pointer-identical children) — each node costs O(1) hashing
/// regardless of subtree size. Expressions are immutable and held by
/// shared_ptr. A per-call memo keeps a DAG input linear (a shared input
/// node is walked once per call); nothing about the input outlives the
/// call, so an `Intern` costs O(size of its input) plus the amortised
/// sweep below.
///
/// Memory is bounded: canonical nodes that no live plan references any
/// more are swept in one cascading pass (see `Sweep`), run automatically
/// whenever the canonical sets have doubled since the previous sweep — so
/// the sets track the live working set and each sweep is paid for by the
/// interning that grew them (amortised O(1) per interned node).
///
/// Not thread-safe; the `PlanCache` serialises access under its own lock.
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

  /// Number of sweeps run so far (automatic and explicit).
  size_t sweeps() const { return sweeps_; }

  /// Erases every canonical node no longer referenced outside the
  /// interner — i.e. not reachable from any live plan — in one pass: a
  /// scan seeds a worklist with the unreferenced nodes, and erasing a
  /// node re-checks its children, so a discarded chain of any depth goes
  /// in the same sweep. O(canonical set size). Called automatically from
  /// `Intern` once the sets reach twice their size after the previous
  /// sweep (and at least `kMinSweepSize`).
  void Sweep();

  /// Canonical-set size below which `Intern` never sweeps: keeps a small
  /// interner from sweeping on every call while it warms up.
  static constexpr size_t kMinSweepSize = 1u << 12;

 private:
  // Per-call input → canonical memo, keyed by input address (the caller
  // holds the input for the whole call, so no address is reused inside
  // it). Only shared input nodes (use_count > 1) are recorded: a node
  // held once is reachable along one edge of the DAG and visited once.
  struct Memo {
    std::unordered_map<const NodeExpr*, NodePtr> nodes;
    std::unordered_map<const PathExpr*, PathPtr> paths;
  };

  NodePtr InternNode(const NodePtr& node, Memo* memo);
  PathPtr InternPath(const PathPtr& path, Memo* memo);

  /// Runs at each top-level `Intern` entry (never mid-recursion).
  void MaybeSweep() {
    if (nodes_.size() + paths_.size() >= next_sweep_) Sweep();
  }

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
  // Combined set size at which the next automatic sweep runs.
  size_t next_sweep_ = kMinSweepSize;
  size_t sweeps_ = 0;
};

}  // namespace xptc

#endif  // XPTC_XPATH_INTERN_H_
