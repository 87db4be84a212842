#ifndef XPTC_XPATH_EVAL_H_
#define XPTC_XPATH_EVAL_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "tree/tree.h"
#include "xpath/ast.h"

namespace xptc {

namespace internal {
/// State shared by an evaluator and all sub-context evaluators it spawns
/// (for `W`): a scratch-bitset pool, per-label node sets, and the memo of
/// `W` results. Defined in eval.cc.
struct EvalShared;
}  // namespace internal

/// Set-based evaluator for Regular XPath(W) — the reference interpreter.
/// It serves `Query::Select` and the `sets` fuzz oracle; production
/// evaluation runs on the compiled `exec::ExecEngine`, which this
/// independent implementation cross-checks.
///
/// Works over node *sets* (bitsets) with O(|T|) axis images, so Core XPath
/// node expressions evaluate in O(|Q|·|T|) (the Gottlob–Koch–Pichler bound);
/// stars use semi-naive (frontier/delta) fixpoints, and `W` is evaluated by
/// a shared-context engine (see below). DESIGN.md §7 has the per-axis cost
/// table and the complexity argument tying this to the paper's T2 bound.
///
/// An evaluator is bound to a *context subtree* `T|root`: all navigation is
/// confined to the subtree of `context_root` with `context_root` acting as
/// the root (no parent, no siblings). A default-context evaluator
/// (`context_root == tree.root()`) implements plain semantics.
///
/// Engine internals (the perf contract):
///  - Axis images iterate set bits word-at-a-time (ctz) and use ranged
///    word kernels, so each operation costs O(context-size/64 + output)
///    words, never O(|T|) node probes.
///  - All temporaries come from a shared scratch pool; recycling zeroes
///    only the context window, so sub-context evaluation does O(subtree)
///    word-work with zero steady-state allocation.
///  - `p*` runs a semi-naive fixpoint: each round expands only the newly
///    reached frontier, so `(child)*` on a depth-d tree is O(|T|) total
///    bit-work instead of O(d·|T|).
///  - `W φ` results are context-independent (φ at v only sees T|v, and
///    T|v is the same in every enclosing context), so they are computed
///    once per φ over the whole tree — in a bottom-up pass over preorder
///    ids using one pooled sub-evaluator — and memoized globally; nested
///    `W`s therefore share work instead of multiplying.
class Evaluator {
 public:
  explicit Evaluator(const Tree& tree, NodeId context_root = 0);

  ~Evaluator();

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// The set of nodes in context satisfying the node expression.
  Bitset EvalNode(const NodeExpr& node);

  /// Backward image: {n in context : ∃m ∈ targets, (n, m) ∈ [[path]]}.
  /// `targets` must be a subset of the context.
  Bitset EvalBack(const PathExpr& path, const Bitset& targets);

  /// Forward image: {m in context : ∃n ∈ sources, (n, m) ∈ [[path]]}.
  /// `sources` must be a subset of the context.
  Bitset EvalFwd(const PathExpr& path, const Bitset& sources);

  /// Forward image of a single axis step restricted to the context.
  /// `sources` must be a subset of the context.
  Bitset AxisImage(Axis axis, const Bitset& sources) const;

  /// All nodes of the context subtree.
  Bitset All() const {
    Bitset out(tree_.size());
    out.SetRange(lo_, hi_);
    return out;
  }

  NodeId context_root() const { return lo_; }
  NodeId context_end() const { return hi_; }

 private:
  // Sub-context evaluator sharing the parent's pool and memos.
  Evaluator(const Tree& tree, NodeId context_root, internal::EvalShared* shared);

  // Re-targets this evaluator at a new context root, recycling all cached
  // node sets. Lets the `W` engine drive one evaluator over every context.
  void Rebind(NodeId context_root);

  // Cached-by-reference node evaluation (reference stays valid: the cache
  // is an unordered_map, whose elements never move).
  const Bitset& EvalNodeRef(const NodeExpr& node);
  Bitset ComputeNode(const NodeExpr& node);

  // Pool-backed internals behind the public by-value API.
  Bitset EvalBackTmp(const PathExpr& path, const Bitset& targets);
  Bitset EvalFwdTmp(const PathExpr& path, const Bitset& sources);
  void AxisImageInto(Axis axis, const Bitset& sources, Bitset* out) const;

  // The global `W φ` node set (lazily computed, memoized in shared state).
  const Bitset& WithinSet(const NodePtr& body);

  const Tree& tree_;
  NodeId lo_;
  NodeId hi_;
  std::unique_ptr<internal::EvalShared> owned_shared_;  // root evaluator only
  internal::EvalShared* shared_;
  // Node-expression results are context-constant, so they are memoized per
  // expression identity; this makes star fixpoints and repeated filters
  // evaluate their predicates once.
  std::unordered_map<const NodeExpr*, Bitset> node_cache_;
};

/// Convenience: evaluates a node expression on the whole tree.
Bitset EvalNodeSet(const Tree& tree, const NodeExpr& node);

/// Convenience: answer set of `path` from a single context node, in
/// document order.
std::vector<NodeId> EvalPathFrom(const Tree& tree, const PathExpr& path,
                                 NodeId context);

/// Convenience: true iff `node` holds at `v` in `tree`.
bool EvalNodeAt(const Tree& tree, const NodeExpr& node, NodeId v);

}  // namespace xptc

#endif  // XPTC_XPATH_EVAL_H_
