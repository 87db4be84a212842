#include "xpath/eval.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/trace.h"
#include "xpath/axis_kernels.h"

namespace xptc {

namespace {

// Interpreter star rounds — the reference engine's own counter (the
// production engine reports exec.star_rounds).
obs::Counter& StarRounds() {
  static obs::Counter* c =
      &obs::Registry::Default().counter("eval.star_rounds");
  return *c;
}

}  // namespace

namespace internal {

/// Shared evaluation state: one instance per root evaluator, reached by
/// every sub-context evaluator spawned under it.
struct EvalShared {
  explicit EvalShared(const Tree& tree) : tree(tree) {}

  const Tree& tree;

  /// Scratch pool. All bitsets in `free_list` are all-zero; `Acquire`
  /// hands one out, `Recycle` zeroes the producer's context window and
  /// returns it. Net effect: steady-state evaluation does no allocation,
  /// and a context of s nodes pays O(s/64) words to reset scratch instead
  /// of O(|T|/64) to allocate it.
  std::vector<Bitset> free_list;

  /// Memo of `W φ` node sets, keyed by body identity. `W` results are
  /// context-independent (see Evaluator docs), so one entry serves every
  /// context — this is what makes nested `W`s share work. The bodies are
  /// pinned in `within_pins` so pointer keys cannot be reused by a
  /// freed-and-reallocated expression while the evaluation lives.
  std::unordered_map<const NodeExpr*, Bitset> within_sets;
  std::vector<NodePtr> within_pins;

  /// Per-label node sets over the whole tree, built once on first use so
  /// label tests in sub-contexts are word copies, not node scans.
  std::unordered_map<Symbol, Bitset> label_sets;

  Bitset Acquire() {
    if (free_list.empty()) return Bitset(tree.size());
    Bitset out = std::move(free_list.back());
    free_list.pop_back();
    return out;
  }

  /// `window_lo`/`window_hi`: the context window of the evaluator that
  /// produced `b` — by the window invariant all set bits lie inside it.
  void Recycle(Bitset&& b, int window_lo, int window_hi) {
    b.ResetRange(window_lo, window_hi);
    XPTC_DCHECK(b.None());
    free_list.push_back(std::move(b));
  }

  const Bitset& LabelSet(Symbol label) {
    auto it = label_sets.find(label);
    if (it != label_sets.end()) return it->second;
    Bitset set(tree.size());
    for (NodeId v = 0; v < tree.size(); ++v) {
      if (tree.Label(v) == label) set.Set(v);
    }
    return label_sets.emplace(label, std::move(set)).first->second;
  }
};

}  // namespace internal

using internal::EvalShared;

Evaluator::Evaluator(const Tree& tree, NodeId context_root)
    : tree_(tree),
      lo_(context_root),
      hi_(tree.SubtreeEnd(context_root)),
      owned_shared_(std::make_unique<EvalShared>(tree)),
      shared_(owned_shared_.get()) {}

Evaluator::Evaluator(const Tree& tree, NodeId context_root,
                     EvalShared* shared)
    : tree_(tree),
      lo_(context_root),
      hi_(tree.SubtreeEnd(context_root)),
      shared_(shared) {}

Evaluator::~Evaluator() {
  for (auto& entry : node_cache_) {
    shared_->Recycle(std::move(entry.second), lo_, hi_);
  }
}

void Evaluator::Rebind(NodeId context_root) {
  for (auto& entry : node_cache_) {
    shared_->Recycle(std::move(entry.second), lo_, hi_);
  }
  node_cache_.clear();
  lo_ = context_root;
  hi_ = tree_.SubtreeEnd(context_root);
}

// ---------------------------------------------------------------------------
// Axis kernels: shared with the compiled backend (xpath/axis_kernels.h).
// `out` must be all-zero inside the window on entry.

void Evaluator::AxisImageInto(Axis axis, const Bitset& sources,
                              Bitset* out) const {
  xptc::AxisImageInto(tree_, axis, sources, lo_, hi_, out);
  // Per-axis-kernel node touches (image size), keyed by axis. The count is
  // O(window/64) and only paid while a trace is active on this thread.
  if (obs::TraceNode* cur = obs::CurrentTraceNode()) {
    cur->AddAttr(std::string("axis.") + AxisToString(axis) + ".touches",
                 out->CountRange(lo_, hi_));
  }
}

Bitset Evaluator::AxisImage(Axis axis, const Bitset& sources) const {
  Bitset out(tree_.size());
  AxisImageInto(axis, sources, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Node expressions.

const Bitset& Evaluator::EvalNodeRef(const NodeExpr& node) {
  auto it = node_cache_.find(&node);
  if (it != node_cache_.end()) return it->second;
  Bitset out = ComputeNode(node);
  return node_cache_.emplace(&node, std::move(out)).first->second;
}

Bitset Evaluator::ComputeNode(const NodeExpr& node) {
  Bitset out = shared_->Acquire();
  switch (node.op) {
    case NodeOp::kLabel:
      out.CopyRange(shared_->LabelSet(node.label), lo_, hi_);
      break;
    case NodeOp::kTrue:
      out.SetRange(lo_, hi_);
      break;
    case NodeOp::kNot:
      out.SetRange(lo_, hi_);
      out.SubtractRange(EvalNodeRef(*node.left), lo_, hi_);
      break;
    case NodeOp::kAnd:
      out.CopyRange(EvalNodeRef(*node.left), lo_, hi_);
      out.AndRange(EvalNodeRef(*node.right), lo_, hi_);
      break;
    case NodeOp::kOr:
      out.CopyRange(EvalNodeRef(*node.left), lo_, hi_);
      out.OrRange(EvalNodeRef(*node.right), lo_, hi_);
      break;
    case NodeOp::kSome: {
      Bitset all = shared_->Acquire();
      all.SetRange(lo_, hi_);
      shared_->Recycle(std::move(out), lo_, hi_);
      out = EvalBackTmp(*node.path, all);
      shared_->Recycle(std::move(all), lo_, hi_);
      break;
    }
    case NodeOp::kWithin:
      // W φ is context-independent per node (see WithinSet), so the
      // context's answer is just the window slice of the global set.
      out.CopyRange(WithinSet(node.left), lo_, hi_);
      break;
  }
  return out;
}

const Bitset& Evaluator::WithinSet(const NodePtr& body) {
  auto it = shared_->within_sets.find(body.get());
  if (it != shared_->within_sets.end()) return it->second;
  // wset[v] = 1 iff `body` holds at v in context T|v. The result only
  // depends on the subtree of v (context evaluation never leaves T|v, and
  // T|v is the same subtree in every enclosing context), so it is computed
  // once over the whole tree and shared by every context and every nesting
  // level. One pooled sub-evaluator is rebound bottom-up (descending
  // preorder id = leaves first), so scratch memory is reused across all
  // |T| sub-contexts and inner `W`s hit this memo recursively.
  const int n = tree_.size();
  Bitset wset(n);
  if (n > 0) {
    Evaluator sub(tree_, n - 1, shared_);
    for (NodeId v = n - 1;; --v) {
      sub.Rebind(v);
      if (sub.EvalNodeRef(*body).Get(v)) wset.Set(v);
      if (v == 0) break;
    }
  }
  shared_->within_pins.push_back(body);
  return shared_->within_sets.emplace(body.get(), std::move(wset))
      .first->second;
}

Bitset Evaluator::EvalNode(const NodeExpr& node) { return EvalNodeRef(node); }

// ---------------------------------------------------------------------------
// Path expressions. The *Tmp variants hand back pool-owned bitsets; every
// internal temporary is recycled on the way out.

Bitset Evaluator::EvalBackTmp(const PathExpr& path, const Bitset& targets) {
  switch (path.op) {
    case PathOp::kAxis: {
      Bitset out = shared_->Acquire();
      AxisImageInto(InverseAxis(path.axis), targets, &out);
      return out;
    }
    case PathOp::kSeq: {
      Bitset mid = EvalBackTmp(*path.right, targets);
      Bitset out = EvalBackTmp(*path.left, mid);
      shared_->Recycle(std::move(mid), lo_, hi_);
      return out;
    }
    case PathOp::kUnion: {
      Bitset out = EvalBackTmp(*path.left, targets);
      Bitset other = EvalBackTmp(*path.right, targets);
      out.OrRange(other, lo_, hi_);
      shared_->Recycle(std::move(other), lo_, hi_);
      return out;
    }
    case PathOp::kFilter: {
      Bitset filtered = shared_->Acquire();
      filtered.CopyRange(targets, lo_, hi_);
      filtered.AndRange(EvalNodeRef(*path.pred), lo_, hi_);
      Bitset out = EvalBackTmp(*path.left, filtered);
      shared_->Recycle(std::move(filtered), lo_, hi_);
      return out;
    }
    case PathOp::kStar: {
      // Closure fast path: when the body is a single bare axis step whose
      // transitive closure is itself a one-pass kernel, p* = id ∪ closure
      // — one interval/streamed pass instead of an O(depth)-round fixpoint.
      Axis closure;
      if (axis::ClosureCollapseEnabled() && path.left->op == PathOp::kAxis &&
          TransitiveClosureAxis(InverseAxis(path.left->axis), &closure)) {
        Bitset out = shared_->Acquire();
        AxisImageInto(closure, targets, &out);
        out.OrRange(targets, lo_, hi_);
        return out;
      }
      // Semi-naive least fixpoint of R = targets ∪ EvalBack(p, R): each
      // round expands only the *delta* (newly reached nodes). Backward
      // images distribute over union, so expanding frontiers one at a time
      // reaches the same fixpoint with O(|reached|) total frontier work.
      Bitset reached = shared_->Acquire();
      reached.CopyRange(targets, lo_, hi_);
      Bitset frontier = shared_->Acquire();
      frontier.CopyRange(targets, lo_, hi_);
      int64_t rounds = 0;
      while (frontier.AnyInRange(lo_, hi_)) {
        ++rounds;
        Bitset step = EvalBackTmp(*path.left, frontier);
        // Fixpoint probe: one early-exit pass instead of the full
        // subtract / or / copy on the (always-reached) final round.
        if (step.IsSubsetOfRange(reached, lo_, hi_)) {
          shared_->Recycle(std::move(step), lo_, hi_);
          break;
        }
        step.SubtractRange(reached, lo_, hi_);
        reached.OrRange(step, lo_, hi_);
        shared_->Recycle(std::move(frontier), lo_, hi_);
        frontier = std::move(step);
      }
      StarRounds().Add(rounds);
      obs::TraceAddCount("star_rounds", rounds);
      shared_->Recycle(std::move(frontier), lo_, hi_);
      return reached;
    }
  }
  XPTC_CHECK(false) << "bad path op";
  return Bitset(tree_.size());
}

Bitset Evaluator::EvalFwdTmp(const PathExpr& path, const Bitset& sources) {
  switch (path.op) {
    case PathOp::kAxis: {
      Bitset out = shared_->Acquire();
      AxisImageInto(path.axis, sources, &out);
      return out;
    }
    case PathOp::kSeq: {
      Bitset mid = EvalFwdTmp(*path.left, sources);
      Bitset out = EvalFwdTmp(*path.right, mid);
      shared_->Recycle(std::move(mid), lo_, hi_);
      return out;
    }
    case PathOp::kUnion: {
      Bitset out = EvalFwdTmp(*path.left, sources);
      Bitset other = EvalFwdTmp(*path.right, sources);
      out.OrRange(other, lo_, hi_);
      shared_->Recycle(std::move(other), lo_, hi_);
      return out;
    }
    case PathOp::kFilter: {
      Bitset out = EvalFwdTmp(*path.left, sources);
      out.AndRange(EvalNodeRef(*path.pred), lo_, hi_);
      return out;
    }
    case PathOp::kStar: {
      // Closure fast path — the forward mirror of EvalBackTmp's.
      Axis closure;
      if (axis::ClosureCollapseEnabled() && path.left->op == PathOp::kAxis &&
          TransitiveClosureAxis(path.left->axis, &closure)) {
        Bitset out = shared_->Acquire();
        AxisImageInto(closure, sources, &out);
        out.OrRange(sources, lo_, hi_);
        return out;
      }
      Bitset reached = shared_->Acquire();
      reached.CopyRange(sources, lo_, hi_);
      Bitset frontier = shared_->Acquire();
      frontier.CopyRange(sources, lo_, hi_);
      int64_t rounds = 0;
      while (frontier.AnyInRange(lo_, hi_)) {
        ++rounds;
        Bitset step = EvalFwdTmp(*path.left, frontier);
        if (step.IsSubsetOfRange(reached, lo_, hi_)) {
          shared_->Recycle(std::move(step), lo_, hi_);
          break;
        }
        step.SubtractRange(reached, lo_, hi_);
        reached.OrRange(step, lo_, hi_);
        shared_->Recycle(std::move(frontier), lo_, hi_);
        frontier = std::move(step);
      }
      StarRounds().Add(rounds);
      obs::TraceAddCount("star_rounds", rounds);
      shared_->Recycle(std::move(frontier), lo_, hi_);
      return reached;
    }
  }
  XPTC_CHECK(false) << "bad path op";
  return Bitset(tree_.size());
}

Bitset Evaluator::EvalBack(const PathExpr& path, const Bitset& targets) {
  return EvalBackTmp(path, targets);
}

Bitset Evaluator::EvalFwd(const PathExpr& path, const Bitset& sources) {
  return EvalFwdTmp(path, sources);
}

// ---------------------------------------------------------------------------
// Convenience wrappers.

Bitset EvalNodeSet(const Tree& tree, const NodeExpr& node) {
  Evaluator evaluator(tree);
  return evaluator.EvalNode(node);
}

std::vector<NodeId> EvalPathFrom(const Tree& tree, const PathExpr& path,
                                 NodeId context) {
  Evaluator evaluator(tree);
  Bitset sources(tree.size());
  sources.Set(context);
  Bitset out = evaluator.EvalFwd(path, sources);
  std::vector<int> ids = out.ToVector();
  return std::vector<NodeId>(ids.begin(), ids.end());
}

bool EvalNodeAt(const Tree& tree, const NodeExpr& node, NodeId v) {
  return EvalNodeSet(tree, node).Get(v);
}

}  // namespace xptc
