#include "xpath/rewrite.h"

#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "xpath/fragment.h"

namespace xptc {

namespace {

bool IsSelf(const PathPtr& path) {
  return path->op == PathOp::kAxis && path->axis == Axis::kSelf;
}
bool IsTrueExpr(const NodePtr& node) { return node->op == NodeOp::kTrue; }
bool IsFalseExpr(const NodePtr& node) {
  return node->op == NodeOp::kNot && node->left->op == NodeOp::kTrue;
}

// The reflexive-transitive collapse of an axis, if it is again an axis
// (schemes `star-child`, `star-desc`, ..., `star-self`): child* = desc* =
// dos* = dos, parent* = anc* = aos* = aos, self* = self.
bool StarOfAxis(Axis axis, Axis* out) {
  switch (axis) {
    case Axis::kSelf:
      *out = Axis::kSelf;
      return true;
    case Axis::kChild:
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      *out = Axis::kDescendantOrSelf;
      return true;
    case Axis::kParent:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
      *out = Axis::kAncestorOrSelf;
      return true;
    default:
      return false;
  }
}

// Composition of two axes that is again an axis (only the idempotent
// transitive closures are folded; exhaustive pair tables are not worth it).
bool ComposeAxes(Axis a, Axis b, Axis* out) {
  // self/a = a/self = a (`seq-unit-left`, `seq-unit-right`).
  if (a == Axis::kSelf) {
    *out = b;
    return true;
  }
  if (b == Axis::kSelf) {
    *out = a;
    return true;
  }
  // dos/dos = dos, aos/aos = aos (`dos-dos`, `aos-aos`).
  if (a == b && (a == Axis::kDescendantOrSelf || a == Axis::kAncestorOrSelf)) {
    *out = a;
    return true;
  }
  // child/dos = dos/child = desc (`desc-decompose`, `dos-child`).
  if ((a == Axis::kChild && b == Axis::kDescendantOrSelf) ||
      (a == Axis::kDescendantOrSelf && b == Axis::kChild)) {
    *out = Axis::kDescendant;
    return true;
  }
  // parent/aos = aos/parent = anc (`parent-aos`, `aos-parent`).
  if ((a == Axis::kParent && b == Axis::kAncestorOrSelf) ||
      (a == Axis::kAncestorOrSelf && b == Axis::kParent)) {
    *out = Axis::kAncestor;
    return true;
  }
  return false;
}

// One simplification: a bottom-up walk whose node constructors are the
// rules. Every constructor takes canonical children (already simplified
// and hash-consed), applies its op's rules, and returns a canonical node;
// a rule that builds a new node builds it through the same constructors.
// So the walk returns the hash-consed normal form in one pass, and the
// idempotence rules compare pointers.
//
// A constructor that no rule fires on looks its key up in the unique
// table. On a miss it keeps the input node `as` when that node already has
// exactly these children (so an unchanged subexpression is returned as
// is), else it allocates. The table and the memo live for one call.
class Simplifier {
 public:
  NodePtr Node(const NodePtr& in) {
    // Only a shared input node can be reached twice; memoising those keeps
    // a DAG input linear (a tree input allocates no memo entry).
    const bool shared = in.use_count() > 1;
    if (shared) {
      if (auto it = node_memo_.find(in.get()); it != node_memo_.end()) {
        return it->second;
      }
    }
    NodePtr out;
    switch (in->op) {
      case NodeOp::kLabel:
      case NodeOp::kTrue:
        out = Unique(in->op, in->label, nullptr, nullptr, nullptr, in);
        break;
      case NodeOp::kNot:
        out = Not(Node(in->left), in);
        break;
      case NodeOp::kAnd:
        out = And(Node(in->left), Node(in->right), in);
        break;
      case NodeOp::kOr:
        out = Or(Node(in->left), Node(in->right), in);
        break;
      case NodeOp::kSome:
        out = Some(Path(in->path), in);
        break;
      case NodeOp::kWithin:
        out = Within(Node(in->left), in);
        break;
    }
    XPTC_CHECK(out != nullptr) << "bad node op";
    if (shared) node_memo_.emplace(in.get(), out);
    return out;
  }

  PathPtr Path(const PathPtr& in) {
    const bool shared = in.use_count() > 1;
    if (shared) {
      if (auto it = path_memo_.find(in.get()); it != path_memo_.end()) {
        return it->second;
      }
    }
    PathPtr out;
    switch (in->op) {
      case PathOp::kAxis:
        out = Step(in->axis, in);
        break;
      case PathOp::kSeq:
        out = Seq(Path(in->left), Path(in->right), in);
        break;
      case PathOp::kUnion:
        out = Union(Path(in->left), Path(in->right), in);
        break;
      case PathOp::kFilter:
        out = Filter(Path(in->left), Node(in->pred), in);
        break;
      case PathOp::kStar:
        out = Star(Path(in->left), in);
        break;
    }
    XPTC_CHECK(out != nullptr) << "bad path op";
    if (shared) path_memo_.emplace(in.get(), out);
    return out;
  }

 private:
  // ---- Path constructors.

  PathPtr Step(Axis axis, const PathPtr& as = nullptr) {
    return Unique(PathOp::kAxis, axis, nullptr, nullptr, nullptr, as);
  }

  PathPtr Seq(PathPtr l, PathPtr r, const PathPtr& as = nullptr) {
    if (IsSelf(l)) return r;  // `seq-unit-left`, `seq-unit-right`
    if (IsSelf(r)) return l;
    Axis folded;
    if (l->op == PathOp::kAxis && r->op == PathOp::kAxis &&
        ComposeAxes(l->axis, r->axis, &folded)) {
      return Step(folded);
    }
    // a/(b[φ]) ≡ (a/b)[φ]: fold through a trailing filter (`filter-seq`).
    // (a[φ])/b cannot fold: the filter constrains the intermediate node.
    if (l->op == PathOp::kAxis && r->op == PathOp::kFilter &&
        r->left->op == PathOp::kAxis &&
        ComposeAxes(l->axis, r->left->axis, &folded)) {
      return Filter(Step(folded), r->pred);
    }
    return Unique(PathOp::kSeq, Axis::kSelf, std::move(l), std::move(r),
                  nullptr, as);
  }

  PathPtr Union(PathPtr l, PathPtr r, const PathPtr& as = nullptr) {
    if (l == r) return l;  // `union-idem`
    return Unique(PathOp::kUnion, Axis::kSelf, std::move(l), std::move(r),
                  nullptr, as);
  }

  PathPtr Filter(PathPtr l, NodePtr pred, const PathPtr& as = nullptr) {
    if (IsTrueExpr(pred)) return l;  // `filter-true`
    // p[φ][ψ] ≡ p[φ ∧ ψ] (`filter-fuse`).
    if (l->op == PathOp::kFilter) {
      return Filter(l->left, And(l->pred, std::move(pred)));
    }
    return Unique(PathOp::kFilter, Axis::kSelf, std::move(l), nullptr,
                  std::move(pred), as);
  }

  PathPtr Star(PathPtr l, const PathPtr& as = nullptr) {
    if (l->op == PathOp::kStar) return l;  // p** ≡ p* (`star-star`)
    Axis folded;
    if (l->op == PathOp::kAxis && StarOfAxis(l->axis, &folded)) {
      return Step(folded);
    }
    return Unique(PathOp::kStar, Axis::kSelf, std::move(l), nullptr,
                  nullptr, as);
  }

  // ---- Node constructors.

  NodePtr True() {
    return Unique(NodeOp::kTrue, kInvalidSymbol, nullptr, nullptr, nullptr,
                  nullptr);
  }

  NodePtr Not(NodePtr arg, const NodePtr& as = nullptr) {
    if (arg->op == NodeOp::kNot) return arg->left;  // `double-negation`
    return Unique(NodeOp::kNot, kInvalidSymbol, std::move(arg), nullptr,
                  nullptr, as);
  }

  NodePtr And(NodePtr l, NodePtr r, const NodePtr& as = nullptr) {
    // `and-true-unit`, `and-false-zero`, `and-idem` (with `and-comm`).
    if (IsTrueExpr(l)) return r;
    if (IsTrueExpr(r)) return l;
    if (IsFalseExpr(l)) return l;
    if (IsFalseExpr(r)) return r;
    if (l == r) return l;
    return Unique(NodeOp::kAnd, kInvalidSymbol, std::move(l), std::move(r),
                  nullptr, as);
  }

  NodePtr Or(NodePtr l, NodePtr r, const NodePtr& as = nullptr) {
    // `or-true-zero`, `or-false-unit`, `or-idem` (with `or-comm`).
    if (IsTrueExpr(l)) return l;
    if (IsTrueExpr(r)) return r;
    if (IsFalseExpr(l)) return r;
    if (IsFalseExpr(r)) return l;
    if (l == r) return l;
    return Unique(NodeOp::kOr, kInvalidSymbol, std::move(l), std::move(r),
                  nullptr, as);
  }

  NodePtr Some(PathPtr p, const NodePtr& as = nullptr) {
    // ⟨a⟩ ≡ true for reflexive axes (self, dos, aos): their relations
    // contain the diagonal, so their domain is total (`some-self`,
    // `some-dos`, `some-aos`).
    if (p->op == PathOp::kAxis &&
        (p->axis == Axis::kSelf || p->axis == Axis::kDescendantOrSelf ||
         p->axis == Axis::kAncestorOrSelf)) {
      return True();
    }
    // ⟨self[φ]⟩ ≡ φ (`some-test`).
    if (p->op == PathOp::kFilter && IsSelf(p->left)) return p->pred;
    // ⟨p | q⟩ ≡ ⟨p⟩ ∨ ⟨q⟩ (`some-union`) — only kept when it does not grow
    // the expression (it enables the rules above on each side).
    if (p->op == PathOp::kUnion) {
      NodePtr candidate = Or(Some(p->left), Some(p->right));
      if (NodeSize(*candidate) <= 1 + PathSize(*p)) return candidate;
    }
    // ⟨p*⟩ ≡ true: the star is reflexive (`some-star`).
    if (p->op == PathOp::kStar) return True();
    // ⟨p[φ]⟩ with p = a plain axis whose domain is total is *not* folded:
    // axis domains are tree-dependent (e.g. ⟨child⟩ fails at leaves).
    return Unique(NodeOp::kSome, kInvalidSymbol, nullptr, nullptr,
                  std::move(p), as);
  }

  NodePtr Within(NodePtr arg, const NodePtr& as = nullptr) {
    // The paper's lemma: downward node expressions are already
    // relativised — Wφ ≡ φ when φ only looks into the subtree
    // (`within-downward`).
    if (IsDownwardNode(*arg)) return arg;
    if (arg->op == NodeOp::kWithin) return arg;  // WWφ ≡ Wφ (`within-idem`)
    return Unique(NodeOp::kWithin, kInvalidSymbol, std::move(arg), nullptr,
                  nullptr, as);
  }

  // ---- The unique table.

  NodePtr Unique(NodeOp op, Symbol label, NodePtr l, NodePtr r, PathPtr p,
                 const NodePtr& as) {
    auto [it, fresh] = nodes_.try_emplace(ShallowKey{
        static_cast<int>(op), label, l.get(), r.get(), p.get()});
    if (!fresh) return it->second;
    if (as != nullptr && as->left == l && as->right == r && as->path == p) {
      it->second = as;
    } else {
      auto e = std::make_shared<NodeExpr>();
      e->op = op;
      e->label = label;
      e->left = std::move(l);
      e->right = std::move(r);
      e->path = std::move(p);
      it->second = std::move(e);
    }
    return it->second;
  }

  PathPtr Unique(PathOp op, Axis axis, PathPtr l, PathPtr r,
                 NodePtr pred, const PathPtr& as) {
    auto [it, fresh] = paths_.try_emplace(
        ShallowKey{static_cast<int>(op), static_cast<int>(axis), l.get(),
                   r.get(), pred.get()});
    if (!fresh) return it->second;
    if (as != nullptr && as->left == l && as->right == r && as->pred == pred) {
      it->second = as;
    } else {
      auto e = std::make_shared<PathExpr>();
      e->op = op;
      e->axis = axis;
      e->left = std::move(l);
      e->right = std::move(r);
      e->pred = std::move(pred);
      it->second = std::move(e);
    }
    return it->second;
  }

  std::unordered_map<ShallowKey, NodePtr, ShallowKeyHash> nodes_;
  std::unordered_map<ShallowKey, PathPtr, ShallowKeyHash> paths_;
  // Shared input node → its simplified form, keyed by input address (the
  // caller holds the input for the whole call).
  std::unordered_map<const NodeExpr*, NodePtr> node_memo_;
  std::unordered_map<const PathExpr*, PathPtr> path_memo_;
};

}  // namespace

PathPtr SimplifyPath(const PathPtr& path) {
  XPTC_CHECK(path != nullptr);
  return Simplifier().Path(path);
}

NodePtr SimplifyNode(const NodePtr& node) {
  XPTC_CHECK(node != nullptr);
  return Simplifier().Node(node);
}

}  // namespace xptc
