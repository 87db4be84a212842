#include "xpath/rewrite.h"

#include <utility>

#include "common/check.h"
#include "xpath/fragment.h"

namespace xptc {

namespace {

bool IsAxisExpr(const PathPtr& path, Axis axis) {
  return path->op == PathOp::kAxis && path->axis == axis;
}
bool IsSelf(const PathPtr& path) { return IsAxisExpr(path, Axis::kSelf); }
bool IsTrueExpr(const NodePtr& node) { return node->op == NodeOp::kTrue; }
bool IsFalseExpr(const NodePtr& node) {
  return node->op == NodeOp::kNot && node->left->op == NodeOp::kTrue;
}

// One bottom-up simplification pass. Children are assumed simplified.
PathPtr SimplifyPathTop(PathPtr path);
NodePtr SimplifyNodeTop(NodePtr node);

// The reflexive-transitive collapse of an axis, if it is again an axis:
// child* = dos, parent* = aos, desc* = dos, anc* = aos, dos* = dos,
// aos* = aos, self* = self.
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
  if (a == Axis::kSelf) {
    *out = b;
    return true;
  }
  if (b == Axis::kSelf) {
    *out = a;
    return true;
  }
  if (a == b && (a == Axis::kDescendantOrSelf || a == Axis::kAncestorOrSelf)) {
    *out = a;
    return true;
  }
  // child/dos = dos/child = a prefix of descendant: child/dos ≡ desc and
  // dos/child ≡ desc.
  if ((a == Axis::kChild && b == Axis::kDescendantOrSelf) ||
      (a == Axis::kDescendantOrSelf && b == Axis::kChild)) {
    *out = Axis::kDescendant;
    return true;
  }
  if ((a == Axis::kParent && b == Axis::kAncestorOrSelf) ||
      (a == Axis::kAncestorOrSelf && b == Axis::kParent)) {
    *out = Axis::kAncestor;
    return true;
  }
  return false;
}

PathPtr SimplifyPathTop(PathPtr path) {
  switch (path->op) {
    case PathOp::kAxis:
      return path;
    case PathOp::kSeq: {
      const PathPtr& l = path->left;
      const PathPtr& r = path->right;
      if (IsSelf(l)) return r;
      if (IsSelf(r)) return l;
      if (l->op == PathOp::kAxis && r->op == PathOp::kAxis) {
        Axis folded;
        if (ComposeAxes(l->axis, r->axis, &folded)) return MakeAxis(folded);
      }
      // a/(b[φ]) ≡ (a/b)[φ]: fold through a trailing filter.
      if (l->op == PathOp::kAxis && r->op == PathOp::kFilter &&
          r->left->op == PathOp::kAxis) {
        Axis folded;
        if (ComposeAxes(l->axis, r->left->axis, &folded)) {
          return MakeFilter(MakeAxis(folded), r->pred);
        }
      }
      // (a[φ])/b cannot fold: the filter constrains the intermediate node.
      return path;
    }
    case PathOp::kUnion: {
      if (PathEquals(*path->left, *path->right)) return path->left;
      return path;
    }
    case PathOp::kFilter: {
      if (IsTrueExpr(path->pred)) return path->left;
      // Filter fusion: p[φ][ψ] → p[φ ∧ ψ].
      if (path->left->op == PathOp::kFilter) {
        return MakeFilter(path->left->left,
                          SimplifyNodeTop(MakeAnd(path->left->pred,
                                                  path->pred)));
      }
      return path;
    }
    case PathOp::kStar: {
      const PathPtr& inner = path->left;
      if (inner->op == PathOp::kStar) return inner;  // p** ≡ p*
      if (inner->op == PathOp::kAxis) {
        Axis folded;
        if (StarOfAxis(inner->axis, &folded)) return MakeAxis(folded);
      }
      return path;
    }
  }
  XPTC_CHECK(false) << "bad path op";
  return path;
}

NodePtr SimplifyNodeTop(NodePtr node) {
  switch (node->op) {
    case NodeOp::kLabel:
    case NodeOp::kTrue:
      return node;
    case NodeOp::kNot: {
      if (node->left->op == NodeOp::kNot) return node->left->left;  // ¬¬φ
      return node;
    }
    case NodeOp::kAnd: {
      const NodePtr& l = node->left;
      const NodePtr& r = node->right;
      if (IsTrueExpr(l)) return r;
      if (IsTrueExpr(r)) return l;
      if (IsFalseExpr(l)) return l;
      if (IsFalseExpr(r)) return r;
      if (NodeEquals(*l, *r)) return l;
      return node;
    }
    case NodeOp::kOr: {
      const NodePtr& l = node->left;
      const NodePtr& r = node->right;
      if (IsTrueExpr(l)) return l;
      if (IsTrueExpr(r)) return r;
      if (IsFalseExpr(l)) return r;
      if (IsFalseExpr(r)) return l;
      if (NodeEquals(*l, *r)) return l;
      return node;
    }
    case NodeOp::kSome: {
      const PathPtr& p = node->path;
      // ⟨a⟩ ≡ true for reflexive axes (self, dos, aos): their relations
      // contain the diagonal, so their domain is total.
      if (p->op == PathOp::kAxis &&
          (p->axis == Axis::kSelf || p->axis == Axis::kDescendantOrSelf ||
           p->axis == Axis::kAncestorOrSelf)) {
        return MakeTrue();
      }
      // ⟨self[φ]⟩ ≡ φ.
      if (p->op == PathOp::kFilter && IsSelf(p->left)) return p->pred;
      // ⟨p | q⟩ ≡ ⟨p⟩ ∨ ⟨q⟩ — only kept when it does not grow the
      // expression (it enables the simplifications above on each side).
      if (p->op == PathOp::kUnion) {
        NodePtr candidate =
            SimplifyNodeTop(MakeOr(SimplifyNodeTop(MakeSome(p->left)),
                                   SimplifyNodeTop(MakeSome(p->right))));
        if (NodeSize(*candidate) <= NodeSize(*node)) return candidate;
        return node;
      }
      // ⟨p*⟩ ≡ true (the star is reflexive, so the domain is everything).
      if (p->op == PathOp::kStar) return MakeTrue();
      // ⟨p[φ]⟩ with p = a plain axis whose domain is total is *not* folded:
      // axis domains are tree-dependent (e.g. ⟨child⟩ fails at leaves).
      return node;
    }
    case NodeOp::kWithin: {
      // The paper's lemma: downward node expressions are already
      // relativised — Wφ ≡ φ when φ only looks into the subtree.
      if (IsDownwardNode(*node->left)) return node->left;
      if (node->left->op == NodeOp::kWithin) return node->left;  // WWφ ≡ Wφ
      return node;
    }
  }
  XPTC_CHECK(false) << "bad node op";
  return node;
}

PathPtr SimplifyPathRec(const PathPtr& path);
NodePtr SimplifyNodeRec(const NodePtr& node);

// The recursive passes are copy-on-change: a node is rebuilt only when one
// of its children came back as a different object, so an already-simple
// subexpression is returned as is and a fixpoint pass allocates nothing.
PathPtr SimplifyPathRec(const PathPtr& path) {
  PathPtr out = path;
  switch (path->op) {
    case PathOp::kAxis:
      break;
    case PathOp::kSeq:
    case PathOp::kUnion: {
      PathPtr l = SimplifyPathRec(path->left);
      PathPtr r = SimplifyPathRec(path->right);
      if (l != path->left || r != path->right) {
        out = path->op == PathOp::kSeq ? MakeSeq(std::move(l), std::move(r))
                                       : MakeUnion(std::move(l), std::move(r));
      }
      break;
    }
    case PathOp::kFilter: {
      PathPtr l = SimplifyPathRec(path->left);
      NodePtr pred = SimplifyNodeRec(path->pred);
      if (l != path->left || pred != path->pred) {
        out = MakeFilter(std::move(l), std::move(pred));
      }
      break;
    }
    case PathOp::kStar: {
      PathPtr l = SimplifyPathRec(path->left);
      if (l != path->left) out = MakeStar(std::move(l));
      break;
    }
  }
  return SimplifyPathTop(std::move(out));
}

NodePtr SimplifyNodeRec(const NodePtr& node) {
  NodePtr out = node;
  switch (node->op) {
    case NodeOp::kLabel:
    case NodeOp::kTrue:
      break;
    case NodeOp::kNot:
    case NodeOp::kWithin: {
      NodePtr l = SimplifyNodeRec(node->left);
      if (l != node->left) {
        out = node->op == NodeOp::kNot ? MakeNot(std::move(l))
                                       : MakeWithin(std::move(l));
      }
      break;
    }
    case NodeOp::kAnd:
    case NodeOp::kOr: {
      NodePtr l = SimplifyNodeRec(node->left);
      NodePtr r = SimplifyNodeRec(node->right);
      if (l != node->left || r != node->right) {
        out = node->op == NodeOp::kAnd ? MakeAnd(std::move(l), std::move(r))
                                       : MakeOr(std::move(l), std::move(r));
      }
      break;
    }
    case NodeOp::kSome: {
      PathPtr p = SimplifyPathRec(node->path);
      if (p != node->path) out = MakeSome(std::move(p));
      break;
    }
  }
  return SimplifyNodeTop(std::move(out));
}

}  // namespace

PathPtr SimplifyPath(const PathPtr& path) {
  XPTC_CHECK(path != nullptr);
  PathPtr current = path;
  // Iterate to a fixpoint; each pass strictly shrinks or stabilizes, and
  // the iteration cap guards against rule-interaction cycles.
  for (int i = 0; i < 8; ++i) {
    PathPtr next = SimplifyPathRec(current);
    // Copy-on-change makes an unchanged pass return its input.
    if (next == current || PathEquals(*next, *current)) return next;
    current = std::move(next);
  }
  return current;
}

NodePtr SimplifyNode(const NodePtr& node) {
  XPTC_CHECK(node != nullptr);
  NodePtr current = node;
  for (int i = 0; i < 8; ++i) {
    NodePtr next = SimplifyNodeRec(current);
    if (next == current || NodeEquals(*next, *current)) return next;
    current = std::move(next);
  }
  return current;
}

}  // namespace xptc
