#include "exec/confine.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>

namespace xptc {
namespace exec {
namespace {

constexpr int kInf = std::numeric_limits<int>::max();

// Expression nodes one ConfineWindows call may analyse. Without stars a
// body is visited once; star fixpoints revisit theirs (a confined star is
// stable within three rounds), so only nested stars come near this, and a
// body past it keeps its `W`. Bounds the pre-pass at a few milliseconds.
constexpr int64_t kVisitBudget = int64_t{1} << 18;

// A depth interval [lo, hi] relative to the window root; hi may be kInf.
struct Depth {
  int lo = 0;
  int hi = 0;
  bool operator==(const Depth& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

int Shift(int depth, int by) { return depth == kInf ? kInf : depth + by; }

bool IsFalse(const NodePtr& node) {
  return node->op == NodeOp::kNot && node->left->op == NodeOp::kTrue;
}

class Confiner {
 public:
  Confiner(ConfineRules rules, std::vector<NodePtr>* dropped)
      : rules_(rules), dropped_(dropped) {}

  // Replaces each `W` under `node` by its confined form. Context-free: it
  // runs outside any window analysis, on the plan and on kept bodies.
  //
  // A node it rebuilds goes through the unique table (`Canon`), so a
  // subexpression the plan shares is rebuilt as one node and lowered once.
  NodePtr Rewrite(const NodePtr& node) {
    NodePtr result = RewriteNode(node);
    return result == node ? result : Canon(std::move(result), &nodes_);
  }

 private:
  NodePtr RewriteNode(const NodePtr& node) {
    switch (node->op) {
      case NodeOp::kLabel:
      case NodeOp::kTrue:
        return node;
      case NodeOp::kNot: {
        NodePtr l = Rewrite(node->left);
        return l == node->left ? node : MakeNot(std::move(l));
      }
      case NodeOp::kAnd:
      case NodeOp::kOr: {
        NodePtr l = Rewrite(node->left);
        NodePtr r = Rewrite(node->right);
        if (l == node->left && r == node->right) return node;
        return node->op == NodeOp::kAnd ? MakeAnd(std::move(l), std::move(r))
                                        : MakeOr(std::move(l), std::move(r));
      }
      case NodeOp::kSome: {
        PathPtr p = Rewrite(node->path);
        return p == node->path ? node : MakeSome(std::move(p));
      }
      case NodeOp::kWithin:
        return Within(node);
    }
    return node;
  }

  PathPtr Rewrite(const PathPtr& path) {
    PathPtr result = RewritePath(path);
    return result == path ? result : Canon(std::move(result), &paths_);
  }

  PathPtr RewritePath(const PathPtr& path) {
    switch (path->op) {
      case PathOp::kAxis:
        return path;
      case PathOp::kSeq:
      case PathOp::kUnion: {
        PathPtr l = Rewrite(path->left);
        PathPtr r = Rewrite(path->right);
        if (l == path->left && r == path->right) return path;
        return path->op == PathOp::kSeq
                   ? MakeSeq(std::move(l), std::move(r))
                   : MakeUnion(std::move(l), std::move(r));
      }
      case PathOp::kFilter: {
        PathPtr l = Rewrite(path->left);
        NodePtr pred = Rewrite(path->pred);
        if (l == path->left && pred == path->pred) return path;
        return MakeFilter(std::move(l), std::move(pred));
      }
      case PathOp::kStar: {
        PathPtr l = Rewrite(path->left);
        return l == path->left ? path : MakeStar(std::move(l));
      }
    }
    return path;
  }

  // `W φ` → φ' when φ is confined, else W over φ with its inner bodies
  // rewritten. Context-free, so memoised per W node.
  NodePtr Within(const NodePtr& within) {
    if (auto it = memo_.find(within.get()); it != memo_.end()) {
      return it->second;
    }
    const bool outer_left = left_;
    left_ = false;
    NodePtr result = Node(within->left, Depth{0, 0});
    if (!left_) {
      if (dropped_ != nullptr) dropped_->push_back(within->left);
    } else {
      NodePtr body = Rewrite(within->left);
      result = body == within->left ? within : MakeWithin(std::move(body));
    }
    left_ = outer_left;
    memo_.emplace(within.get(), result);
    return result;
  }

  // Counts one visit; false once the body leaves its window or the budget
  // is spent (the result is then discarded, so callers just unwind).
  bool Visit() {
    if (--budget_ < 0) left_ = true;
    return !left_;
  }

  // φ' for `node` evaluated at depths `at` of the window. Results go
  // through a unique table (`Canon`), so the analysis hands out one node
  // per structure: a step it rebuilds in two places (say two stars whose
  // bodies lost the same ∅ branch) is lowered once. Once the body leaves
  // its window the result is discarded, so it is not recorded.
  NodePtr Node(const NodePtr& node, Depth at) {
    NodePtr result = NodeAt(node, at);
    return left_ ? result : Canon(std::move(result), &nodes_);
  }

  NodePtr NodeAt(const NodePtr& node, Depth at) {
    if (!Visit()) return node;
    switch (node->op) {
      case NodeOp::kLabel:
      case NodeOp::kTrue:
        return node;
      case NodeOp::kNot: {
        NodePtr l = Node(node->left, at);
        return l == node->left ? node : MakeNot(std::move(l));
      }
      case NodeOp::kAnd:
      case NodeOp::kOr: {
        NodePtr l = Node(node->left, at);
        NodePtr r = Node(node->right, at);
        if (node->op == NodeOp::kOr) {  // φ ∨ false = φ
          if (IsFalse(r)) return l;
          if (IsFalse(l)) return r;
        }
        if (l == node->left && r == node->right) return node;
        return node->op == NodeOp::kAnd ? MakeAnd(std::move(l), std::move(r))
                                        : MakeOr(std::move(l), std::move(r));
      }
      case NodeOp::kSome: {
        Depth out;
        PathPtr p = Path(node->path, at, &out);
        if (p == nullptr) {  // ⟨∅⟩ = false, over the one `true` handed out
          return MakeNot(Canon(MakeTrue(), &nodes_));
        }
        return p == node->path ? node : MakeSome(std::move(p));
      }
      case NodeOp::kWithin:  // T|u ⊆ T|v: a nested W never leaves
        return Within(node);
    }
    return node;
  }

  // p' for `path` leaving from depths `in`, or nullptr for ∅ (empty in
  // the window); `*out` receives the targets' depths. As Node.
  PathPtr Path(const PathPtr& path, Depth in, Depth* out) {
    PathPtr result = PathAt(path, in, out);
    if (left_ || result == nullptr) return result;
    return Canon(std::move(result), &paths_);
  }

  // The node of `e`'s structure handed out first. Its children were
  // handed out already, so a shallow key decides.
  template <typename Ptr>
  static Ptr Canon(Ptr e,
                   std::unordered_map<ShallowKey, Ptr, ShallowKeyHash>* table) {
    return table->try_emplace(ShallowKeyOf(*e), std::move(e)).first->second;
  }

  PathPtr PathAt(const PathPtr& path, Depth in, Depth* out) {
    if (!Visit()) return path;
    switch (path->op) {
      case PathOp::kAxis:
        return Step(path, in, out);
      case PathOp::kSeq: {
        Depth mid;
        PathPtr l = Path(path->left, in, &mid);
        if (l == nullptr) return nullptr;  // ∅/p = ∅
        PathPtr r = Path(path->right, mid, out);
        if (r == nullptr) return nullptr;  // p/∅ = ∅
        if (l == path->left && r == path->right) return path;
        return MakeSeq(std::move(l), std::move(r));
      }
      case PathOp::kUnion: {
        Depth left_out, right_out;
        PathPtr l = Path(path->left, in, &left_out);
        PathPtr r = Path(path->right, in, &right_out);
        if (l == nullptr) {  // ∅ | p = p
          *out = right_out;
          return r;
        }
        if (r == nullptr) {
          *out = left_out;
          return l;
        }
        *out = Depth{std::min(left_out.lo, right_out.lo),
                     std::max(left_out.hi, right_out.hi)};
        if (l == path->left && r == path->right) return path;
        return MakeUnion(std::move(l), std::move(r));
      }
      case PathOp::kFilter: {
        PathPtr l = Path(path->left, in, out);
        if (l == nullptr) return nullptr;  // ∅[φ] = ∅
        NodePtr pred = Node(path->pred, *out);
        if (l == path->left && pred == path->pred) return path;
        return MakeFilter(std::move(l), std::move(pred));
      }
      case PathOp::kStar: {
        // The body is rewritten at the joined interval of all rounds,
        // which covers every depth a round can start from.
        Depth at = in;
        for (;;) {
          Depth step;
          PathPtr body = Path(path->left, at, &step);
          if (left_) return path;
          if (body == nullptr) {  // ∅* = self
            *out = in;
            return MakeAxis(Axis::kSelf);
          }
          const Depth next{std::min(at.lo, step.lo),
                           step.hi > at.hi ? kInf : at.hi};
          if (next == at) {
            *out = at;
            return body == path->left ? path : MakeStar(std::move(body));
          }
          at = next;
        }
      }
    }
    return path;
  }

  PathPtr Step(const PathPtr& step, Depth in, Depth* out) {
    switch (step->axis) {
      case Axis::kSelf:
        *out = in;
        return step;
      case Axis::kChild:
        *out = Depth{in.lo + 1, Shift(in.hi, 1)};
        return step;
      case Axis::kDescendant:
        *out = Depth{in.lo + 1, kInf};
        return step;
      case Axis::kDescendantOrSelf:
        *out = Depth{in.lo, kInf};
        return step;
      case Axis::kParent:
        if (in.lo >= 1) {
          *out = Depth{in.lo - 1, Shift(in.hi, -1)};
          return step;
        }
        break;
      case Axis::kNextSibling:
      case Axis::kPrevSibling:
      case Axis::kFollowingSibling:
      case Axis::kPrecedingSibling:
        // Below the root a node's siblings share its parent, which is in
        // the window.
        if (in.lo >= 1 || rules_ == ConfineRules::kSiblingsAlwaysInside) {
          *out = in;
          return step;
        }
        break;
      case Axis::kAncestorOrSelf:
        if (in.hi == 0) {  // the root has no ancestor in its window
          *out = in;
          return MakeAxis(Axis::kSelf);
        }
        left_ = true;
        return step;
      case Axis::kAncestor:
      case Axis::kFollowing:
      case Axis::kPreceding:
        break;
    }
    if (in.hi == 0) return nullptr;  // from the root: empty in the window
    left_ = true;
    return step;
  }

  ConfineRules rules_;
  std::vector<NodePtr>* dropped_;
  std::unordered_map<const NodeExpr*, NodePtr> memo_;  // W node → result
  std::unordered_map<ShallowKey, NodePtr, ShallowKeyHash> nodes_;
  std::unordered_map<ShallowKey, PathPtr, ShallowKeyHash> paths_;
  int64_t budget_ = kVisitBudget;
  bool left_ = false;  // the body under analysis leaves its window
};

}  // namespace

NodePtr ConfineWindows(const NodePtr& plan, ConfineRules rules,
                       std::vector<NodePtr>* dropped) {
  return Confiner(rules, dropped).Rewrite(plan);
}

}  // namespace exec
}  // namespace xptc
