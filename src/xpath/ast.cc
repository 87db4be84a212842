#include "xpath/ast.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"

namespace xptc {

Axis InverseAxis(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
      return Axis::kSelf;
    case Axis::kChild:
      return Axis::kParent;
    case Axis::kParent:
      return Axis::kChild;
    case Axis::kDescendant:
      return Axis::kAncestor;
    case Axis::kAncestor:
      return Axis::kDescendant;
    case Axis::kDescendantOrSelf:
      return Axis::kAncestorOrSelf;
    case Axis::kAncestorOrSelf:
      return Axis::kDescendantOrSelf;
    case Axis::kNextSibling:
      return Axis::kPrevSibling;
    case Axis::kPrevSibling:
      return Axis::kNextSibling;
    case Axis::kFollowingSibling:
      return Axis::kPrecedingSibling;
    case Axis::kPrecedingSibling:
      return Axis::kFollowingSibling;
    case Axis::kFollowing:
      return Axis::kPreceding;
    case Axis::kPreceding:
      return Axis::kFollowing;
  }
  XPTC_CHECK(false) << "bad axis";
  return Axis::kSelf;
}

bool IsDownwardAxis(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
    case Axis::kChild:
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      return true;
    default:
      return false;
  }
}

bool IsForwardAxis(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
    case Axis::kChild:
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
    case Axis::kNextSibling:
    case Axis::kFollowingSibling:
    case Axis::kFollowing:
      return true;
    default:
      return false;
  }
}

bool IsTransitiveAxis(Axis axis) {
  switch (axis) {
    case Axis::kDescendant:
    case Axis::kAncestor:
    case Axis::kDescendantOrSelf:
    case Axis::kAncestorOrSelf:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
    case Axis::kFollowing:
    case Axis::kPreceding:
      return true;
    default:
      return false;
  }
}

bool TransitiveClosureAxis(Axis axis, Axis* closure) {
  switch (axis) {
    case Axis::kChild:
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      *closure = Axis::kDescendant;
      return true;
    case Axis::kParent:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
      *closure = Axis::kAncestor;
      return true;
    case Axis::kNextSibling:
    case Axis::kFollowingSibling:
      *closure = Axis::kFollowingSibling;
      return true;
    case Axis::kPrevSibling:
    case Axis::kPrecedingSibling:
      *closure = Axis::kPrecedingSibling;
      return true;
    default:
      return false;
  }
}

const char* AxisToString(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
      return "self";
    case Axis::kChild:
      return "child";
    case Axis::kParent:
      return "parent";
    case Axis::kDescendant:
      return "desc";
    case Axis::kAncestor:
      return "anc";
    case Axis::kDescendantOrSelf:
      return "dos";
    case Axis::kAncestorOrSelf:
      return "aos";
    case Axis::kNextSibling:
      return "right";
    case Axis::kPrevSibling:
      return "left";
    case Axis::kFollowingSibling:
      return "fsib";
    case Axis::kPrecedingSibling:
      return "psib";
    case Axis::kFollowing:
      return "foll";
    case Axis::kPreceding:
      return "prec";
  }
  return "?";
}

std::optional<Axis> AxisFromString(std::string_view name) {
  static constexpr Axis kAll[] = {
      Axis::kSelf,           Axis::kChild,          Axis::kParent,
      Axis::kDescendant,     Axis::kAncestor,       Axis::kDescendantOrSelf,
      Axis::kAncestorOrSelf, Axis::kNextSibling,    Axis::kPrevSibling,
      Axis::kFollowingSibling, Axis::kPrecedingSibling, Axis::kFollowing,
      Axis::kPreceding,
  };
  for (Axis axis : kAll) {
    if (name == AxisToString(axis)) return axis;
  }
  return std::nullopt;
}

namespace {

// Explicit-stack teardown shared by both expression destructors. Each
// popped pointer whose refcount we hold exclusively has its children moved
// onto the worklist first, so its own destructor (which runs as the local
// shared_ptr drops) finds only null links and returns at once — constant
// stack depth however deep the expression. Shared subexpressions
// (use_count > 1) are left to their last owner, which restarts the same
// drain. The worklist lives on the destructor's stack: an inline buffer
// holds the pending subexpressions (a depth-first drain keeps about one
// per level of a balanced expression, two along a chain), and only an
// unusually wide and deep expression spills to the heap.
class TeardownQueue {
 public:
  void TakeFrom(PathExpr* e) {
    if (e->left) Push({std::move(e->left), nullptr});
    if (e->right) Push({std::move(e->right), nullptr});
    if (e->pred) Push({nullptr, std::move(e->pred)});
  }
  void TakeFrom(NodeExpr* e) {
    if (e->left) Push({nullptr, std::move(e->left)});
    if (e->right) Push({nullptr, std::move(e->right)});
    if (e->path) Push({std::move(e->path), nullptr});
  }
  void Drain() {
    while (size_ > 0 || !spill_.empty()) {
      Pending top;
      if (!spill_.empty()) {
        top = std::move(spill_.back());
        spill_.pop_back();
      } else {
        top = std::move(inline_[--size_]);
      }
      // Sole owner: safe to strip children (the object is dying now, and
      // Make* never produces a const object, so the cast is legal).
      if (top.path != nullptr && top.path.use_count() == 1) {
        TakeFrom(const_cast<PathExpr*>(top.path.get()));
      } else if (top.node != nullptr && top.node.use_count() == 1) {
        TakeFrom(const_cast<NodeExpr*>(top.node.get()));
      }
    }
  }

 private:
  // Exactly one of the two is set.
  struct Pending {
    PathPtr path;
    NodePtr node;
  };
  static constexpr int kInline = 16;

  void Push(Pending p) {
    if (size_ < kInline && spill_.empty()) {
      inline_[size_++] = std::move(p);
    } else {
      spill_.push_back(std::move(p));
    }
  }

  Pending inline_[kInline];
  int size_ = 0;
  std::vector<Pending> spill_;
};

}  // namespace

PathExpr::~PathExpr() {
  if (!left && !right && !pred) return;
  TeardownQueue q;
  q.TakeFrom(this);
  q.Drain();
}

NodeExpr::~NodeExpr() {
  if (!left && !right && !path) return;
  TeardownQueue q;
  q.TakeFrom(this);
  q.Drain();
}

PathPtr MakeAxis(Axis axis) {
  auto e = std::make_shared<PathExpr>();
  e->op = PathOp::kAxis;
  e->axis = axis;
  return e;
}

PathPtr MakeSeq(PathPtr left, PathPtr right) {
  XPTC_CHECK(left && right);
  auto e = std::make_shared<PathExpr>();
  e->op = PathOp::kSeq;
  e->left = std::move(left);
  e->right = std::move(right);
  return e;
}

PathPtr MakeUnion(PathPtr left, PathPtr right) {
  XPTC_CHECK(left && right);
  auto e = std::make_shared<PathExpr>();
  e->op = PathOp::kUnion;
  e->left = std::move(left);
  e->right = std::move(right);
  return e;
}

PathPtr MakeFilter(PathPtr path, NodePtr pred) {
  XPTC_CHECK(path && pred);
  auto e = std::make_shared<PathExpr>();
  e->op = PathOp::kFilter;
  e->left = std::move(path);
  e->pred = std::move(pred);
  return e;
}

PathPtr MakeStar(PathPtr path) {
  XPTC_CHECK(path != nullptr);
  auto e = std::make_shared<PathExpr>();
  e->op = PathOp::kStar;
  e->left = std::move(path);
  return e;
}

NodePtr MakeLabel(Symbol label) {
  XPTC_CHECK_GE(label, 0);
  auto e = std::make_shared<NodeExpr>();
  e->op = NodeOp::kLabel;
  e->label = label;
  return e;
}

NodePtr MakeTrue() {
  auto e = std::make_shared<NodeExpr>();
  e->op = NodeOp::kTrue;
  return e;
}

NodePtr MakeNot(NodePtr arg) {
  XPTC_CHECK(arg != nullptr);
  auto e = std::make_shared<NodeExpr>();
  e->op = NodeOp::kNot;
  e->left = std::move(arg);
  return e;
}

NodePtr MakeAnd(NodePtr left, NodePtr right) {
  XPTC_CHECK(left && right);
  auto e = std::make_shared<NodeExpr>();
  e->op = NodeOp::kAnd;
  e->left = std::move(left);
  e->right = std::move(right);
  return e;
}

NodePtr MakeOr(NodePtr left, NodePtr right) {
  XPTC_CHECK(left && right);
  auto e = std::make_shared<NodeExpr>();
  e->op = NodeOp::kOr;
  e->left = std::move(left);
  e->right = std::move(right);
  return e;
}

NodePtr MakeSome(PathPtr path) {
  XPTC_CHECK(path != nullptr);
  auto e = std::make_shared<NodeExpr>();
  e->op = NodeOp::kSome;
  e->path = std::move(path);
  return e;
}

NodePtr MakeWithin(NodePtr arg) {
  XPTC_CHECK(arg != nullptr);
  auto e = std::make_shared<NodeExpr>();
  e->op = NodeOp::kWithin;
  e->left = std::move(arg);
  return e;
}

NodePtr MakeFalse() { return MakeNot(MakeTrue()); }
NodePtr MakeRootTest() { return MakeNot(MakeSome(MakeAxis(Axis::kParent))); }
NodePtr MakeLeafTest() { return MakeNot(MakeSome(MakeAxis(Axis::kChild))); }
PathPtr MakeTest(NodePtr pred) {
  return MakeFilter(MakeAxis(Axis::kSelf), std::move(pred));
}
PathPtr MakePlus(PathPtr path) { return MakeSeq(path, MakeStar(path)); }

int PathSize(const PathExpr& path) {
  switch (path.op) {
    case PathOp::kAxis:
      return 1;
    case PathOp::kSeq:
    case PathOp::kUnion:
      return 1 + PathSize(*path.left) + PathSize(*path.right);
    case PathOp::kFilter:
      return 1 + PathSize(*path.left) + NodeSize(*path.pred);
    case PathOp::kStar:
      return 1 + PathSize(*path.left);
  }
  return 0;
}

int NodeSize(const NodeExpr& node) {
  switch (node.op) {
    case NodeOp::kLabel:
    case NodeOp::kTrue:
      return 1;
    case NodeOp::kNot:
    case NodeOp::kWithin:
      return 1 + NodeSize(*node.left);
    case NodeOp::kAnd:
    case NodeOp::kOr:
      return 1 + NodeSize(*node.left) + NodeSize(*node.right);
    case NodeOp::kSome:
      return 1 + PathSize(*node.path);
  }
  return 0;
}

int PathWithinDepth(const PathExpr& path) {
  switch (path.op) {
    case PathOp::kAxis:
      return 0;
    case PathOp::kSeq:
    case PathOp::kUnion:
      return std::max(PathWithinDepth(*path.left),
                      PathWithinDepth(*path.right));
    case PathOp::kFilter:
      return std::max(PathWithinDepth(*path.left),
                      NodeWithinDepth(*path.pred));
    case PathOp::kStar:
      return PathWithinDepth(*path.left);
  }
  return 0;
}

int NodeWithinDepth(const NodeExpr& node) {
  switch (node.op) {
    case NodeOp::kLabel:
    case NodeOp::kTrue:
      return 0;
    case NodeOp::kNot:
      return NodeWithinDepth(*node.left);
    case NodeOp::kWithin:
      return 1 + NodeWithinDepth(*node.left);
    case NodeOp::kAnd:
    case NodeOp::kOr:
      return std::max(NodeWithinDepth(*node.left),
                      NodeWithinDepth(*node.right));
    case NodeOp::kSome:
      return PathWithinDepth(*node.path);
  }
  return 0;
}

bool PathEquals(const PathExpr& a, const PathExpr& b) {
  if (&a == &b) return true;
  if (a.op != b.op) return false;
  switch (a.op) {
    case PathOp::kAxis:
      return a.axis == b.axis;
    case PathOp::kSeq:
    case PathOp::kUnion:
      return PathEquals(*a.left, *b.left) && PathEquals(*a.right, *b.right);
    case PathOp::kFilter:
      return PathEquals(*a.left, *b.left) && NodeEquals(*a.pred, *b.pred);
    case PathOp::kStar:
      return PathEquals(*a.left, *b.left);
  }
  return false;
}

bool NodeEquals(const NodeExpr& a, const NodeExpr& b) {
  if (&a == &b) return true;
  if (a.op != b.op) return false;
  switch (a.op) {
    case NodeOp::kLabel:
      return a.label == b.label;
    case NodeOp::kTrue:
      return true;
    case NodeOp::kNot:
    case NodeOp::kWithin:
      return NodeEquals(*a.left, *b.left);
    case NodeOp::kAnd:
    case NodeOp::kOr:
      return NodeEquals(*a.left, *b.left) && NodeEquals(*a.right, *b.right);
    case NodeOp::kSome:
      return PathEquals(*a.path, *b.path);
  }
  return false;
}

namespace {
size_t CombineHash(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}
}  // namespace

size_t PathHash(const PathExpr& path) {
  size_t h = CombineHash(0x517cc1b7u, static_cast<size_t>(path.op));
  switch (path.op) {
    case PathOp::kAxis:
      return CombineHash(h, static_cast<size_t>(path.axis));
    case PathOp::kSeq:
    case PathOp::kUnion:
      return CombineHash(CombineHash(h, PathHash(*path.left)),
                         PathHash(*path.right));
    case PathOp::kFilter:
      return CombineHash(CombineHash(h, PathHash(*path.left)),
                         NodeHash(*path.pred));
    case PathOp::kStar:
      return CombineHash(h, PathHash(*path.left));
  }
  return h;
}

ShallowKey ShallowKeyOf(const PathExpr& path) {
  return ShallowKey{static_cast<int>(path.op), static_cast<int>(path.axis),
                    path.left.get(), path.right.get(), path.pred.get()};
}

ShallowKey ShallowKeyOf(const NodeExpr& node) {
  return ShallowKey{static_cast<int>(node.op), static_cast<int>(node.label),
                    node.left.get(), node.right.get(), node.path.get()};
}

size_t ShallowKeyHash::operator()(const ShallowKey& key) const {
  size_t h = CombineHash(static_cast<size_t>(key.op),
                         static_cast<size_t>(key.tag));
  h = CombineHash(h, reinterpret_cast<size_t>(key.a));
  h = CombineHash(h, reinterpret_cast<size_t>(key.b));
  return CombineHash(h, reinterpret_cast<size_t>(key.c));
}

size_t NodeHash(const NodeExpr& node) {
  size_t h = CombineHash(0x9e3779b9u, static_cast<size_t>(node.op));
  switch (node.op) {
    case NodeOp::kLabel:
      return CombineHash(h, static_cast<size_t>(node.label));
    case NodeOp::kTrue:
      return h;
    case NodeOp::kNot:
    case NodeOp::kWithin:
      return CombineHash(h, NodeHash(*node.left));
    case NodeOp::kAnd:
    case NodeOp::kOr:
      return CombineHash(CombineHash(h, NodeHash(*node.left)),
                         NodeHash(*node.right));
    case NodeOp::kSome:
      return CombineHash(h, PathHash(*node.path));
  }
  return h;
}

namespace {

// Printer with precedence: union (lowest) < seq < postfix (filter/star) <
// atom. Node side: or < and < not < atom.
void PrintPath(const PathExpr& path, const Alphabet& alphabet, int parent_prec,
               std::string* out);
void PrintNode(const NodeExpr& node, const Alphabet& alphabet, int parent_prec,
               std::string* out);

void PrintPath(const PathExpr& path, const Alphabet& alphabet, int parent_prec,
               std::string* out) {
  // Precedence levels: 0 = union, 1 = seq, 2 = postfix/atom.
  switch (path.op) {
    case PathOp::kAxis:
      *out += AxisToString(path.axis);
      return;
    case PathOp::kUnion: {
      // Binary operators print left-associatively: the right operand is
      // rendered at one level higher so right-nested trees keep their
      // parentheses and round-trip structurally.
      const bool parens = parent_prec > 0;
      if (parens) *out += '(';
      PrintPath(*path.left, alphabet, 0, out);
      *out += " | ";
      PrintPath(*path.right, alphabet, 1, out);
      if (parens) *out += ')';
      return;
    }
    case PathOp::kSeq: {
      const bool parens = parent_prec > 1;
      if (parens) *out += '(';
      PrintPath(*path.left, alphabet, 1, out);
      *out += '/';
      PrintPath(*path.right, alphabet, 2, out);
      if (parens) *out += ')';
      return;
    }
    case PathOp::kFilter:
      PrintPath(*path.left, alphabet, 2, out);
      *out += '[';
      PrintNode(*path.pred, alphabet, 0, out);
      *out += ']';
      return;
    case PathOp::kStar:
      PrintPath(*path.left, alphabet, 2, out);
      *out += '*';
      return;
  }
}

void PrintNode(const NodeExpr& node, const Alphabet& alphabet, int parent_prec,
               std::string* out) {
  // Precedence levels: 0 = or, 1 = and, 2 = not/atom.
  switch (node.op) {
    case NodeOp::kLabel:
      *out += alphabet.Name(node.label);
      return;
    case NodeOp::kTrue:
      *out += "true";
      return;
    case NodeOp::kOr: {
      const bool parens = parent_prec > 0;
      if (parens) *out += '(';
      PrintNode(*node.left, alphabet, 0, out);
      *out += " or ";
      PrintNode(*node.right, alphabet, 1, out);
      if (parens) *out += ')';
      return;
    }
    case NodeOp::kAnd: {
      const bool parens = parent_prec > 1;
      if (parens) *out += '(';
      PrintNode(*node.left, alphabet, 1, out);
      *out += " and ";
      PrintNode(*node.right, alphabet, 2, out);
      if (parens) *out += ')';
      return;
    }
    case NodeOp::kNot:
      *out += "not ";
      PrintNode(*node.left, alphabet, 2, out);
      return;
    case NodeOp::kWithin:
      *out += "W(";
      PrintNode(*node.left, alphabet, 0, out);
      *out += ')';
      return;
    case NodeOp::kSome:
      *out += '<';
      PrintPath(*node.path, alphabet, 0, out);
      *out += '>';
      return;
  }
}

}  // namespace

std::string PathToString(const PathExpr& path, const Alphabet& alphabet) {
  std::string out;
  PrintPath(path, alphabet, 0, &out);
  return out;
}

std::string NodeToString(const NodeExpr& node, const Alphabet& alphabet) {
  std::string out;
  PrintNode(node, alphabet, 0, &out);
  return out;
}

PathPtr ConversePath(const PathPtr& path) {
  XPTC_CHECK(path != nullptr);
  switch (path->op) {
    case PathOp::kAxis:
      return MakeAxis(InverseAxis(path->axis));
    case PathOp::kSeq:
      // (p/q)⁻¹ = q⁻¹/p⁻¹
      return MakeSeq(ConversePath(path->right), ConversePath(path->left));
    case PathOp::kUnion:
      return MakeUnion(ConversePath(path->left), ConversePath(path->right));
    case PathOp::kFilter:
      // (p[φ])⁻¹ = ?φ / p⁻¹  — the source of the converse pair must satisfy
      // φ, since it was the filtered target.
      return MakeSeq(MakeTest(path->pred), ConversePath(path->left));
    case PathOp::kStar:
      return MakeStar(ConversePath(path->left));
  }
  XPTC_CHECK(false) << "bad path op";
  return nullptr;
}

void CollectPathLabels(const PathExpr& path, std::set<Symbol>* out) {
  switch (path.op) {
    case PathOp::kAxis:
      return;
    case PathOp::kSeq:
    case PathOp::kUnion:
      CollectPathLabels(*path.left, out);
      CollectPathLabels(*path.right, out);
      return;
    case PathOp::kFilter:
      CollectPathLabels(*path.left, out);
      CollectNodeLabels(*path.pred, out);
      return;
    case PathOp::kStar:
      CollectPathLabels(*path.left, out);
      return;
  }
}

void CollectNodeLabels(const NodeExpr& node, std::set<Symbol>* out) {
  switch (node.op) {
    case NodeOp::kLabel:
      out->insert(node.label);
      return;
    case NodeOp::kTrue:
      return;
    case NodeOp::kNot:
    case NodeOp::kWithin:
      CollectNodeLabels(*node.left, out);
      return;
    case NodeOp::kAnd:
    case NodeOp::kOr:
      CollectNodeLabels(*node.left, out);
      CollectNodeLabels(*node.right, out);
      return;
    case NodeOp::kSome:
      CollectPathLabels(*node.path, out);
      return;
  }
}

}  // namespace xptc
