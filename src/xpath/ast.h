#ifndef XPTC_XPATH_AST_H_
#define XPTC_XPATH_AST_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/alphabet.h"

namespace xptc {

/// The thirteen navigational axes of Core XPath 1.0. Transitive axes are
/// primitives here (as in Core XPath); Regular XPath additionally closes
/// path expressions under Kleene star (`PathOp::kStar`).
enum class Axis {
  kSelf,
  kChild,
  kParent,
  kDescendant,        // child+
  kAncestor,          // parent+
  kDescendantOrSelf,  // child*
  kAncestorOrSelf,    // parent*
  kNextSibling,       // immediate right sibling
  kPrevSibling,       // immediate left sibling
  kFollowingSibling,  // next-sibling+
  kPrecedingSibling,  // prev-sibling+
  kFollowing,         // after in document order, not a descendant
  kPreceding,         // before in document order, not an ancestor
};

inline constexpr int kNumAxes = 13;

/// The converse axis: [[InverseAxis(a)]] = [[a]]⁻¹ on every tree.
Axis InverseAxis(Axis axis);

/// Axes that never leave the subtree of the context node.
bool IsDownwardAxis(Axis axis);

/// Axes that only move forward in document order (used by fragment
/// classification).
bool IsForwardAxis(Axis axis);

/// Axes denoting transitive relations (descendant, ancestor, the
/// or-self closures, following/preceding-sibling, following, preceding).
bool IsTransitiveAxis(Axis axis);

/// If the reflexive-transitive closure of `axis` is expressible as a single
/// axis image plus the reflexive seed — i.e. [[axis*]] = id ∪ [[t]] for
/// some structure axis `t` with a one-pass streaming kernel — stores `t`
/// and returns true. This is what lets a star loop over a bare axis step
/// collapse to one closure kernel: child*/desc*/dos* → descendant,
/// parent*/anc*/aos* → ancestor, right*/fsib* → fsib, left*/psib* → psib.
/// False for self (trivial: self* = self) and for following/preceding
/// (no dedicated closure kernel — their one-shot images are already O(1)
/// range writes and their stars are folded at plan level).
bool TransitiveClosureAxis(Axis axis, Axis* closure);

/// Short stable name used by the parser and printer:
/// self child parent desc anc dos aos right left fsib psib foll prec.
const char* AxisToString(Axis axis);
std::optional<Axis> AxisFromString(std::string_view name);

enum class PathOp {
  kAxis,    // a primitive step
  kSeq,     // composition p/q
  kUnion,   // p | q
  kFilter,  // p[φ]  — keeps pairs whose *target* satisfies φ
  kStar,    // p*    — reflexive-transitive closure (Regular XPath)
};

enum class NodeOp {
  kLabel,   // propositional letter / element name test
  kTrue,    // ⊤
  kNot,     // ¬φ
  kAnd,     // φ ∧ ψ
  kOr,      // φ ∨ ψ
  kSome,    // ⟨p⟩ — some node is reachable via p
  kWithin,  // W φ — φ holds here inside the subtree rooted here
};

struct PathExpr;
struct NodeExpr;

/// Expressions are immutable and shared; structurally equal subexpressions
/// may or may not be pointer-equal (no hash-consing).
using PathPtr = std::shared_ptr<const PathExpr>;
using NodePtr = std::shared_ptr<const NodeExpr>;

/// A path expression: denotes a binary relation over tree nodes.
///
/// The destructor tears the ownership graph down iteratively (explicit
/// worklist, ast.cc): a left-deep chain just under the parser's token cap
/// is ~10k nodes, which the default recursive shared_ptr teardown turns
/// into ~10k stack frames — an overflow under sanitizer-sized frames.
struct PathExpr {
  ~PathExpr();
  PathOp op;
  Axis axis = Axis::kSelf;  // kAxis
  PathPtr left;             // kSeq, kUnion, kFilter, kStar
  PathPtr right;            // kSeq, kUnion
  NodePtr pred;             // kFilter
};

/// A node expression: denotes a set of tree nodes. Destructor as above.
struct NodeExpr {
  ~NodeExpr();
  NodeOp op;
  Symbol label = kInvalidSymbol;  // kLabel
  NodePtr left;                   // kNot, kAnd, kOr, kWithin
  NodePtr right;                  // kAnd, kOr
  PathPtr path;                   // kSome
};

// ---------------------------------------------------------------------------
// Factory functions (the only way expressions are built).

PathPtr MakeAxis(Axis axis);
PathPtr MakeSeq(PathPtr left, PathPtr right);
PathPtr MakeUnion(PathPtr left, PathPtr right);
PathPtr MakeFilter(PathPtr path, NodePtr pred);
PathPtr MakeStar(PathPtr path);

NodePtr MakeLabel(Symbol label);
NodePtr MakeTrue();
NodePtr MakeNot(NodePtr arg);
NodePtr MakeAnd(NodePtr left, NodePtr right);
NodePtr MakeOr(NodePtr left, NodePtr right);
NodePtr MakeSome(PathPtr path);
NodePtr MakeWithin(NodePtr arg);

// Derived forms (sugar used by the parser and generators).
NodePtr MakeFalse();                // ¬⊤
NodePtr MakeRootTest();             // ¬⟨parent⟩
NodePtr MakeLeafTest();             // ¬⟨child⟩
PathPtr MakeTest(NodePtr pred);     // ?φ := self[φ]
PathPtr MakePlus(PathPtr path);     // p+ := p/p*

// ---------------------------------------------------------------------------
// Structural utilities.

/// Per-call memo for a bottom-up walk over an expression DAG: `Get(child,
/// fn)` returns `fn(child)`. Past the first `kPlainVisits` children of a
/// walk it applies `fn` to a child held by more than one owner
/// (use_count > 1) once and then answers from the memo, so a DAG built by
/// sharing (the parser's p+ = p/p*) costs its distinct nodes, not its
/// unfolding, while a plan of ordinary size never touches the map. The
/// walks below (size, hash, fragment checks) and `W` confinement use it.
template <class V>
class SharedExprMemo {
 public:
  static constexpr int kPlainVisits = 4096;

  template <class Ptr, class Fn>
  V Get(const Ptr& child, Fn&& fn) {
    if (plain_visits_ < kPlainVisits || child.use_count() <= 1) {
      ++plain_visits_;
      return fn(child);
    }
    if (auto it = memo_.find(child.get()); it != memo_.end()) return it->second;
    V value = fn(child);
    memo_.emplace(child.get(), value);
    return value;
  }

 private:
  int plain_visits_ = 0;
  std::unordered_map<const void*, V> memo_;
};

/// Number of AST nodes of the unfolded tree (a standard size measure for
/// complexity sweeps); saturates at INT_MAX.
int PathSize(const PathExpr& path);
int NodeSize(const NodeExpr& node);

/// Maximum nesting depth of `W` operators (0 if none).
int PathWithinDepth(const PathExpr& path);
int NodeWithinDepth(const NodeExpr& node);

/// Structural equality (labels compared by symbol). Shared subexpressions
/// compare in O(1): a pointer-equal pair is equal without a walk.
bool PathEquals(const PathExpr& a, const PathExpr& b);
bool NodeEquals(const NodeExpr& a, const NodeExpr& b);

/// Structural hash consistent with the equality above.
size_t PathHash(const PathExpr& path);
size_t NodeHash(const NodeExpr& node);

/// An expression's own fields (op, axis or label) with its children by
/// address. Over hash-consed children, equal keys mean structurally equal
/// expressions, so a unique table keys on it and hashes O(1) per node.
struct ShallowKey {
  int op;
  int tag;  // PathExpr::axis or NodeExpr::label
  const void* a;
  const void* b;
  const void* c;
  bool operator==(const ShallowKey&) const = default;
};
ShallowKey ShallowKeyOf(const PathExpr& path);
ShallowKey ShallowKeyOf(const NodeExpr& node);
struct ShallowKeyHash {
  size_t operator()(const ShallowKey& key) const;
};

/// Pretty-printers producing the concrete syntax accepted by the parser
/// (round-trip safe).
std::string PathToString(const PathExpr& path, const Alphabet& alphabet);
std::string NodeToString(const NodeExpr& node, const Alphabet& alphabet);

/// Syntactic converse: [[ConversePath(p)]] = [[p]]⁻¹ on every tree. Total on
/// the full language (converse elimination — a closure lemma of the paper).
PathPtr ConversePath(const PathPtr& path);

/// Collects every label symbol mentioned in the expression.
void CollectPathLabels(const PathExpr& path, std::set<Symbol>* out);
void CollectNodeLabels(const NodeExpr& node, std::set<Symbol>* out);

}  // namespace xptc

#endif  // XPTC_XPATH_AST_H_
