#include "xpath/generator.h"

namespace xptc {

namespace {

Axis RandomAxis(const QueryGenOptions& options, Rng* rng) {
  static constexpr Axis kDownward[] = {
      Axis::kSelf,
      Axis::kChild,
      Axis::kDescendant,
      Axis::kDescendantOrSelf,
  };
  static constexpr Axis kAll[] = {
      Axis::kSelf,           Axis::kChild,          Axis::kParent,
      Axis::kDescendant,     Axis::kAncestor,       Axis::kDescendantOrSelf,
      Axis::kAncestorOrSelf, Axis::kNextSibling,    Axis::kPrevSibling,
      Axis::kFollowingSibling, Axis::kPrecedingSibling, Axis::kFollowing,
      Axis::kPreceding,
  };
  if (options.downward_only) {
    return kDownward[rng->NextBelow(std::size(kDownward))];
  }
  return kAll[rng->NextBelow(std::size(kAll))];
}

PathPtr GenPath(const QueryGenOptions& options,
                const std::vector<Symbol>& labels, int depth, Rng* rng);
NodePtr GenNode(const QueryGenOptions& options,
                const std::vector<Symbol>& labels, int depth, Rng* rng);

PathPtr GenPath(const QueryGenOptions& options,
                const std::vector<Symbol>& labels, int depth, Rng* rng) {
  if (depth <= 0) {
    PathPtr step = MakeAxis(RandomAxis(options, rng));
    return step;
  }
  // Weighted choice among constructors; weights keep expression sizes
  // moderate and favor composition (the common shape of real queries).
  const int choice = rng->NextInt(0, 9);
  switch (choice) {
    case 0:
    case 1:
    case 2: {  // step, possibly filtered
      PathPtr step = MakeAxis(RandomAxis(options, rng));
      if (rng->NextDouble() < options.filter_prob) {
        step = MakeFilter(step, GenNode(options, labels, depth - 1, rng));
      }
      return step;
    }
    case 3:
    case 4:
    case 5:  // composition
      return MakeSeq(GenPath(options, labels, depth - 1, rng),
                     GenPath(options, labels, depth - 1, rng));
    case 6:
    case 7:  // union
      return MakeUnion(GenPath(options, labels, depth - 1, rng),
                       GenPath(options, labels, depth - 1, rng));
    case 8:  // filter on a composite path
      return MakeFilter(GenPath(options, labels, depth - 1, rng),
                        GenNode(options, labels, depth - 1, rng));
    default:  // star (or a step when disabled)
      if (options.allow_star) {
        return MakeStar(GenPath(options, labels, depth - 1, rng));
      }
      return MakeAxis(RandomAxis(options, rng));
  }
}

NodePtr GenNode(const QueryGenOptions& options,
                const std::vector<Symbol>& labels, int depth, Rng* rng) {
  if (depth <= 0) {
    if (rng->NextBool(0.15)) return MakeTrue();
    return MakeLabel(labels[rng->NextBelow(labels.size())]);
  }
  const int choice = rng->NextInt(0, 9);
  switch (choice) {
    case 0:
    case 1:  // label atom
      return MakeLabel(labels[rng->NextBelow(labels.size())]);
    case 2:
    case 3:
    case 4:  // ⟨path⟩
      return MakeSome(GenPath(options, labels, depth - 1, rng));
    case 5:  // negation
      if (options.allow_negation) {
        return MakeNot(GenNode(options, labels, depth - 1, rng));
      }
      return MakeSome(GenPath(options, labels, depth - 1, rng));
    case 6:  // conjunction
      return MakeAnd(GenNode(options, labels, depth - 1, rng),
                     GenNode(options, labels, depth - 1, rng));
    case 7:  // disjunction
      return MakeOr(GenNode(options, labels, depth - 1, rng),
                    GenNode(options, labels, depth - 1, rng));
    case 8:  // W
      if (options.allow_within) {
        return MakeWithin(GenNode(options, labels, depth - 1, rng));
      }
      return MakeLabel(labels[rng->NextBelow(labels.size())]);
    default:
      return MakeTrue();
  }
}

bool PathHasStar(const PathExpr& path);
bool NodeHasStar(const NodeExpr& node);

bool PathHasStar(const PathExpr& path) {
  switch (path.op) {
    case PathOp::kStar:
      return true;
    case PathOp::kAxis:
      return false;
    case PathOp::kFilter:
      return PathHasStar(*path.left) || NodeHasStar(*path.pred);
    case PathOp::kSeq:
    case PathOp::kUnion:
      return PathHasStar(*path.left) || PathHasStar(*path.right);
  }
  return false;
}

bool NodeHasStar(const NodeExpr& node) {
  switch (node.op) {
    case NodeOp::kLabel:
    case NodeOp::kTrue:
      return false;
    case NodeOp::kNot:
    case NodeOp::kWithin:
      return NodeHasStar(*node.left);
    case NodeOp::kAnd:
    case NodeOp::kOr:
      return NodeHasStar(*node.left) || NodeHasStar(*node.right);
    case NodeOp::kSome:
      return PathHasStar(*node.path);
  }
  return false;
}

}  // namespace

const char* QueryFragmentToString(QueryFragment fragment) {
  switch (fragment) {
    case QueryFragment::kCore:
      return "core";
    case QueryFragment::kRegular:
      return "regular";
    case QueryFragment::kRegularW:
      return "regular-w";
    case QueryFragment::kDownward:
      return "downward";
  }
  return "?";
}

std::optional<QueryFragment> QueryFragmentFromString(std::string_view name) {
  if (name == "core") return QueryFragment::kCore;
  if (name == "regular") return QueryFragment::kRegular;
  if (name == "regular-w") return QueryFragment::kRegularW;
  if (name == "downward") return QueryFragment::kDownward;
  return std::nullopt;
}

QueryGenOptions OptionsForFragment(QueryFragment fragment, int max_depth) {
  QueryGenOptions options;
  options.max_depth = max_depth;
  switch (fragment) {
    case QueryFragment::kCore:
      options.allow_star = false;
      options.allow_within = false;
      break;
    case QueryFragment::kRegular:
      options.allow_within = false;
      options.require_star = true;
      break;
    case QueryFragment::kRegularW:
      options.require_within = true;
      break;
    case QueryFragment::kDownward:
      options.downward_only = true;
      // Bare-axis stars fold to closure axes; without this, few downward
      // plans keep a star loop for the dispatch and the sweep to run.
      options.require_star_loop = true;
      break;
  }
  return options;
}

PathPtr GeneratePath(const QueryGenOptions& options,
                     const std::vector<Symbol>& labels, Rng* rng) {
  XPTC_CHECK(!labels.empty());
  PathPtr path = GenPath(options, labels, options.max_depth, rng);
  if (options.require_star && options.allow_star && !PathHasStar(*path)) {
    path = MakeStar(std::move(path));
  }
  return path;
}

NodePtr GenerateNode(const QueryGenOptions& options,
                     const std::vector<Symbol>& labels, Rng* rng) {
  XPTC_CHECK(!labels.empty());
  NodePtr node = GenNode(options, labels, options.max_depth, rng);
  if (options.require_within && options.allow_within && !UsesWithin(*node)) {
    node = MakeWithin(std::move(node));
  }
  if (options.require_star && options.allow_star && !NodeHasStar(*node)) {
    // Force a star through a ⟨π*⟩ wrapper: conjunction with a trivially
    // true starred reachability test keeps the original semantics visible.
    node = MakeAnd(std::move(node),
                   MakeSome(MakeStar(MakeAxis(RandomAxis(options, rng)))));
  }
  if (options.require_star_loop && options.allow_star) {
    // ψ and χ lead with a label test: a generated filter alone is often
    // equivalent to true, and then the star folds or the conjunct vanishes.
    auto label = [&] {
      return MakeLabel(labels[rng->NextBelow(labels.size())]);
    };
    NodePtr psi = rng->NextBool(0.5) ? label() : MakeNot(label());
    NodePtr chi = label();  // two statements: both draw from rng, in order
    chi = MakeAnd(std::move(chi), GenNode(options, labels, 1, rng));
    const Axis axis = rng->NextBool(0.5) ? Axis::kChild : Axis::kDescendant;
    PathPtr step = MakeFilter(MakeAxis(axis), std::move(psi));
    node = MakeAnd(std::move(node),
                   MakeSome(MakeFilter(MakeStar(std::move(step)),
                                       std::move(chi))));
  }
  return node;
}

PathPtr GeneratePathSeeded(const QueryGenOptions& options,
                           const std::vector<Symbol>& labels, uint64_t seed) {
  Rng rng(seed);
  return GeneratePath(options, labels, &rng);
}

NodePtr GenerateNodeSeeded(const QueryGenOptions& options,
                           const std::vector<Symbol>& labels, uint64_t seed) {
  Rng rng(seed);
  return GenerateNode(options, labels, &rng);
}

}  // namespace xptc
