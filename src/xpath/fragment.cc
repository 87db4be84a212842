#include "xpath/fragment.h"

namespace xptc {

namespace {

// Generic conjunction over all axes / operators via a single traversal.
// `axis_ok` constrains primitive steps; `allow_star` / `allow_within`
// constrain operators.
struct FragmentSpec {
  bool (*axis_ok)(Axis);
  bool allow_star;
  bool allow_within;
};

// The conjunction over a DAG: a shared child that passed is not walked
// again (one that failed ends the walk).
class Checker {
 public:
  explicit Checker(const FragmentSpec& spec) : spec_(spec) {}

  bool Of(const PathExpr& path) {
    switch (path.op) {
      case PathOp::kAxis:
        return spec_.axis_ok(path.axis);
      case PathOp::kSeq:
      case PathOp::kUnion:
        return Sub(path.left) && Sub(path.right);
      case PathOp::kFilter:
        return Sub(path.left) && Sub(path.pred);
      case PathOp::kStar:
        return spec_.allow_star && Sub(path.left);
    }
    return false;
  }

  bool Of(const NodeExpr& node) {
    switch (node.op) {
      case NodeOp::kLabel:
      case NodeOp::kTrue:
        return true;
      case NodeOp::kNot:
        return Sub(node.left);
      case NodeOp::kWithin:
        return spec_.allow_within && Sub(node.left);
      case NodeOp::kAnd:
      case NodeOp::kOr:
        return Sub(node.left) && Sub(node.right);
      case NodeOp::kSome:
        return Sub(node.path);
    }
    return false;
  }

 private:
  template <class Ptr>
  bool Sub(const Ptr& child) {
    return memo_.Get(child, [this](const auto& e) { return Of(*e); });
  }
  const FragmentSpec& spec_;
  SharedExprMemo<bool> memo_;
};

bool CheckPath(const PathExpr& path, const FragmentSpec& spec) {
  return Checker(spec).Of(path);
}

bool CheckNode(const NodeExpr& node, const FragmentSpec& spec) {
  return Checker(spec).Of(node);
}

bool AnyAxis(Axis) { return true; }

constexpr FragmentSpec kCoreSpec = {AnyAxis, /*allow_star=*/false,
                                    /*allow_within=*/false};
constexpr FragmentSpec kRegularSpec = {AnyAxis, /*allow_star=*/true,
                                       /*allow_within=*/false};
constexpr FragmentSpec kDownwardSpec = {IsDownwardAxis, /*allow_star=*/true,
                                        /*allow_within=*/true};
constexpr FragmentSpec kForwardSpec = {IsForwardAxis, /*allow_star=*/true,
                                       /*allow_within=*/true};

}  // namespace

const char* DialectToString(Dialect dialect) {
  switch (dialect) {
    case Dialect::kCoreXPath:
      return "CoreXPath";
    case Dialect::kRegularXPath:
      return "RegularXPath";
    case Dialect::kRegularXPathW:
      return "RegularXPath(W)";
  }
  return "?";
}

bool IsCoreXPath(const PathExpr& path) { return CheckPath(path, kCoreSpec); }
bool IsCoreXPath(const NodeExpr& node) { return CheckNode(node, kCoreSpec); }
bool IsRegularXPath(const PathExpr& path) {
  return CheckPath(path, kRegularSpec);
}
bool IsRegularXPath(const NodeExpr& node) {
  return CheckNode(node, kRegularSpec);
}
bool UsesWithin(const PathExpr& path) { return !IsRegularXPath(path); }
bool UsesWithin(const NodeExpr& node) { return !IsRegularXPath(node); }
bool IsDownwardPath(const PathExpr& path) {
  return CheckPath(path, kDownwardSpec);
}
bool IsDownwardNode(const NodeExpr& node) {
  return CheckNode(node, kDownwardSpec);
}
bool IsForwardPath(const PathExpr& path) {
  return CheckPath(path, kForwardSpec);
}
bool IsForwardNode(const NodeExpr& node) {
  return CheckNode(node, kForwardSpec);
}

Dialect ClassifyPath(const PathExpr& path) {
  if (IsCoreXPath(path)) return Dialect::kCoreXPath;
  if (IsRegularXPath(path)) return Dialect::kRegularXPath;
  return Dialect::kRegularXPathW;
}

Dialect ClassifyNode(const NodeExpr& node) {
  if (IsCoreXPath(node)) return Dialect::kCoreXPath;
  if (IsRegularXPath(node)) return Dialect::kRegularXPath;
  return Dialect::kRegularXPathW;
}

}  // namespace xptc
