#include "xpath/intern.h"

#include <utility>

namespace xptc {

namespace {

inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

}  // namespace

size_t ExprInterner::NodeHasher::operator()(const NodePtr& n) const {
  size_t h = static_cast<size_t>(n->op);
  h = HashCombine(h, static_cast<size_t>(n->label) + 1);
  h = HashCombine(h, reinterpret_cast<size_t>(n->left.get()));
  h = HashCombine(h, reinterpret_cast<size_t>(n->right.get()));
  h = HashCombine(h, reinterpret_cast<size_t>(n->path.get()));
  return h;
}

bool ExprInterner::NodeShallowEq::operator()(const NodePtr& a,
                                             const NodePtr& b) const {
  return a->op == b->op && a->label == b->label && a->left == b->left &&
         a->right == b->right && a->path == b->path;
}

size_t ExprInterner::PathHasher::operator()(const PathPtr& p) const {
  size_t h = static_cast<size_t>(p->op);
  h = HashCombine(h, static_cast<size_t>(p->axis) + 1);
  h = HashCombine(h, reinterpret_cast<size_t>(p->left.get()));
  h = HashCombine(h, reinterpret_cast<size_t>(p->right.get()));
  h = HashCombine(h, reinterpret_cast<size_t>(p->pred.get()));
  return h;
}

bool ExprInterner::PathShallowEq::operator()(const PathPtr& a,
                                             const PathPtr& b) const {
  return a->op == b->op && a->axis == b->axis && a->left == b->left &&
         a->right == b->right && a->pred == b->pred;
}

NodePtr ExprInterner::Intern(const NodePtr& node) {
  Memo memo;
  return InternNode(node, &memo);
}

PathPtr ExprInterner::Intern(const PathPtr& path) {
  Memo memo;
  return InternPath(path, &memo);
}

NodePtr ExprInterner::InternNode(const NodePtr& node, Memo* memo) {
  if (node == nullptr) return node;
  // Shallow-equal to a canonical node (same op and label, pointer-identical
  // children) means structurally equal to it; in particular a node already
  // interned as itself is found here, so revisiting it costs one lookup.
  if (auto found = nodes_.find(node); found != nodes_.end()) return *found;
  const bool shared = node.use_count() > 1;
  if (shared) {
    auto hit = memo->nodes.find(node.get());
    if (hit != memo->nodes.end()) return hit->second;
  }

  NodePtr left = InternNode(node->left, memo);
  NodePtr right = InternNode(node->right, memo);
  PathPtr path = InternPath(node->path, memo);
  NodePtr candidate = node;
  const bool rebuilt =
      left != node->left || right != node->right || path != node->path;
  if (rebuilt) {
    auto e = std::make_shared<NodeExpr>();
    e->op = node->op;
    e->label = node->label;
    e->left = std::move(left);
    e->right = std::move(right);
    e->path = std::move(path);
    candidate = std::move(e);
  }
  NodePtr canonical = *nodes_.insert(std::move(candidate)).first;
  if (shared && rebuilt) memo->nodes.emplace(node.get(), canonical);
  return canonical;
}

PathPtr ExprInterner::InternPath(const PathPtr& path, Memo* memo) {
  if (path == nullptr) return path;
  if (auto found = paths_.find(path); found != paths_.end()) return *found;
  const bool shared = path.use_count() > 1;
  if (shared) {
    auto hit = memo->paths.find(path.get());
    if (hit != memo->paths.end()) return hit->second;
  }

  PathPtr left = InternPath(path->left, memo);
  PathPtr right = InternPath(path->right, memo);
  NodePtr pred = InternNode(path->pred, memo);
  PathPtr candidate = path;
  const bool rebuilt =
      left != path->left || right != path->right || pred != path->pred;
  if (rebuilt) {
    auto e = std::make_shared<PathExpr>();
    e->op = path->op;
    e->axis = path->axis;
    e->left = std::move(left);
    e->right = std::move(right);
    e->pred = std::move(pred);
    candidate = std::move(e);
  }
  PathPtr canonical = *paths_.insert(std::move(candidate)).first;
  if (shared && rebuilt) memo->paths.emplace(path.get(), canonical);
  return canonical;
}

}  // namespace xptc
