#include "xpath/intern.h"

#include <algorithm>
#include <utility>
#include <vector>

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
  MaybeSweep();
  Memo memo;
  return InternNode(node, &memo);
}

PathPtr ExprInterner::Intern(const PathPtr& path) {
  MaybeSweep();
  Memo memo;
  return InternPath(path, &memo);
}

NodePtr ExprInterner::InternNode(const NodePtr& node, Memo* memo) {
  if (node == nullptr) return node;
  const bool shared = node.use_count() > 1;
  if (shared) {
    auto hit = memo->nodes.find(node.get());
    if (hit != memo->nodes.end()) return hit->second;
  }

  NodePtr left = InternNode(node->left, memo);
  NodePtr right = InternNode(node->right, memo);
  PathPtr path = InternPath(node->path, memo);
  NodePtr candidate = node;
  if (left != node->left || right != node->right || path != node->path) {
    auto e = std::make_shared<NodeExpr>();
    e->op = node->op;
    e->label = node->label;
    e->left = std::move(left);
    e->right = std::move(right);
    e->path = std::move(path);
    candidate = std::move(e);
  }
  NodePtr canonical = *nodes_.insert(std::move(candidate)).first;
  if (shared) memo->nodes.emplace(node.get(), canonical);
  return canonical;
}

PathPtr ExprInterner::InternPath(const PathPtr& path, Memo* memo) {
  if (path == nullptr) return path;
  const bool shared = path.use_count() > 1;
  if (shared) {
    auto hit = memo->paths.find(path.get());
    if (hit != memo->paths.end()) return hit->second;
  }

  PathPtr left = InternPath(path->left, memo);
  PathPtr right = InternPath(path->right, memo);
  NodePtr pred = InternNode(path->pred, memo);
  PathPtr candidate = path;
  if (left != path->left || right != path->right || pred != path->pred) {
    auto e = std::make_shared<PathExpr>();
    e->op = path->op;
    e->axis = path->axis;
    e->left = std::move(left);
    e->right = std::move(right);
    e->pred = std::move(pred);
    candidate = std::move(e);
  }
  PathPtr canonical = *paths_.insert(std::move(candidate)).first;
  if (shared) memo->paths.emplace(path.get(), canonical);
  return canonical;
}

void ExprInterner::Sweep() {
  // A canonical node with use_count() == 1 is held only by the set itself:
  // no cached/handed-out plan and no interned parent references it (a
  // parent in the set holds a child ref, so such a child counts >= 2).
  // The scan copies each such node onto a worklist, which makes the copy
  // the second reference; a worklist entry still at exactly two is erased
  // and its children queued — their counts drop by the erased parent's
  // link, and the last queued copy of a child sees the final count. Every
  // node is queued at most once per parent erased, so the pass is linear.
  std::vector<NodePtr> dead_nodes;
  std::vector<PathPtr> dead_paths;
  for (const NodePtr& n : nodes_) {
    if (n.use_count() == 1) dead_nodes.push_back(n);
  }
  for (const PathPtr& p : paths_) {
    if (p.use_count() == 1) dead_paths.push_back(p);
  }
  while (!dead_nodes.empty() || !dead_paths.empty()) {
    if (!dead_nodes.empty()) {
      NodePtr n = std::move(dead_nodes.back());
      dead_nodes.pop_back();
      if (n.use_count() != 2) continue;
      if (n->left) dead_nodes.push_back(n->left);
      if (n->right) dead_nodes.push_back(n->right);
      if (n->path) dead_paths.push_back(n->path);
      nodes_.erase(n);
    } else {
      PathPtr p = std::move(dead_paths.back());
      dead_paths.pop_back();
      if (p.use_count() != 2) continue;
      if (p->left) dead_paths.push_back(p->left);
      if (p->right) dead_paths.push_back(p->right);
      if (p->pred) dead_nodes.push_back(p->pred);
      paths_.erase(p);
    }
  }
  ++sweeps_;
  next_sweep_ = std::max(kMinSweepSize, 2 * (nodes_.size() + paths_.size()));
}

}  // namespace xptc
