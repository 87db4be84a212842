#include "tree/tree.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace xptc {

NodeId Tree::LowestCommonAncestor(NodeId a, NodeId b) const {
  // Walk the deeper node up until the subtree-interval test succeeds;
  // O(depth) with O(1) containment checks.
  while (!InSubtree(b, a)) a = Parent(a);
  return a;
}

Tree Tree::ExtractSubtree(NodeId v) const {
  const NodeId end = SubtreeEnd(v);
  const int n = end - v;
  Tree out;
  out.label_.resize(static_cast<size_t>(n));
  out.parent_.resize(static_cast<size_t>(n));
  out.first_child_.resize(static_cast<size_t>(n));
  out.last_child_.resize(static_cast<size_t>(n));
  out.next_sibling_.resize(static_cast<size_t>(n));
  out.prev_sibling_.resize(static_cast<size_t>(n));
  out.depth_.resize(static_cast<size_t>(n));
  out.subtree_end_.resize(static_cast<size_t>(n));
  out.subtree_size_.resize(static_cast<size_t>(n));
  out.child_count_.resize(static_cast<size_t>(n));
  auto remap = [v](NodeId id) { return id == kNoNode ? kNoNode : id - v; };
  const int base_depth = Depth(v);
  for (NodeId w = v; w < end; ++w) {
    const size_t i = static_cast<size_t>(w - v);
    out.label_[i] = Label(w);
    out.first_child_[i] = remap(FirstChild(w));
    out.last_child_[i] = remap(LastChild(w));
    out.depth_[i] = Depth(w) - base_depth;
    out.height_ = std::max(out.height_, out.depth_[i]);
    out.subtree_end_[i] = SubtreeEnd(w) - v;
    out.subtree_size_[i] = SubtreeSize(w);
    out.child_count_[i] = ChildCount(w);
    if (w == v) {
      // `v` becomes a root: detach it from its context.
      out.parent_[i] = kNoNode;
      out.next_sibling_[i] = kNoNode;
      out.prev_sibling_[i] = kNoNode;
    } else {
      // Parents and siblings of strict descendants of `v` stay inside the
      // subtree, so plain remapping is safe.
      out.parent_[i] = remap(Parent(w));
      out.next_sibling_[i] = remap(NextSibling(w));
      out.prev_sibling_[i] = remap(PrevSibling(w));
    }
  }
  return out;
}

Tree Tree::RelabelNode(NodeId node, Symbol label) const {
  Tree out = *this;
  out.label_[out.Index(node)] = label;
  return out;
}

namespace {

// Parser for the `a(b, c(d))` term notation. It keeps the open nodes on an
// explicit stack (the builder's, plus a depth count here) rather than the
// call stack, so nesting depth costs no native stack at all.
class TermParser {
 public:
  TermParser(const std::string& text, Alphabet* alphabet, TreeBuilder* builder)
      : text_(text), alphabet_(alphabet), builder_(builder) {}

  Status ParseRoot() {
    XPTC_RETURN_NOT_OK(ParseTerm());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters in term at position " +
                                     std::to_string(pos_));
    }
    return Status::OK();
  }

 private:
  // Nesting cap: a pathological `a(a(a(...` input fails with Status
  // instead of building an absurdly deep tree. 8192 comfortably covers
  // every legitimate corpus tree.
  static constexpr int kMaxNestingDepth = 8192;

  Status ParseTerm() {
    int open = 0;  // nodes whose child list is still being read
    for (;;) {
      // A label starts a node at nesting depth open + 1.
      if (open + 1 > kMaxNestingDepth) {
        return Status::InvalidArgument("term nesting too deep at position " +
                                       std::to_string(pos_) + " (limit " +
                                       std::to_string(kMaxNestingDepth) + ")");
      }
      SkipSpace();
      const size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '#' || text_[pos_] == '-' ||
              text_[pos_] == '.')) {
        ++pos_;
      }
      if (pos_ == start) {
        return Status::InvalidArgument("expected label at position " +
                                       std::to_string(start));
      }
      builder_->Begin(alphabet_->Intern(text_.substr(start, pos_ - start)));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '(') {
        ++pos_;  // consume '('
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_] != ')') {
          ++open;  // its first child comes next
          continue;
        }
        ++pos_;  // `a()`: an empty child list
      }
      builder_->End();
      // The node is complete: close finished parents, then go on to the
      // next sibling (or stop once the root is closed).
      for (;;) {
        if (open == 0) return Status::OK();
        SkipSpace();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          break;
        }
        if (pos_ < text_.size() && text_[pos_] == ')') {
          ++pos_;
          builder_->End();
          --open;
          continue;
        }
        return Status::InvalidArgument("expected ',' or ')' at position " +
                                       std::to_string(pos_));
      }
    }
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  Alphabet* alphabet_;
  TreeBuilder* builder_;
  size_t pos_ = 0;
};

void WriteTerm(const Tree& tree, const Alphabet& alphabet, NodeId v,
               std::ostringstream* out) {
  *out << alphabet.Name(tree.Label(v));
  if (!tree.IsLeaf(v)) {
    *out << '(';
    bool first = true;
    for (NodeId c = tree.FirstChild(v); c != kNoNode; c = tree.NextSibling(c)) {
      if (!first) *out << ',';
      first = false;
      WriteTerm(tree, alphabet, c, out);
    }
    *out << ')';
  }
}

}  // namespace

Result<Tree> Tree::FromTerm(const std::string& term, Alphabet* alphabet) {
  TreeBuilder builder;
  TermParser parser(term, alphabet, &builder);
  XPTC_RETURN_NOT_OK(parser.ParseRoot());
  return std::move(builder).Finish();
}

std::string Tree::ToTerm(const Alphabet& alphabet) const {
  if (empty()) return "";
  std::ostringstream out;
  WriteTerm(*this, alphabet, root(), &out);
  return out.str();
}

NodeId TreeBuilder::Begin(Symbol label) {
  const NodeId id = static_cast<NodeId>(tree_.label_.size());
  const NodeId parent = open_.empty() ? kNoNode : open_.back();
  tree_.label_.push_back(label);
  tree_.parent_.push_back(parent);
  tree_.first_child_.push_back(kNoNode);
  tree_.last_child_.push_back(kNoNode);
  tree_.next_sibling_.push_back(kNoNode);
  tree_.prev_sibling_.push_back(kNoNode);
  tree_.subtree_end_.push_back(kNoNode);
  tree_.subtree_size_.push_back(0);
  tree_.child_count_.push_back(0);
  if (parent == kNoNode) {
    tree_.depth_.push_back(0);
    ++root_count_;
  } else {
    ++tree_.child_count_[static_cast<size_t>(parent)];
    const int depth = tree_.depth_[static_cast<size_t>(parent)] + 1;
    tree_.depth_.push_back(depth);
    tree_.height_ = std::max(tree_.height_, depth);
    const NodeId prev = tree_.last_child_[static_cast<size_t>(parent)];
    if (prev == kNoNode) {
      tree_.first_child_[static_cast<size_t>(parent)] = id;
    } else {
      tree_.next_sibling_[static_cast<size_t>(prev)] = id;
      tree_.prev_sibling_[static_cast<size_t>(id)] = prev;
    }
    tree_.last_child_[static_cast<size_t>(parent)] = id;
  }
  open_.push_back(id);
  return id;
}

void TreeBuilder::End() {
  XPTC_CHECK(!open_.empty()) << "TreeBuilder::End with no open node";
  const NodeId id = open_.back();
  open_.pop_back();
  const NodeId end = static_cast<NodeId>(tree_.label_.size());
  tree_.subtree_end_[static_cast<size_t>(id)] = end;
  tree_.subtree_size_[static_cast<size_t>(id)] = end - id;
}

Result<Tree> TreeBuilder::Finish() && {
  if (!open_.empty()) {
    return Status::InvalidArgument("TreeBuilder::Finish with open nodes");
  }
  if (root_count_ != 1) {
    return Status::InvalidArgument("tree must have exactly one root, got " +
                                   std::to_string(root_count_));
  }
  return std::move(tree_);
}

}  // namespace xptc
