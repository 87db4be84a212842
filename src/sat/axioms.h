#ifndef XPTC_SAT_AXIOMS_H_
#define XPTC_SAT_AXIOMS_H_

#include <functional>
#include <string>
#include <vector>

#include "xpath/ast.h"

namespace xptc {

/// A valid equivalence scheme of Core/Regular XPath(W) — the building
/// blocks of equational axiomatizations of XPath query equivalence (the
/// axiomatization line of work the paper belongs to). Each scheme builds a
/// (lhs, rhs) pair from metavariable instantiations: `paths` path
/// expressions and `nodes` node expressions.
///
/// The whole corpus is machine-checked: tests instantiate every scheme with
/// random expressions and verify equivalence on exhaustive small trees and
/// random larger trees — the "soundness problem" of a rewrite-rule library,
/// mechanized.
struct AxiomScheme {
  std::string name;
  /// Human-readable statement, e.g. "A/(B|C) == A/B | A/C".
  std::string statement;
  int num_path_args = 0;
  int num_node_args = 0;
  /// When set, node metavariables must be instantiated with *downward*
  /// expressions (used by the Wφ ≡ φ scheme).
  bool requires_downward_nodes = false;
  /// Exactly one of the builders is set, fixing the sort of the scheme.
  std::function<std::pair<PathPtr, PathPtr>(const std::vector<PathPtr>&,
                                            const std::vector<NodePtr>&)>
      build_paths;
  std::function<std::pair<NodePtr, NodePtr>(const std::vector<PathPtr>&,
                                            const std::vector<NodePtr>&)>
      build_nodes;
};

/// The corpus: idempotent-semiring laws, predicate laws, node/boolean laws,
/// star laws, well-foundedness (Löb), sibling/parent functionality, tree
/// interaction laws, and W laws. Every rule of the simplifier
/// (xpath/rewrite.cc) is one of these schemes, oriented left to right or
/// right to left, and names it in a comment.
const std::vector<AxiomScheme>& CoreXPathAxiomSchemes();

}  // namespace xptc

#endif  // XPTC_SAT_AXIOMS_H_
