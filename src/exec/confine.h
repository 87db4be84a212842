#ifndef XPTC_EXEC_CONFINE_H_
#define XPTC_EXEC_CONFINE_H_

#include <vector>

#include "xpath/ast.h"

namespace xptc {
namespace exec {

/// The step rules of the window-root confinement analysis. `kExact` is the
/// analysis `Program::Compile` runs. `kSiblingsAlwaysInside` drops the
/// `lo ≥ 1` condition on the sibling axes (so it treats them as inside the
/// window even at its root): a seeded bug for the mutation check of
/// testing/oracle.h, never used to compile.
enum class ConfineRules { kExact, kSiblingsAlwaysInside };

/// Rewrites every `W φ` of `plan` whose body never looks outside the
/// window T|v to `φ'`: φ with each step that is empty in the window
/// replaced by ∅ and the ∅ folded away. On every tree `φ'` at v equals
/// `φ` in T|v, so the rewritten plan needs no windowed pass for that body.
///
/// The analysis follows each path through a depth interval [lo, hi]
/// relative to the window root, starting at [0, 0]: child adds 1, desc
/// gives [lo+1, ∞], dos [lo, ∞]; parent and the sibling axes stay inside
/// from lo ≥ 1; at the root itself (hi = 0) parent, the sibling axes, anc,
/// foll and prec are empty and aos is self; anything else leaves the
/// window, and then the body keeps its `W`. Filters are analysed at their
/// target's interval, stars join intervals until stable (hi widens to ∞
/// when it grows), and a nested `W` is always confined. Inner bodies are
/// rewritten as well, whether or not the outer one is dropped.
///
/// The analysis visits at most a fixed budget of expression nodes per call
/// (star fixpoints revisit their bodies); a body it has no budget left for
/// keeps its `W`. Returns `plan` itself when nothing changes. Every node
/// the rewrite builds or the analysis returns goes through one unique
/// table, so a hash-consed `plan` keeps its sharing and `Program::Compile`
/// lowers a repeated rewritten step once. Each dropped body (as it appears
/// in `plan`, once per distinct `W` node) is appended to `dropped` when it
/// is non-null.
NodePtr ConfineWindows(const NodePtr& plan,
                       ConfineRules rules = ConfineRules::kExact,
                       std::vector<NodePtr>* dropped = nullptr);

}  // namespace exec
}  // namespace xptc

#endif  // XPTC_EXEC_CONFINE_H_
