#ifndef XPTC_XPATH_REWRITE_H_
#define XPTC_XPATH_REWRITE_H_

#include "xpath/ast.h"

namespace xptc {

/// Sound simplifier and the one construction path for plans: one
/// bottom-up pass through a unique table that lives for the call, whose
/// node constructors are the rules. It returns the hash-consed normal
/// form: structurally equal subexpressions of the result are one object
/// (so the compiler's pointer-keyed memos lower each once), and
/// simplifying a result again returns the very same object. A shared
/// input node is walked once, so a DAG input is not unfolded. The table
/// dies with the call: the result holds only the input nodes it reuses
/// (those whose children came back unchanged).
///
/// Every rule is a scheme of the axiom corpus (sat/axioms.h), proven
/// there on exhaustive small trees: unit laws for self/true, filter fusion
/// p[φ][ψ] ≡ p[φ∧ψ], idempotent union and boolean laws, star collapses
/// (p** ≡ p*, child* ≡ dos, parent* ≡ aos, dos* ≡ dos, ...), ⟨self[φ]⟩ ≡
/// φ, ⟨p|q⟩ ≡ ⟨p⟩∨⟨q⟩, axis compositions (dos/dos ≡ dos, dos/child ≡
/// desc, ...), double negation, and Wφ ≡ φ for downward φ (a lemma of the
/// paper).
PathPtr SimplifyPath(const PathPtr& path);
NodePtr SimplifyNode(const NodePtr& node);

}  // namespace xptc

#endif  // XPTC_XPATH_REWRITE_H_
