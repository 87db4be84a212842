#ifndef XPTC_XPATH_GENERATOR_H_
#define XPTC_XPATH_GENERATOR_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/alphabet.h"
#include "common/rng.h"
#include "xpath/ast.h"
#include "xpath/fragment.h"

namespace xptc {

/// Parameters for the seeded random query generator. Every corpus used in
/// tests and experiments is reproducible from (options, labels, seed).
struct QueryGenOptions {
  /// Maximum recursion depth of the generated AST (size grows roughly
  /// exponentially with this).
  int max_depth = 4;

  /// Feature gates — switch off to target a smaller dialect/fragment.
  bool allow_star = true;     // Regular XPath
  bool allow_within = true;   // Regular XPath(W)
  bool allow_negation = true;
  bool downward_only = false;  // restrict all axes to {self,child,desc,dos}

  /// Fragment-targeting hooks: when set, the generator *guarantees* the
  /// feature appears at least once (wrapping the result if the random draw
  /// missed it), so a campaign aimed at Regular XPath(W) never silently
  /// degenerates into Core XPath cases. Ignored when the matching allow_*
  /// gate is off.
  bool require_star = false;    // ≥ 1 Kleene star in generated paths
  bool require_within = false;  // ≥ 1 `W` in generated node expressions
  /// Conjoins ⟨(child[ψ])*[χ]⟩ (or desc) to every generated node
  /// expression, ψ a label test or its negation and χ a label test and a
  /// generated expression: a star over a filtered step, which the
  /// simplifier cannot fold into a closure axis, so the plan keeps a star
  /// loop. Ignored when allow_star is off.
  bool require_star_loop = false;

  /// Probability of attaching a filter predicate to a generated step.
  double filter_prob = 0.4;
};

/// The generation targets of the differential fuzzer: the three dialects of
/// the paper's hierarchy plus the downward fragment (where φ ≡ W φ and the
/// DFTA conversion is total). The NTWA-compilable fragment is targeted one
/// layer up (see compile/GenerateCompilableNode — it cannot live here
/// without inverting the compile→xpath dependency).
enum class QueryFragment {
  kCore,      // no star, no W
  kRegular,   // star, no W (star forced to appear)
  kRegularW,  // full language (W forced to appear)
  kDownward,  // downward axes only, full operators
};

const char* QueryFragmentToString(QueryFragment fragment);
std::optional<QueryFragment> QueryFragmentFromString(std::string_view name);

/// Generator options targeting one fragment: feature gates and require_*
/// hooks set so the produced expressions exercise exactly that fragment.
QueryGenOptions OptionsForFragment(QueryFragment fragment, int max_depth = 4);

/// Generates a random path expression.
PathPtr GeneratePath(const QueryGenOptions& options,
                     const std::vector<Symbol>& labels, Rng* rng);

/// Generates a random node expression.
NodePtr GenerateNode(const QueryGenOptions& options,
                     const std::vector<Symbol>& labels, Rng* rng);

/// Single-seed entry points: the whole expression is a pure function of
/// (options, labels, seed) — the fuzzer's per-case derivation, also handy
/// for reproducing one generator draw without replaying an Rng stream.
PathPtr GeneratePathSeeded(const QueryGenOptions& options,
                           const std::vector<Symbol>& labels, uint64_t seed);
NodePtr GenerateNodeSeeded(const QueryGenOptions& options,
                           const std::vector<Symbol>& labels, uint64_t seed);

}  // namespace xptc

#endif  // XPTC_XPATH_GENERATOR_H_
