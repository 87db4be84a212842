#ifndef XPTC_TESTING_ORACLE_H_
#define XPTC_TESTING_ORACLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/alphabet.h"
#include "common/bitset.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "tree/tree.h"
#include "xpath/ast.h"
#include "xpath/fragment.h"

namespace xptc {
namespace testing {

/// The answer type every oracle is adapted to: the set of nodes of the
/// tree selected by a unary query. This is the common denominator of the
/// repo's pipelines, and T1 is exactly the statement that they all agree
/// on it.
using SelectedSet = Bitset;

/// Declarative description of what an oracle is total on (the
/// fragment-totality matrix of DESIGN.md §9) plus its cost gates. An
/// oracle runs on a case iff the query lies in `total_on` (and in the
/// downward / NTWA-compilable fragment when the flags say so) and the case
/// is within the cost bounds.
struct OracleProfile {
  std::string name;

  /// Largest dialect of the hierarchy the oracle is total on.
  Dialect total_on = Dialect::kRegularXPathW;

  /// Additional fragment restrictions orthogonal to the dialect axis.
  bool downward_only = false;    // IsDownwardNode must hold
  bool compilable_only = false;  // XPathToNtwaCompiler::CheckSupported

  /// Cost gates (0 = unbounded): expensive formalisms (naive O(n³), FO
  /// model checking, automata compilation) are gated to the case sizes
  /// where they are affordable at fuzzing rates.
  int max_tree_nodes = 0;
  int max_query_size = 0;
};

/// One evaluation pipeline adapted behind the registry interface.
class Oracle {
 public:
  virtual ~Oracle() = default;

  const OracleProfile& profile() const { return profile_; }
  const std::string& name() const { return profile_.name; }

  /// Fragment + cost gate; the default implementation evaluates the
  /// profile literally. True means `Run` has declared itself total here —
  /// a residual NotSupported/OutOfRange from `Run` is tolerated (static
  /// gates may over-approximate, e.g. DFTA state blow-up), but any other
  /// error on a handled case is itself a finding.
  virtual bool Handles(const Tree& tree, const NodeExpr& query) const;

  /// The selected set of `query` on `tree`.
  virtual Result<SelectedSet> Run(const Tree& tree, const NodePtr& query) = 0;

  /// `Run` wrapped in this oracle's flame histogram
  /// (`oracle.<name>.run_ns`, timing gated on XPTC_OBS) and run counter
  /// (`oracle.<name>.runs`), and — when a trace is active — a trace span
  /// named after the oracle. Every registry call site runs through this.
  Result<SelectedSet> TimedRun(const Tree& tree, const NodePtr& query);

 protected:
  explicit Oracle(OracleProfile profile) : profile_(std::move(profile)) {}

  OracleProfile profile_;

 private:
  // Lazily-fetched registry metrics (stable references; see TimedRun).
  obs::Histogram* flame_ = nullptr;
  obs::Counter* runs_counter_ = nullptr;
};

/// A cross-check failure: two oracles that both declared themselves total
/// on the case returned different sets (or `other` failed outright).
struct Disagreement {
  std::string reference;  // oracle whose answer is `expected`
  std::string other;      // oracle whose answer is `actual`
  SelectedSet expected;
  SelectedSet actual;
  Status error;  // non-OK iff `other` errored on a handled case

  /// One-line human-readable description (node ids of the symmetric
  /// difference, or the error).
  std::string Describe() const;
};

/// Ordered collection of oracles with the cross-checking policy: on each
/// case the first applicable oracle is the reference and every other
/// applicable oracle is compared against it bit for bit (agreement is
/// transitive, so reference-vs-each is equivalent to all pairs).
class OracleRegistry {
 public:
  OracleRegistry() = default;
  OracleRegistry(const OracleRegistry&) = delete;
  OracleRegistry& operator=(const OracleRegistry&) = delete;

  void Register(std::unique_ptr<Oracle> oracle);

  int size() const { return static_cast<int>(oracles_.size()); }
  const std::vector<std::unique_ptr<Oracle>>& oracles() const {
    return oracles_;
  }
  Oracle* Find(std::string_view name) const;

  /// Cross-checks one case; nullopt means every applicable oracle agreed.
  std::optional<Disagreement> Check(const Tree& tree, const NodePtr& query);

  /// Cross-checks a specific oracle pair (used by the shrinker to re-test
  /// candidates against exactly the pair that originally disagreed).
  /// Returns false when either oracle does not handle the case.
  bool PairDisagrees(Oracle* reference, Oracle* other, const Tree& tree,
                     const NodePtr& query);

  /// Targeted mode: runs only `candidate` against the first *other*
  /// applicable oracle (the reference chain), instead of all pairs — the
  /// cheap way to hammer one new engine with a long campaign. nullopt when
  /// the candidate or no reference handles the case, or they agree.
  std::optional<Disagreement> CheckCandidate(const Tree& tree,
                                             const NodePtr& query,
                                             Oracle* candidate);

  /// Cumulative campaign counters (not thread-safe; the fuzzer is
  /// single-threaded — the concurrency harness lives in stress.h).
  struct Stats {
    int64_t checks = 0;       // Check() calls
    int64_t comparisons = 0;  // oracle-vs-reference comparisons
    int64_t soft_skips = 0;   // residual NotSupported/OutOfRange from Run
    std::map<std::string, int64_t> runs;  // per-oracle Run() count
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

 private:
  std::vector<std::unique_ptr<Oracle>> oracles_;
  Stats stats_;
};

/// Options for the default registry: every pipeline of the repo, adapted.
struct DefaultRegistryOptions {
  /// Include the expensive logic/automata oracles (FO model checker, NTWA
  /// compiler, DFTA conversion).
  bool include_heavy = true;

  /// Include the concurrent BatchEngine oracle (spawns a small worker
  /// pool once, shared across cases).
  bool include_batch = true;

  /// Cost-gate ceilings for the heavy oracles; the defaults keep a
  /// 100k-case campaign in tens of seconds.
  int fo_max_tree_nodes = 8;
  int fo_max_query_size = 9;
  int ntwa_max_tree_nodes = 12;
  int ntwa_max_query_size = 10;
  int dfta_max_tree_nodes = 12;
  int dfta_max_query_size = 10;
};

/// Builds the eight-pipeline registry:
///
///   name   | pipeline                              | total on
///   -------+---------------------------------------+--------------------
///   naive  | eval_naive (explicit relations)       | RegXPath(W)
///   sets   | Evaluator (word-level kernel engine)  | RegXPath(W)
///   batch  | BatchEngine (parallel throughput path)| RegXPath(W)
///   exec   | compiled bytecode register machine    | RegXPath(W)
///   dexec  | one-pass downward bit-program engine  | downward fragment
///   fo     | xpath_to_fo + FO(MTC) model checker   | RegXPath(W), gated
///   ntwa   | XPathToNtwaCompiler + EvalAll         | compilable frag.
///   dfta   | DownwardQueryToDfta + subtree Accepts | downward compilable
///
/// `alphabet` must outlive the registry (the automata oracles intern
/// marked twin symbols into it).
std::unique_ptr<OracleRegistry> MakeDefaultRegistry(
    Alphabet* alphabet, const DefaultRegistryOptions& options = {});

/// Synthetic one-line-bug oracles for mutation-testing the harness itself
/// (DESIGN.md §9's mutation check, automated): each mutant mis-evaluates
/// one construct the way a plausible single-line evaluator bug would, so
/// campaigns against a mutant must produce a disagreement that the
/// shrinker reduces to a minimal repro.
enum class Mutation {
  kAndAsOr,      // φ ∧ ψ evaluated as φ ∨ ψ
  kStarAsPlus,   // p* loses reflexivity (evaluated as p+)
  kDropWithin,   // W φ evaluated as φ (wrong off the downward fragment)
  kConfineSiblingsAtRoot,  // W confinement (exec/confine.h) without the
                           // `lo ≥ 1` condition on the sibling axes
};

const char* MutationToString(Mutation mutation);

/// A mutant of the naive reference carrying the given bug (for
/// kConfineSiblingsAtRoot: the naive reference on the query as the
/// mutated confinement analysis rewrites it).
std::unique_ptr<Oracle> MakeMutantOracle(Mutation mutation);

}  // namespace testing
}  // namespace xptc

#endif  // XPTC_TESTING_ORACLE_H_
