#ifndef XPTC_EXEC_ENGINE_H_
#define XPTC_EXEC_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "exec/program.h"
#include "tree/tree.h"
#include "xpath/axis_kernels.h"

namespace xptc {

class TreeCache;  // workload/tree_cache.h

namespace exec {

/// Executes compiled `Program`s against one tree. Owns all per-run mutable
/// state — the physical bitset register file, a spare register bank for
/// `W` bodies, the per-tree label index and the `W` memo — so repeated
/// runs (the batch-engine steady state) allocate nothing: registers are
/// overwritten in place, and the file only grows when a program needs more
/// registers than any before it. The downward sweep's aggregate buffer and
/// transfer table are kept per thread instead, shared by every engine the
/// thread runs, and grow to the largest tree it has swept.
///
/// `W φ` is computed here too: φ's sub-program runs bottom-up over every
/// subtree window [v, SubtreeEnd(v)) (see ComputeWithin), and the result
/// is memoised per tree: in the attached `TreeCache` when there is one
/// (no engine-local layer in front of it), else in an engine-local memo.
/// Both are keyed structurally by the body hash the program stored at
/// compile time, so two plans that share a body share its set.
///
/// Optionally attaches a `TreeCache`, which shares the label index and the
/// memoised `W` results across queries and worker threads. An ExecEngine is
/// NOT thread-safe: use one per (worker, tree).
class ExecEngine {
 public:
  /// `tree_cache`, if given, must be bound to the same `tree` object and
  /// must outlive the engine.
  explicit ExecEngine(const Tree& tree, TreeCache* tree_cache = nullptr);
  ~ExecEngine();

  ExecEngine(const ExecEngine&) = delete;
  ExecEngine& operator=(const ExecEngine&) = delete;

  /// The set of nodes satisfying the program's query. Programs without a
  /// downward compilation run on the register machine. For one with, the
  /// engine is picked before anything runs: the register machine (64-way
  /// node-parallel word ops) iff the tree is no taller than
  /// `program.register_height_limit()`, where its star rounds, at most
  /// R(H), cost less than a sweep; else the one-pass downward sweep, linear
  /// unconditionally (DESIGN §10.4). Nothing runs twice.
  Bitset Eval(const Program& program);

  /// True iff the last evaluation ran the one-pass sweep (picked by `Eval`
  /// or forced by `EvalDownward`) — observability for tests and benches.
  bool last_used_downward() const {
    return last_run_.dispatch == RunInfo::Dispatch::kDownwardSweep ||
           last_run_.dispatch == RunInfo::Dispatch::kDownwardDirect;
  }

  /// How the last evaluation ran: which engine ran it (and why), how many
  /// star fixpoint rounds it took, and how often each instruction of the
  /// program executed (star bodies re-run once per round). Filled by
  /// `Eval`/`EvalGeneral`/`EvalDownward`; the EXPLAIN facility reads it.
  struct RunInfo {
    enum class Dispatch {
      kRegisterMachine,  // Eval, downward plan, tree within the limit
      kDownwardSweep,    // Eval, downward plan, tree over the limit
      kDownwardDirect,   // EvalDownward called directly
      kGeneral,          // register machine: no downward compilation, or
                         // EvalGeneral called directly
    };
    Dispatch dispatch = Dispatch::kGeneral;
    int64_t star_rounds_used = 0;
    // Eval's choice on a downward plan: the tree height H, R(H) and the
    // budget it was held against. All 0 for the other dispatches.
    int64_t tree_height = 0;
    int64_t star_round_bound = 0;
    int64_t star_round_budget = 0;
    int64_t instrs_executed = 0;
    // True iff this run was abandoned by the deadline/cancel probe (see
    // SetDeadline). The returned bitset is empty and meaningless; callers
    // that armed a deadline must check this before using the result.
    bool deadline_expired = false;
    // Transfer entries (distinct (label class, K-aggregate) keys) the
    // downward sweep built; 0 when no sweep ran.
    int64_t transfer_entries = 0;
    // Execution count per instruction index of a register-machine run.
    // Empty when the sweep ran.
    std::vector<int64_t> instr_execs;
  };
  static const char* DispatchName(RunInfo::Dispatch dispatch);
  /// `exec.dispatch.<name>`, but kDownwardSweep counts under
  /// `exec.dispatch.downward_fallback`.
  static const char* DispatchCounterName(RunInfo::Dispatch dispatch);
  const RunInfo& last_run() const { return last_run_; }

  /// Per-request deadline hook — the serving layer's admission-control
  /// contract (see src/server/). `deadline_ns` is an absolute timestamp on
  /// the `SteadyNowNs` clock; 0 disarms. The deadline is probed
  /// cooperatively at *star-round boundaries* — the only place a
  /// register-machine run's work is not fixed by its code and the tree —
  /// plus at run entry, and in a `W` pass at its start and once per 64
  /// subtree contexts. Enforcement granularity is therefore one star round
  /// (O(body·n/64) work), 64 `W` contexts, or one straight-line pass or
  /// sweep; an expired run is abandoned (a `W` pass it cut short stores
  /// nothing) and `last_run().deadline_expired` is set (the returned
  /// bitset is empty and must be discarded). Sticky across
  /// runs until re-armed or cleared; `exec.deadline_expired` counts
  /// abandoned runs.
  void SetDeadline(int64_t deadline_ns) { deadline_ns_ = deadline_ns; }

  /// Optional external cancel flag, checked at the same probe points as
  /// the deadline (deterministic tests; reactor-driven cancellation).
  /// `flag` must outlive the engine or be cleared with nullptr.
  void SetCancelFlag(const std::atomic<bool>* flag) { cancel_flag_ = flag; }

  /// The monotonic clock deadlines are measured against (nanoseconds).
  static int64_t SteadyNowNs();

  /// Forces the general register machine (differential testing and
  /// benchmarking against the downward engine).
  Bitset EvalGeneral(const Program& program);

  /// Forces the one-pass downward sweep; requires `program.downward()`.
  Bitset EvalDownward(const Program& program);

  const Tree& tree() const { return tree_; }

 private:
  /// Executes [begin, end) of `program` over the window [lo_, hi_) on the
  /// register bank `regs`; returns false iff the deadline probe fired.
  /// `instr_execs` (per-instruction counts of the top-level run) is null
  /// for `W` body passes, which the run's totals do not count.
  bool RunRange(const Program& program, int begin, int end, Bitset* regs,
                int64_t* instr_execs);
  /// One accounted run of the top-level code on the main register bank.
  Bitset RunRegisters(const Program& program, RunInfo::Dispatch dispatch);
  /// One accounted run of the one-pass downward sweep.
  Bitset RunSweep(const Program& program, RunInfo::Dispatch dispatch);
  const Bitset& LabelSet(Symbol label);

  /// Makes `within_sets_[w]` point at the `W` set of body `w` of
  /// `program`: from the per-tree memo, else computed — inner bodies
  /// first, on an explicit stack. False iff the deadline fired.
  bool ResolveWithin(const Program& program, int w);
  /// Looks `body` up in the TreeCache if attached, else in the local memo;
  /// null on a miss.
  const Bitset* FindWithin(const WithinBody& body);
  /// The bottom-up pass: runs the body's sub-program on the spare bank
  /// over each window [v, SubtreeEnd(v)), v = n-1 … 0. Its inner bodies
  /// must already be resolved. False (nothing stored) iff the deadline
  /// fired.
  bool ComputeWithin(const Program& program, int w);

  /// Resets `last_run_` for a fresh evaluation of `program`, then (on
  /// completion) `FinishRun` publishes the per-run totals to the registry
  /// and the active trace span, if any.
  void BeginRun(const Program& program, RunInfo::Dispatch dispatch);
  void FinishRun(const Bitset* result);
  /// Marks the current run deadline-expired, publishes it, and returns the
  /// (empty, to-be-discarded) result.
  Bitset AbandonRun();

  /// True iff the armed deadline/cancel flag has fired. Reads the clock,
  /// so callers probe it only at star-round granularity.
  bool DeadlineExpired() const;

  const Tree& tree_;
  TreeCache* tree_cache_;
  const int n_;
  // Per-tree axis-dispatch calibration, copied from the attached TreeCache
  // at construction (default constants without one) — see DESIGN.md §15.
  axis::Calibration calibration_;
  std::vector<Bitset> regs_;
  std::vector<Bitset> w_regs_;  // spare bank for W body passes
  // The window RunRange works in: [0, n) for a top-level run, one subtree
  // during a W pass.
  int lo_ = 0;
  int hi_ = 0;
  int64_t deadline_ns_ = 0;  // 0 = no deadline armed
  const std::atomic<bool>* cancel_flag_ = nullptr;
  RunInfo last_run_;
  // Label index: refs into the shared TreeCache when attached (lock-free
  // after first touch), else locally built sets.
  std::unordered_map<Symbol, const Bitset*> label_refs_;
  std::unordered_map<Symbol, Bitset> local_labels_;
  // W memo of an engine without a TreeCache: body hash → the structurally
  // distinct bodies with that hash (pinned) and their sets. Deques keep
  // element addresses stable across growth.
  struct LocalWithin {
    NodePtr body;
    Bitset set;
  };
  std::unordered_map<size_t, std::deque<LocalWithin>> local_within_;
  // Per run, indexed like the program's within_bodies(): the resolved set
  // (null until resolved), whether the caches were already probed, and
  // ResolveWithin's explicit stack.
  std::vector<const Bitset*> within_sets_;
  std::vector<char> within_probed_;
  std::vector<int> within_stack_;
};

}  // namespace exec
}  // namespace xptc

#endif  // XPTC_EXEC_ENGINE_H_
