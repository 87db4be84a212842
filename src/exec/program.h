#ifndef XPTC_EXEC_PROGRAM_H_
#define XPTC_EXEC_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "exec/downward.h"
#include "xpath/ast.h"

namespace xptc {
namespace exec {

/// Bytecode operations over bitset registers. Every operation runs over the
/// engine's current window [lo, hi): the whole tree for a top-level run, or
/// one subtree T|v while the engine computes a `W` body (see kWithin).
enum class Op : uint8_t {
  kTrue,    // dst := all nodes
  kLabel,   // dst := {v : label(v) == label}
  kNot,     // dst := complement(a)
  kAnd,     // dst := a ∩ b
  kOr,      // dst := a ∪ b
  kAndNot,  // dst := a ∖ b — lowering emits it for `φ and not ψ` and
            //        for a filter `[not ψ]`; one bitset pass, no kNot
  kOrNot,   // dst := a ∪ complement(b) — lowering's form of `φ or not ψ`
  kAxis,    // dst := axis-image(axis, a)   (axis already inverted: the
            //        lowering of ⟨p⟩ computes backward images)
  kStar,    // dst := reflexive-transitive back-image closure of a; the
            //        loop body [body_begin, body_end) maps register `in`
            //        (current frontier) to register `out` (one p-step).
            //        A `strict` star (p+) leaves out the seed: dst starts
            //        empty and holds only nodes one or more p-steps back
  kWithin,  // dst := {v : body holds at v in T|v}, read from the engine's
            //        per-tree W set; the body is a sub-program of its own
            //        (Program::within_bodies), run once per tree bottom-up

  // Closure kernels: dst := a ∪ axis-image(axis, a), with `axis` one of
  // the transitive structure axes (desc/anc/fsib/psib). Emitted when a
  // star loop's body is a single bare axis step whose closure is itself a
  // one-pass streaming kernel (`TransitiveClosureAxis`): the whole
  // O(depth)-round fixpoint collapses to one interval/streamed pass. Three
  // mnemonics so disassembly and EXPLAIN can tell the kernel families
  // apart; execution is identical modulo the axis operand.
  kDescFill,  // axis ∈ {desc} — preorder interval range-fill union
  kAncMark,   // axis ∈ {anc} — interval-stabbing backward sweep
  kSibChain,  // axis ∈ {fsib, psib} — streamed sibling-chain pass
};

struct Instr {
  Op op;
  int dst = -1;
  int a = -1;
  int b = -1;
  Axis axis = Axis::kSelf;        // kAxis
  Symbol label = kInvalidSymbol;  // kLabel
  int body_begin = 0;             // kStar: loop body instruction range
  int body_end = 0;
  int in = -1;   // kStar: frontier register read by the body
  int out = -1;  // kStar: one-step image register written by the body
  bool strict = false;  // kStar: p+ rather than p*
  int within = -1;  // kWithin: index into the root's within_bodies()
};

class Program;

/// One distinct `W` body of a plan, lowered to a program of its own. Its
/// kWithin instructions index the same root table as the top-level code's,
/// always at smaller indices (`deps`): bodies are listed in post-order.
/// `hash` is `NodeHash(*body)`, taken once at compile time: it keys the
/// engines' `W` memos (the per-tree `TreeCache` and the engine-local one),
/// so a lookup hashes nothing.
struct WithinBody {
  NodePtr body;                            // body expression, as compiled
  size_t hash = 0;                         // NodeHash(*body)
  std::shared_ptr<const Program> program;  // runs the body over one T|v
  std::vector<int> deps;  // the bodies its kWithin instructions read
};

struct CompileStats {
  int ast_nodes = 0;   // size of the query expression tree (with repeats)
  int num_instrs = 0;  // flat instruction count after DAG collapse
  int num_vregs = 0;   // SSA virtual registers before allocation
  int num_regs = 0;    // physical bitset registers after linear scan
  int dag_hits = 0;    // lowering memo hits — shared subcomputations
  bool downward = false;  // one-pass downward program attached
  int bit_ops = 0;        // downward bit-program length (0 if !downward)
  int windows_dropped = 0;  // `W` bodies compiled without a window
};

/// A compiled query plan: the result of lowering a `NodeExpr` DAG into a
/// flat, topologically ordered instruction sequence over bitset registers.
///
///  - The input is compiled as given, with no simplifier rule. Lowering
///    memos are keyed by node address, so a hash-consed input (every
///    `Query::plan()`) has each structurally distinct subexpression
///    computed by exactly one instruction. `PlanCache` shares programs
///    between texts by a structural key on `plan()`.
///  - Two fixed rules shape the code as it is emitted: a `not ψ` operand of
///    `and`/`or` (or of a filter) fuses into kAndNot/kOrNot over ψ's
///    register, so a kNot appears only when its value is read as such; and
///    each sequence is value-numbered, so an instruction identical to one
///    already in the sequence (commuted kAnd/kOr included) is never emitted
///    twice.
///  - Registers are allocated by loop-aware liveness (linear scan over the
///    execution-order positions, with values that cross a star-loop kept
///    live to the loop end), so hundreds of operations typically run in a
///    handful of reusable bitsets: steady-state execution allocates
///    nothing.
///  - Layout: instructions [0, main_end) are the top-level sequence; star
///    loop bodies follow, each a contiguous range referenced by its kStar
///    instruction. Executing [0, main_end) in order (recursing into bodies
///    at kStar sites) leaves the answer in `result_reg()`.
///  - Before lowering, each `W φ` whose body never looks outside its
///    window is compiled as `φ'` (exec/confine.h): no sub-program, no
///    windowed pass, no per-tree memo entry.
///  - Each remaining distinct `W` body is lowered into its own sub-program,
///    listed in `within_bodies()` in post-order (inner bodies first), so
///    the engine computes a nested `W` without recursing.
///  - If the lowered plan lies in the downward fragment, a
///    `DownwardProgram` is attached for the one-pass linear engine.
///
/// A Program is immutable and shareable across threads and trees; per-run
/// state (the register file) lives in `ExecEngine`.
class Program {
 public:
  /// Lowers `query` (any Regular XPath(W) node expression) into a program,
  /// as given. Pass a hash-consed plan (`Query::plan()`): a raw tree, such
  /// as a parse tree, is lowered correctly, but a star or `W` body it
  /// repeats is lowered once per occurrence (a repeated `W` body becomes
  /// one sub-program and one windowed pass per occurrence). Repeated pure
  /// instructions are still shared by value numbering.
  static std::shared_ptr<const Program> Compile(const NodePtr& query);

  const std::vector<Instr>& code() const { return code_; }
  int main_end() const { return main_end_; }
  int num_regs() const { return num_regs_; }
  int result_reg() const { return result_reg_; }
  const CompileStats& stats() const { return stats_; }

  /// The input plan, before `W` confinement. Its structure
  /// (NodeHash/NodeEquals) is the program's identity in `PlanCache`.
  const NodePtr& plan() const { return plan_; }

  /// The bodies of the `W`s compiled without a window, as they appear in
  /// `plan()`, one per distinct `W`; EXPLAIN names them.
  const std::vector<NodePtr>& dropped_windows() const {
    return dropped_windows_;
  }

  /// The distinct `W` bodies of the plan, inner bodies first; kWithin
  /// operands index this table. Empty for the sub-programs themselves.
  const std::vector<WithinBody>& within_bodies() const {
    return within_bodies_;
  }

  /// Non-null iff the plan is downward-compilable.
  const DownwardProgram* downward() const { return downward_.get(); }

  /// R(H): an upper bound on the star rounds one top-level run of this
  /// program takes on the register machine over a tree of height `height`,
  /// if the plan is downward (DESIGN §10.4). It is the sum, over the star
  /// loops of the top-level code, of (max(H, 1) + 1)^d for a loop at
  /// nesting depth d (1 outermost). Saturates at INT64_MAX.
  int64_t StarRoundBound(int height) const;

  /// The star rounds a downward program may spend on the register machine
  /// before the one-pass sweep would have been cheaper: 32 + 2·bit_ops.
  int64_t star_round_budget() const;

  /// The largest tree height H with R(H) ≤ star_round_budget(), fixed at
  /// compile time: `ExecEngine::Eval` runs a downward program on the
  /// register machine iff the tree is at most this tall, and on the sweep
  /// otherwise. INT_MAX for a star-free program; -1 (always the sweep)
  /// when R(0) is over budget or a `W` pass is left, since the windowed
  /// pass is not linear. Meaningless without `downward()`.
  int register_height_limit() const { return register_height_limit_; }

  /// Deterministic disassembly (used by lowering-determinism tests): the
  /// top-level code, then each `W` body's sub-program.
  std::string ToString(const Alphabet& alphabet) const;

  /// One instruction of the disassembly, e.g. `r3 = axis child r1` — the
  /// unit the EXPLAIN dump annotates with per-instruction execution
  /// counts. `ToString` is the concatenation of these plus headers.
  std::string InstrToString(int i, const Alphabet& alphabet) const;

 private:
  struct WithinTable;  // lowering state shared by a root and its bodies

  Program() = default;

  /// Lowers `plan` into code and registers; `W` bodies met on the way are
  /// lowered first and appended to `table`.
  static std::shared_ptr<Program> Lower(const NodePtr& plan,
                                        WithinTable* table);
  std::string CodeToString(const Alphabet& alphabet,
                           const std::vector<WithinBody>& bodies) const;
  /// Adds the star loops of [begin, end), at nesting depth `depth`, to
  /// `stars_at_depth_`.
  void CountStars(int begin, int end, int depth);
  int RegisterHeightLimit() const;

  std::vector<Instr> code_;
  int main_end_ = 0;
  int num_regs_ = 0;
  int result_reg_ = -1;
  CompileStats stats_;
  NodePtr plan_;
  std::vector<NodePtr> dropped_windows_;
  std::vector<WithinBody> within_bodies_;
  std::unique_ptr<const DownwardProgram> downward_;
  std::vector<int> stars_at_depth_;  // [d - 1]: top-level star loops at depth d
  int register_height_limit_ = -1;
};

/// Structural check over a finished (register-allocated) program: operand
/// registers in range, per-op operand presence, star bodies form properly
/// nested non-overlapping ranges, every instruction is reachable exactly
/// once from the main sequence, and kWithin operands index the `W` table
/// in post-order. Checks every `W` body's sub-program the same way. Tests
/// run it over lowering output.
bool VerifyProgram(const Program& program, std::string* error = nullptr);

}  // namespace exec
}  // namespace xptc

#endif  // XPTC_EXEC_PROGRAM_H_
