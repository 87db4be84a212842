#ifndef XPTC_EXEC_DOWNWARD_H_
#define XPTC_EXEC_DOWNWARD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "common/bitset.h"
#include "tree/tree.h"
#include "xpath/ast.h"

namespace xptc {
namespace exec {

/// Per-node boolean operations of a downward bit program. Each instruction
/// defines one bit of the node's *state word* from earlier bits of the same
/// word, the node's label, or the child-aggregate word `A` (the OR of the
/// state words of the node's children, which are final when the node is
/// processed — see `DownwardProgram`).
enum class BitOp : uint8_t {
  kTrue,   // dst := 1
  kLabel,  // dst := [label(v) == label]
  kNot,    // dst := !bit(a)
  kAnd,    // dst := bit(a) & bit(b)
  kOr,     // dst := bit(a) | bit(b)
  kAgg,    // dst := A[a] — some child's bit `a` is set
};

struct BitInstr {
  BitOp op;
  int dst;
  int a = -1;
  int b = -1;
  Symbol label = kInvalidSymbol;
};

/// One-pass linear engine for the downward fragment (axes self/child/desc/
/// dos only, including under filters, stars and W): the lazily determinised
/// form of the paper's bottom-up automaton, `DownwardCompiledQueryToDfta`
/// (DESIGN §3, §10.3). A downward node expression only looks at the
/// subtree T|v, so its value at every node can be computed in a single
/// bottom-up sweep, realising T2's linear combined complexity O(|Q|·|T|)
/// with no fixpoint iteration at all.
///
/// Compilation turns the (hash-consed) expression DAG into a straight-line
/// program over a per-node bit vector: one bit per distinct subformula /
/// path continuation. Star fixpoints become plain bits: a reference to a
/// bit *before* its defining instruction reads 0, which for the monotone
/// equation systems produced here is exactly the least-fixpoint seed
/// (instructions OR into the state word, so re-running a mutually
/// recursive group — emitted as a bounded number of repeated rounds —
/// performs chaotic iteration to the exact least fixpoint). References
/// through `A` always see final values: children complete before parents.
///
/// The program is the automaton's transition function, run only on a table
/// miss. Let K be the bits some `kAgg` reads. A node's state word depends only
/// on its label class (each program label is its own class, every other
/// label shares class 0) and on A & K, so the sweep memoises
/// δ(class, A & K) = (result bit, state word & K). The aggregate is kept
/// compressed to |K| bits. A table miss runs the bit program once and a
/// hit is one probe, so the sweep does one probe per node and at most
/// min(n, classes·2^|K|) interpretations: O(|code|·|T|) unconditionally.
///
/// Execution processes nodes in *descending* preorder id. Children have
/// larger ids than their parent, so when node v is reached every child's
/// K-projection has been ORed into its aggregate already.
class DownwardProgram {
 public:
  /// Per-run mutable state of the sweep, owned by the caller so repeated
  /// runs reuse the buffers (resized and overwritten by `Run`).
  struct SweepState {
    std::vector<uint64_t> agg;    // compressed child aggregates per node
    std::vector<uint64_t> table;  // δ entries: direct-indexed or appended
    std::vector<int32_t> slots;   // hashed mode: open-addressing index
    std::vector<uint64_t> adjacent;  // miss path: full-width aggregate
    std::vector<uint64_t> word;      // miss path: full-width state word
    int64_t entries = 0;  // transfer entries the last run built
  };

  /// Compiles a downward node expression (caller gates on
  /// `IsDownwardNode`); `plan` should be hash-consed so the DAG is shared.
  /// Returns nullopt if the expression uses a non-downward axis.
  static std::optional<DownwardProgram> Compile(const NodePtr& plan);

  /// Bits per state word stack (program width).
  int num_bits() const { return num_bits_; }
  /// The bit of the state word holding the query result.
  int result_bit() const { return result_bit_; }
  const std::vector<BitInstr>& code() const { return code_; }
  /// K: the bits some `kAgg` reads, ascending.
  const std::vector<int>& agg_bits() const { return agg_bits_; }

  /// Executes the single bottom-up sweep over `tree`, returning the set of
  /// nodes satisfying the compiled expression; `state->entries` is set to
  /// the number of transfer entries the sweep built.
  Bitset Run(const Tree& tree, SweepState* state) const;

  /// Deterministic disassembly (used by lowering-determinism tests).
  std::string ToString(const Alphabet& alphabet) const;

 private:
  DownwardProgram() = default;

  template <class Table>
  void Sweep(const Tree& tree, Table table, SweepState* state,
             Bitset* out) const;
  /// The miss path: δ(label, compressed aggregate `a`) into `entry`
  /// (result bit, then the compressed K-projection of the state word).
  void Transfer(Symbol label, const uint64_t* a, SweepState* state,
                uint64_t* entry) const;
  uint64_t InterpretNarrow(Symbol label, uint64_t adjacent) const;
  void InterpretWide(Symbol label, const uint64_t* adjacent,
                     uint64_t* w) const;

  std::vector<BitInstr> code_;
  int num_bits_ = 0;
  int result_bit_ = -1;
  std::vector<int> agg_bits_;         // K
  int key_words_ = 1;                 // words of a compressed aggregate
  std::vector<uint32_t> label_class_;  // Symbol → class (0: no program label)
  uint32_t num_classes_ = 1;
};

}  // namespace exec
}  // namespace xptc

#endif  // XPTC_EXEC_DOWNWARD_H_
