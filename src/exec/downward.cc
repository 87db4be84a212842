#include "exec/downward.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace xptc {
namespace exec {

namespace {

// Demand-driven lowering of a downward expression DAG into single-assignment
// bit definitions. Every definition is emitted exactly once; fixpoint bits
// (star results and descendant helpers) are allocated first and defined
// after their body, so a definition may *reference* a bit whose defining
// instruction comes later. The scheduler below then reorders definitions so
// that only genuinely cyclic references (same-node fixpoint feedback) stay
// forward — everything else, in particular every bit the parent reads
// through the child-aggregate, is computed from final operand values.
class DownwardLowerer {
 public:
  bool Lower(const NodePtr& plan, std::vector<BitInstr>* code, int* num_bits,
             int* result_bit) {
    const int result = LowerNode(plan.get());
    if (!ok_) return false;
    if (!Schedule(code)) return false;
    *num_bits = next_bit_;
    *result_bit = result;
    return true;
  }

 private:
  int Alloc() { return next_bit_++; }

  // Value-numbered: an identical (op, a, b, label) — commuted operands
  // included — returns the bit that already holds it, and `and x x` /
  // `or x x` fold to x. Fixpoint bits (allocated first, then closed by
  // `Define`) are never shared: each is its own equation's unknown.
  int Emit(BitOp op, int a = -1, int b = -1, Symbol label = kInvalidSymbol) {
    const bool commutes = op == BitOp::kAnd || op == BitOp::kOr;
    if (commutes && a == b) return a;
    const auto [it, inserted] = emitted_.try_emplace(
        commutes ? std::make_tuple(op, std::min(a, b), std::max(a, b), label)
                 : std::make_tuple(op, a, b, label),
        next_bit_);
    if (!inserted) return it->second;
    const int dst = Alloc();
    Define(dst, op, a, b, label);
    return dst;
  }

  void Define(int dst, BitOp op, int a = -1, int b = -1,
              Symbol label = kInvalidSymbol) {
    defs_.push_back(BitInstr{op, dst, a, b, label});
  }

  // Bit holding the value of node expression `e` at the current node.
  // Memoized per canonical pointer: the DAG lowers once.
  int LowerNode(const NodeExpr* e) {
    if (!ok_) return 0;
    auto it = node_memo_.find(e);
    if (it != node_memo_.end()) return it->second;
    int bit = 0;
    switch (e->op) {
      case NodeOp::kTrue:
        bit = Emit(BitOp::kTrue);
        break;
      case NodeOp::kLabel:
        bit = Emit(BitOp::kLabel, -1, -1, e->label);
        break;
      case NodeOp::kNot:
        bit = Emit(BitOp::kNot, LowerNode(e->left.get()));
        break;
      case NodeOp::kAnd:
        bit = Emit(BitOp::kAnd, LowerNode(e->left.get()),
                   LowerNode(e->right.get()));
        break;
      case NodeOp::kOr:
        bit = Emit(BitOp::kOr, LowerNode(e->left.get()),
                   LowerNode(e->right.get()));
        break;
      case NodeOp::kSome:
        bit = LowerPath(e->path.get(), Emit(BitOp::kTrue));
        break;
      case NodeOp::kWithin:
        // Downward φ only sees the subtree, so W φ ≡ φ.
        bit = LowerNode(e->left.get());
        break;
    }
    node_memo_.emplace(e, bit);
    return bit;
  }

  // Bit holding ⟨p⟩cont at the current node: "some node reachable via p
  // (within the subtree) satisfies the continuation bit". Memoized per
  // (canonical path, continuation bit).
  int LowerPath(const PathExpr* p, int cont) {
    if (!ok_) return 0;
    const auto key = std::make_pair(p, cont);
    auto it = path_memo_.find(key);
    if (it != path_memo_.end()) return it->second;
    int bit = 0;
    switch (p->op) {
      case PathOp::kAxis:
        switch (p->axis) {
          case Axis::kSelf:
            bit = cont;
            break;
          case Axis::kChild:
            bit = Emit(BitOp::kAgg, cont);
            break;
          case Axis::kDescendant:
          case Axis::kDescendantOrSelf: {
            // m := cont ∨ A[m] — "cont holds somewhere in the subtree";
            // the strict-descendant result is t := A[m].
            const int m = Alloc();
            const int t = Emit(BitOp::kAgg, m);
            Define(m, BitOp::kOr, cont, t);
            bit = p->axis == Axis::kDescendant ? t : m;
            break;
          }
          default:
            ok_ = false;  // non-downward axis; caller falls back
            break;
        }
        break;
      case PathOp::kSeq:
        bit = LowerPath(p->left.get(), LowerPath(p->right.get(), cont));
        break;
      case PathOp::kUnion: {
        const int l = LowerPath(p->left.get(), cont);
        const int r = LowerPath(p->right.get(), cont);
        bit = Emit(BitOp::kOr, l, r);
        break;
      }
      case PathOp::kFilter: {
        const int pred = LowerNode(p->pred.get());
        const int gated = Emit(BitOp::kAnd, pred, cont);
        bit = LowerPath(p->left.get(), gated);
        break;
      }
      case PathOp::kStar: {
        // s := cont ∨ ⟨p⟩s — allocate the fixpoint bit first so the body
        // can reference it (directly for pure-self feedback, via A for
        // descending feedback), then close the equation.
        const int s = Alloc();
        path_memo_.emplace(key, s);
        const int h = LowerPath(p->left.get(), s);
        Define(s, BitOp::kOr, cont, h);
        return s;  // memo entry inserted above (before recursing)
      }
    }
    path_memo_.emplace(key, bit);
    return bit;
  }

  // Reorders definitions so every *own-bit* operand (kNot/kAnd/kOr) is
  // defined before its use, except inside strongly connected groups of
  // mutually recursive fixpoint equations, which are emitted as |SCC|
  // repeated rounds (chaotic iteration over a monotone boolean system of
  // |SCC| unknowns reaches the least fixpoint within |SCC| full passes;
  // reads of a not-yet-computed bit see 0 = ⊥). kAgg operands impose no
  // order: they read the children's completed words.
  bool Schedule(std::vector<BitInstr>* code) {
    const int n = static_cast<int>(defs_.size());
    std::vector<int> def_of_bit(static_cast<size_t>(next_bit_), -1);
    for (int i = 0; i < n; ++i) def_of_bit[defs_[i].dst] = i;
    // Own-bit dependency edges: instruction i depends on dep(i).
    auto own_deps = [&](const BitInstr& ins, auto&& fn) {
      if (ins.op == BitOp::kNot || ins.op == BitOp::kAnd ||
          ins.op == BitOp::kOr) {
        if (ins.a >= 0) fn(def_of_bit[static_cast<size_t>(ins.a)]);
        if (ins.b >= 0) fn(def_of_bit[static_cast<size_t>(ins.b)]);
      }
    };
    // Tarjan SCC over the instruction dependency graph.
    std::vector<int> index(static_cast<size_t>(n), -1),
        low(static_cast<size_t>(n), 0), comp(static_cast<size_t>(n), -1);
    std::vector<bool> on_stack(static_cast<size_t>(n), false);
    std::vector<int> stack;
    std::vector<std::vector<int>> sccs;
    int next_index = 0;
    // Iterative Tarjan (defensive: program depth tracks query size, which
    // fuzzers make deep).
    struct Frame {
      int v;
      int dep_pos;
      std::vector<int> deps;
    };
    std::vector<Frame> frames;
    for (int start = 0; start < n; ++start) {
      if (index[start] >= 0) continue;
      frames.push_back(Frame{start, 0, {}});
      while (!frames.empty()) {
        Frame& f = frames.back();
        if (f.dep_pos == 0 && index[f.v] < 0) {
          index[f.v] = low[f.v] = next_index++;
          stack.push_back(f.v);
          on_stack[f.v] = true;
          own_deps(defs_[f.v], [&](int d) { f.deps.push_back(d); });
        }
        bool descended = false;
        while (f.dep_pos < static_cast<int>(f.deps.size())) {
          const int d = f.deps[f.dep_pos++];
          if (index[d] < 0) {
            frames.push_back(Frame{d, 0, {}});
            descended = true;
            break;
          }
          if (on_stack[d]) low[f.v] = std::min(low[f.v], index[d]);
        }
        if (descended) continue;
        if (low[f.v] == index[f.v]) {
          sccs.emplace_back();
          for (;;) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp[w] = static_cast<int>(sccs.size()) - 1;
            sccs.back().push_back(w);
            if (w == f.v) break;
          }
        }
        const int v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
    // Topological order over the SCC condensation, deterministic: ready
    // components are taken smallest-original-instruction first.
    const int num_comps = static_cast<int>(sccs.size());
    std::vector<int> pending(static_cast<size_t>(num_comps), 0);
    std::vector<std::vector<int>> dependents(static_cast<size_t>(num_comps));
    for (int i = 0; i < n; ++i) {
      own_deps(defs_[i], [&](int d) {
        if (comp[d] != comp[i]) {
          dependents[comp[d]].push_back(comp[i]);
          ++pending[comp[i]];
        }
      });
    }
    for (auto& scc : sccs) std::sort(scc.begin(), scc.end());
    std::map<int, int> ready;  // min member instr -> comp (deterministic)
    for (int c = 0; c < num_comps; ++c) {
      if (pending[c] == 0) ready.emplace(sccs[c].front(), c);
    }
    code->clear();
    int emitted = 0;
    while (!ready.empty()) {
      const int c = ready.begin()->second;
      ready.erase(ready.begin());
      const auto& members = sccs[c];
      // A singleton with a self-loop (s := cont ∨ s, from p = self*) still
      // needs only one application: for a single monotone unknown,
      // g(0) = 0 makes 0 the least fixpoint and g(0) = 1 is a fixpoint.
      const int rounds =
          members.size() > 1 ? static_cast<int>(members.size()) : 1;
      for (int r = 0; r < rounds; ++r) {
        for (const int i : members) {
          // A negation inside a recursive group would make the chaotic
          // iteration unsound; lowering never produces one (negation only
          // applies to node expressions, whose lowering never references a
          // pending fixpoint), but fail closed rather than miscompile.
          if (rounds > 1 && defs_[i].op == BitOp::kNot) return false;
          code->push_back(defs_[i]);
        }
      }
      emitted += static_cast<int>(members.size());
      for (const int d : dependents[c]) {
        if (--pending[d] == 0) ready.emplace(sccs[d].front(), d);
      }
    }
    return emitted == n;
  }

  std::vector<BitInstr> defs_;
  std::unordered_map<const NodeExpr*, int> node_memo_;
  std::map<std::pair<const PathExpr*, int>, int> path_memo_;
  std::map<std::tuple<BitOp, int, int, Symbol>, int> emitted_;
  int next_bit_ = 0;
  bool ok_ = true;
};

inline bool GetBit(const uint64_t* words, int i) {
  return (words[static_cast<size_t>(i) >> 6] >> (i & 63)) & 1;
}

inline void SetBit(uint64_t* words, int i) {
  words[static_cast<size_t>(i) >> 6] |= uint64_t{1} << (i & 63);
}

// δ indexed by (class << |K|) | a, for a one-word aggregate and a small
// class·2^|K|. An entry is two words (result bit, K-projection); the result
// word reads kUnfilled until the miss path fills it.
class DirectTable {
 public:
  static constexpr size_t kMaxEntries = 4096;
  static constexpr uint64_t kUnfilled = ~uint64_t{0};

  DirectTable(std::vector<uint64_t>* table, int k, uint32_t classes)
      : k_(k) {
    table->assign((size_t{classes} << k) * 2, kUnfilled);
    data_ = table->data();
  }
  static constexpr size_t words() { return 1; }
  uint64_t* Find(uint32_t c, const uint64_t* a) {
    uint64_t* entry = data_ + (((size_t{c} << k_) | a[0]) << 1);
    return entry[0] == kUnfilled ? nullptr : entry;
  }
  uint64_t* Insert(uint32_t c, const uint64_t* a) {
    return data_ + (((size_t{c} << k_) | a[0]) << 1);
  }

 private:
  int k_;
  uint64_t* data_;
};

// δ as an open-addressing hash table over entries appended to `table`:
// each is (class, a[kw]) followed by (result bit, K-projection[kw]).
// Slots hold entry indices (-1 empty) and double past half full, so the
// table holds as many entries as the sweep has distinct keys, at most n.
class HashedTable {
 public:
  static constexpr size_t kInitialSlots = 256;

  HashedTable(std::vector<uint64_t>* table, std::vector<int32_t>* slots,
              size_t kw)
      : table_(table), slots_(slots), kw_(kw), stride_(2 * kw + 2) {
    table_->clear();
    slots_->assign(kInitialSlots, -1);
    shift_ = 64 - __builtin_ctzll(kInitialSlots);
  }
  size_t words() const { return kw_; }
  uint64_t* Find(uint32_t c, const uint64_t* a) {
    const size_t mask = slots_->size() - 1;
    for (size_t i = Hash(c, a);; i = (i + 1) & mask) {
      const int32_t e = (*slots_)[i];
      if (e < 0) {
        pending_ = i;
        return nullptr;
      }
      uint64_t* entry = table_->data() + static_cast<size_t>(e) * stride_;
      if (entry[0] == c && std::equal(a, a + kw_, entry + 1)) {
        return entry + kw_ + 1;
      }
    }
  }
  // Adds the key the last `Find` missed; returns its (unfilled) value.
  uint64_t* Insert(uint32_t c, const uint64_t* a) {
    const size_t index = table_->size() / stride_;
    table_->resize(table_->size() + stride_);
    uint64_t* entry = table_->data() + index * stride_;
    entry[0] = c;
    std::copy(a, a + kw_, entry + 1);
    if (2 * (index + 1) > slots_->size()) {
      Grow();
    } else {
      (*slots_)[pending_] = static_cast<int32_t>(index);
    }
    return entry + kw_ + 1;
  }

 private:
  size_t Hash(uint32_t c, const uint64_t* a) const {
    uint64_t h = (c + 1) * 0x9E3779B97F4A7C15ULL;
    for (size_t i = 0; i < kw_; ++i) h = (h ^ a[i]) * 0xBF58476D1CE4E5B9ULL;
    return static_cast<size_t>(h >> shift_);
  }
  void Grow() {
    const size_t size = slots_->size() * 2;
    slots_->assign(size, -1);
    --shift_;
    const size_t count = table_->size() / stride_;
    for (size_t e = 0; e < count; ++e) {
      const uint64_t* entry = table_->data() + e * stride_;
      size_t i = Hash(static_cast<uint32_t>(entry[0]), entry + 1);
      while ((*slots_)[i] >= 0) i = (i + 1) & (size - 1);
      (*slots_)[i] = static_cast<int32_t>(e);
    }
  }

  std::vector<uint64_t>* table_;
  std::vector<int32_t>* slots_;
  size_t kw_;
  size_t stride_;
  int shift_;
  size_t pending_ = 0;
};

}  // namespace

std::optional<DownwardProgram> DownwardProgram::Compile(const NodePtr& plan) {
  DownwardProgram program;
  DownwardLowerer lowerer;
  if (!lowerer.Lower(plan, &program.code_, &program.num_bits_,
                     &program.result_bit_)) {
    return std::nullopt;
  }
  for (const BitInstr& ins : program.code_) {
    if (ins.op == BitOp::kAgg) program.agg_bits_.push_back(ins.a);
    if (ins.op != BitOp::kLabel) continue;
    const size_t label = static_cast<size_t>(ins.label);
    if (label >= program.label_class_.size()) {
      program.label_class_.resize(label + 1, 0);
    }
    if (program.label_class_[label] == 0) {
      program.label_class_[label] = program.num_classes_++;
    }
  }
  std::vector<int>& k = program.agg_bits_;
  std::sort(k.begin(), k.end());
  k.erase(std::unique(k.begin(), k.end()), k.end());
  program.key_words_ =
      std::max<int>(1, (static_cast<int>(k.size()) + 63) / 64);
  return program;
}

Bitset DownwardProgram::Run(const Tree& tree, SweepState* state) const {
  XPTC_CHECK(!tree.empty());
  Bitset out(tree.size());
  const size_t kw = static_cast<size_t>(key_words_);
  state->agg.assign(static_cast<size_t>(tree.size()) * kw, 0);
  state->entries = 0;
  const int k = static_cast<int>(agg_bits_.size());
  if (k < 32 && (size_t{num_classes_} << k) <= DirectTable::kMaxEntries) {
    Sweep(tree, DirectTable(&state->table, k, num_classes_), state, &out);
  } else {
    Sweep(tree, HashedTable(&state->table, &state->slots, kw), state, &out);
  }
  return out;
}

template <class Table>
void DownwardProgram::Sweep(const Tree& tree, Table table, SweepState* state,
                            Bitset* out) const {
  const size_t kw = table.words();
  uint64_t* agg = state->agg.data();
  // The sweep touches every node once; stream the label/parent columns
  // directly instead of paying the accessor indexing per node.
  const Symbol* labels = tree.LabelData();
  const NodeId* parents = tree.ParentData();
  const uint32_t* classes = label_class_.data();
  const size_t num_labels = label_class_.size();
  uint64_t* out_words = out->mutable_words();
  uint64_t result = 0;  // the output word of v, filled from bit 63 down
  for (NodeId v = tree.size() - 1; v >= 0; --v) {
    const Symbol label = labels[v];
    const uint32_t c =
        static_cast<size_t>(label) < num_labels ? classes[label] : 0;
    const uint64_t* a = agg + static_cast<size_t>(v) * kw;
    uint64_t* entry = table.Find(c, a);
    if (entry == nullptr) {
      entry = table.Insert(c, a);
      Transfer(label, a, state, entry);
      ++state->entries;
    }
    // Branch-free: the result bit is as often set as not on many queries.
    result |= entry[0] << (v & 63);
    if ((v & 63) == 0) {
      out_words[static_cast<size_t>(v) >> 6] = result;
      result = 0;
    }
    const NodeId parent = parents[v];
    if (parent != kNoNode) {
      uint64_t* pa = agg + static_cast<size_t>(parent) * kw;
      for (size_t i = 0; i < kw; ++i) pa[i] |= entry[1 + i];
    }
  }
}

void DownwardProgram::Transfer(Symbol label, const uint64_t* a,
                               SweepState* state, uint64_t* entry) const {
  const int k = static_cast<int>(agg_bits_.size());
  if (num_bits_ <= 64) {
    uint64_t adjacent = 0;
    for (int j = 0; j < k; ++j) {
      adjacent |= ((a[0] >> j) & 1) << agg_bits_[static_cast<size_t>(j)];
    }
    const uint64_t w = InterpretNarrow(label, adjacent);
    uint64_t projection = 0;
    for (int j = 0; j < k; ++j) {
      projection |= ((w >> agg_bits_[static_cast<size_t>(j)]) & 1) << j;
    }
    entry[0] = (w >> result_bit_) & 1;
    entry[1] = projection;
    return;
  }
  const size_t words = static_cast<size_t>(num_bits_ + 63) / 64;
  state->adjacent.assign(words, 0);
  state->word.assign(words, 0);
  for (int j = 0; j < k; ++j) {
    if (GetBit(a, j)) {
      SetBit(state->adjacent.data(), agg_bits_[static_cast<size_t>(j)]);
    }
  }
  InterpretWide(label, state->adjacent.data(), state->word.data());
  entry[0] = GetBit(state->word.data(), result_bit_) ? 1 : 0;
  std::fill(entry + 1, entry + 1 + key_words_, 0);
  for (int j = 0; j < k; ++j) {
    if (GetBit(state->word.data(), agg_bits_[static_cast<size_t>(j)])) {
      SetBit(entry + 1, j);
    }
  }
}

uint64_t DownwardProgram::InterpretNarrow(Symbol label,
                                          uint64_t adjacent) const {
  uint64_t w = 0;
  for (const BitInstr& ins : code_) {
    uint64_t bit;
    switch (ins.op) {
      case BitOp::kTrue:
        bit = 1;
        break;
      case BitOp::kLabel:
        bit = label == ins.label ? 1 : 0;
        break;
      case BitOp::kNot:
        bit = ~(w >> ins.a) & 1;
        break;
      case BitOp::kAnd:
        bit = (w >> ins.a) & (w >> ins.b) & 1;
        break;
      case BitOp::kOr:
        bit = ((w >> ins.a) | (w >> ins.b)) & 1;
        break;
      case BitOp::kAgg:
        bit = (adjacent >> ins.a) & 1;
        break;
      default:
        bit = 0;
        break;
    }
    w |= bit << ins.dst;
  }
  return w;
}

void DownwardProgram::InterpretWide(Symbol label, const uint64_t* adjacent,
                                    uint64_t* w) const {
  for (const BitInstr& ins : code_) {
    bool bit;
    switch (ins.op) {
      case BitOp::kTrue:
        bit = true;
        break;
      case BitOp::kLabel:
        bit = label == ins.label;
        break;
      case BitOp::kNot:
        bit = !GetBit(w, ins.a);
        break;
      case BitOp::kAnd:
        bit = GetBit(w, ins.a) && GetBit(w, ins.b);
        break;
      case BitOp::kOr:
        bit = GetBit(w, ins.a) || GetBit(w, ins.b);
        break;
      case BitOp::kAgg:
        bit = GetBit(adjacent, ins.a);
        break;
      default:
        bit = false;
        break;
    }
    if (bit) SetBit(w, ins.dst);
  }
}

std::string DownwardProgram::ToString(const Alphabet& alphabet) const {
  std::ostringstream os;
  os << "downward program: " << num_bits_ << " bits, " << code_.size()
     << " ops, result b" << result_bit_ << "\n";
  for (const BitInstr& ins : code_) {
    os << "  b" << ins.dst << " = ";
    switch (ins.op) {
      case BitOp::kTrue:
        os << "true";
        break;
      case BitOp::kLabel:
        os << "label " << alphabet.Name(ins.label);
        break;
      case BitOp::kNot:
        os << "not b" << ins.a;
        break;
      case BitOp::kAnd:
        os << "and b" << ins.a << " b" << ins.b;
        break;
      case BitOp::kOr:
        os << "or b" << ins.a << " b" << ins.b;
        break;
      case BitOp::kAgg:
        os << "agg b" << ins.a;
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace exec
}  // namespace xptc
