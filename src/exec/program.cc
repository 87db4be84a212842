#include "exec/program.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "exec/confine.h"
#include "xpath/axis_kernels.h"
#include "xpath/fragment.h"

namespace xptc {
namespace exec {
namespace {

// Closure-op mnemonic for an axis produced by `TransitiveClosureAxis`
// (desc → interval fill, anc → backward mark sweep, fsib/psib → chain).
Op ClosureOpFor(Axis closure) {
  switch (closure) {
    case Axis::kDescendant:
      return Op::kDescFill;
    case Axis::kAncestor:
      return Op::kAncMark;
    default:
      return Op::kSibChain;
  }
}

// ---------------------------------------------------------------------------
// Lowering: NodeExpr DAG -> flat instruction sequences (SSA virtual regs).
//
// Memos are keyed by node address, so a hash-consed plan (Query::plan())
// has every repeated subexpression lowered once. Node-expression
// results are context-free, so they are always emitted into the top-level
// sequence — in particular filter predicates are hoisted out of star loop
// bodies and computed once. Star bodies are lowered into their own
// sequences first; the owning kStar instruction is appended afterwards, so
// within every sequence definitions precede uses in execution order.
//
// Two fixed rules apply as instructions are emitted:
//  - fuse: `φ and not ψ`, `φ or not ψ` and a filter `[not ψ]` become one
//    kAndNot/kOrNot over ψ's register. The kNot itself is emitted only when
//    something reads `not ψ` as a value (LowerNode), never for a fused use.
//  - value numbering: every pure instruction goes through `Emit`, which
//    returns the existing register when an identical instruction (same op
//    and operands, kAnd/kOr operands sorted) already sits in the sequence.

struct LoopSeq {
  std::vector<Instr> instrs;
  // Backward-image memo: (canonical path, targets vreg) -> result vreg.
  // Sequence-local: a body re-entered each iteration recomputes, but two
  // occurrences of the same sub-path over the same operand share.
  std::map<std::pair<const PathExpr*, int>, int> path_memo;
  // Value numbers: (op, a, b, axis, label) -> the vreg already holding it.
  std::map<std::tuple<Op, int, int, Axis, Symbol>, int> values;
};

class Lowerer {
 public:
  // Maps a canonical `W` body to its index in the root's body table,
  // lowering the body first if it is new.
  using WithinIndex = std::function<int(const NodePtr& body)>;

  explicit Lowerer(WithinIndex within_index)
      : within_index_(std::move(within_index)) {}

  struct Output {
    std::vector<Instr> code;
    int main_end = 0;
    int result_vreg = -1;
    int num_vregs = 0;
    int dag_hits = 0;
  };

  Output Lower(const NodePtr& plan) {
    seqs_.emplace_back();  // seq 0: the top-level sequence
    const int result = LowerNode(plan);
    Output out;
    out.result_vreg = result;
    out.num_vregs = num_vregs_;
    out.dag_hits = dag_hits_;
    // Linearize: main first, then loop bodies in creation order; rewrite
    // each kStar's body reference from sequence id to instruction range.
    std::vector<int> offset(seqs_.size(), 0);
    out.main_end = static_cast<int>(seqs_[0].instrs.size());
    int at = 0;
    for (size_t s = 0; s < seqs_.size(); ++s) {
      offset[s] = at;
      at += static_cast<int>(seqs_[s].instrs.size());
    }
    out.code.reserve(static_cast<size_t>(at));
    for (auto& seq : seqs_) {
      for (auto& ins : seq.instrs) out.code.push_back(std::move(ins));
    }
    for (auto& ins : out.code) {
      if (ins.op == Op::kStar) {
        const int seq = ins.body_begin;
        ins.body_begin = offset[static_cast<size_t>(seq)];
        ins.body_end =
            ins.body_begin +
            static_cast<int>(seqs_[static_cast<size_t>(seq)].instrs.size());
      }
    }
    return out;
  }

 private:
  int NewVreg() { return num_vregs_++; }

  int NewSeq() {
    seqs_.emplace_back();
    return static_cast<int>(seqs_.size()) - 1;
  }

  void Append(int seq, Instr ins) {
    seqs_[static_cast<size_t>(seq)].instrs.push_back(std::move(ins));
  }

  // Emits the pure instruction `ins` into `seq` and returns its register —
  // or, when an identical instruction already sits in `seq`, that one's.
  int Emit(int seq, Instr ins) {
    if ((ins.op == Op::kAnd || ins.op == Op::kOr) && ins.b < ins.a) {
      std::swap(ins.a, ins.b);
    }
    LoopSeq& s = seqs_[static_cast<size_t>(seq)];
    const auto [it, fresh] = s.values.try_emplace(
        std::make_tuple(ins.op, ins.a, ins.b, ins.axis, ins.label),
        num_vregs_);
    if (!fresh) {
      ++dag_hits_;
      return it->second;
    }
    ins.dst = NewVreg();
    s.instrs.push_back(std::move(ins));
    return it->second;
  }

  static Instr Make(Op op, int a = -1, int b = -1) {
    Instr ins;
    ins.op = op;
    ins.a = a;
    ins.b = b;
    return ins;
  }

  // The all-nodes register (emitted once, in the main sequence).
  int TrueReg() { return Emit(0, Make(Op::kTrue)); }

  // Register of `node` as an operand that may fuse: for `not ψ` it is ψ's
  // register with `*negated` set, and no kNot is emitted.
  int LowerFusable(const NodePtr& node, bool* negated) {
    *negated = node->op == NodeOp::kNot;
    return LowerNode(*negated ? node->left : node);
  }

  // Register holding the node set of `node`. Node-expression values are
  // context-free, so they always live in the main sequence.
  int LowerNode(const NodePtr& node) {
    auto it = node_memo_.find(node.get());
    if (it != node_memo_.end()) {
      ++dag_hits_;
      return it->second;
    }
    int reg = -1;
    switch (node->op) {
      case NodeOp::kTrue:
        reg = TrueReg();
        break;
      case NodeOp::kLabel: {
        Instr ins = Make(Op::kLabel);
        ins.label = node->label;
        reg = Emit(0, ins);
        break;
      }
      case NodeOp::kNot:
        reg = Emit(0, Make(Op::kNot, LowerNode(node->left)));
        break;
      case NodeOp::kAnd:
      case NodeOp::kOr: {
        // Fuse a `not` operand (the right one when both are negated).
        bool neg_a, neg_b;
        int a = LowerFusable(node->left, &neg_a);
        int b = LowerFusable(node->right, &neg_b);
        if (neg_a && neg_b) {
          a = LowerNode(node->left);
        } else if (neg_a) {
          std::swap(a, b);
        }
        const bool fused = neg_a || neg_b;
        const Op op = node->op == NodeOp::kAnd
                          ? (fused ? Op::kAndNot : Op::kAnd)
                          : (fused ? Op::kOrNot : Op::kOr);
        reg = Emit(0, Make(op, a, b));
        break;
      }
      case NodeOp::kSome:
        reg = LowerPathBack(node->path, TrueReg(), 0);
        break;
      case NodeOp::kWithin: {
        // The body is its own sub-program: W results are context-free (φ
        // at v only sees T|v), so the engine computes the whole set once
        // per tree and this instruction reads its window of it.
        Instr ins;
        ins.op = Op::kWithin;
        ins.within = within_index_(node->left);
        ins.dst = NewVreg();
        Append(0, ins);
        reg = ins.dst;
        break;
      }
    }
    node_memo_.emplace(node.get(), reg);
    return reg;
  }

  // Register holding the backward image {v : ∃t ∈ targets, (v, t) ∈ [[p]]},
  // emitted into sequence `seq`. ⟨p⟩φ = back(p, φ), which is why kAxis
  // stores the *inverse* axis.
  int LowerPathBack(const PathPtr& path, int targets, int seq) {
    const auto key = std::make_pair(path.get(), targets);
    {
      const auto& memo = seqs_[static_cast<size_t>(seq)].path_memo;
      auto it = memo.find(key);
      if (it != memo.end()) {
        ++dag_hits_;
        return it->second;
      }
    }
    int reg = -1;
    switch (path->op) {
      case PathOp::kAxis: {
        Instr ins = Make(Op::kAxis, targets);
        ins.axis = InverseAxis(path->axis);
        reg = Emit(seq, ins);
        break;
      }
      case PathOp::kSeq: {
        const int mid = LowerPathBack(path->right, targets, seq);
        reg = LowerPathBack(path->left, mid, seq);
        break;
      }
      case PathOp::kUnion: {
        const int left = LowerPathBack(path->left, targets, seq);
        const int right = LowerPathBack(path->right, targets, seq);
        reg = Emit(seq, Make(Op::kOr, left, right));
        break;
      }
      case PathOp::kFilter: {
        bool negated;
        const int pred = LowerFusable(path->pred, &negated);  // main, once
        const int kept =
            Emit(seq, Make(negated ? Op::kAndNot : Op::kAnd, targets, pred));
        reg = LowerPathBack(path->left, kept, seq);
        break;
      }
      case PathOp::kStar: {
        // Closure collapse: a star whose body is one bare axis step is the
        // reflexive-transitive closure of that step — when the closure is
        // itself a one-pass streaming kernel, emit one closure instruction
        // (dst := targets ∪ closure-image(targets)) instead of the
        // O(rounds) fixpoint loop below. The body axis is inverted first
        // because this lowering computes backward images.
        Axis closure;
        if (axis::ClosureCollapseEnabled() &&
            path->left->op == PathOp::kAxis &&
            TransitiveClosureAxis(InverseAxis(path->left->axis), &closure)) {
          Instr ins = Make(ClosureOpFor(closure), targets);
          ins.axis = closure;
          reg = Emit(seq, ins);
          break;
        }
        // Semi-naive closure: the body maps the frontier `in` one p-step
        // back to `out`; the engine accumulates into dst until empty.
        const int body = NewSeq();
        Instr ins;
        ins.op = Op::kStar;
        ins.a = targets;
        ins.in = NewVreg();
        ins.out = LowerPathBack(path->left, ins.in, body);
        ins.dst = NewVreg();
        ins.body_begin = body;  // sequence id; linearization rewrites
        Append(seq, ins);
        reg = ins.dst;
        break;
      }
    }
    seqs_[static_cast<size_t>(seq)].path_memo.emplace(key, reg);
    return reg;
  }

  WithinIndex within_index_;
  std::vector<LoopSeq> seqs_;
  std::unordered_map<const NodeExpr*, int> node_memo_;
  int num_vregs_ = 0;
  int dag_hits_ = 0;
};

// ---------------------------------------------------------------------------
// Register allocation: loop-aware liveness + linear scan.
//
// Positions are assigned in execution order (loop bodies numbered at their
// kStar site; the star itself gets a loop-entry position, where it reads
// the seed and defines dst/in, and a loop-exit position, where the engine
// last touches dst/in/out). A value defined before a loop and used inside
// it must survive every iteration, so its interval is extended to the loop
// exit. Values defined inside a body are fully recomputed each iteration
// and need no extension.

class RegisterAllocator {
 public:
  // Rewrites vreg operands in `code` to physical registers; returns the
  // physical register count.
  int Run(std::vector<Instr>* code, int main_end, int num_vregs,
          int* result_reg, int result_vreg) {
    live_.resize(static_cast<size_t>(num_vregs));
    int pos = 0;
    WalkRange(*code, 0, main_end, &pos);
    for (auto& lv : live_) {
      XPTC_CHECK(lv.def != kUnset) << "vreg never defined";
      lv.last = std::max(lv.last, lv.def);
    }
    // Loop extension: anything defined before a loop and used inside it is
    // re-read on every iteration, so it must stay live to the loop exit.
    for (const auto& [start, end] : loops_) {
      for (auto& lv : live_) {
        if (lv.def >= start) continue;
        const auto it = std::upper_bound(lv.uses.begin(), lv.uses.end(), start);
        if (it != lv.uses.end() && *it <= end) lv.last = std::max(lv.last, end);
      }
    }
    // Linear scan over def order. Two vregs may share a physical register
    // only if their intervals are disjoint; an operand live at another
    // vreg's definition therefore never aliases its destination (the
    // engine overwrites dst before reading it would be catastrophic).
    std::vector<int> order(static_cast<size_t>(num_vregs));
    for (int v = 0; v < num_vregs; ++v) order[static_cast<size_t>(v)] = v;
    std::sort(order.begin(), order.end(), [this](int a, int b) {
      const auto& la = live_[static_cast<size_t>(a)];
      const auto& lb = live_[static_cast<size_t>(b)];
      return la.def != lb.def ? la.def < lb.def : a < b;
    });
    std::vector<int> assign(static_cast<size_t>(num_vregs), -1);
    std::priority_queue<int, std::vector<int>, std::greater<int>> free_regs;
    using Active = std::pair<int, int>;  // (last position, physical reg)
    std::priority_queue<Active, std::vector<Active>, std::greater<Active>>
        active;
    int num_regs = 0;
    for (const int v : order) {
      const auto& lv = live_[static_cast<size_t>(v)];
      while (!active.empty() && active.top().first < lv.def) {
        free_regs.push(active.top().second);
        active.pop();
      }
      int reg;
      if (!free_regs.empty()) {
        reg = free_regs.top();
        free_regs.pop();
      } else {
        reg = num_regs++;
      }
      assign[static_cast<size_t>(v)] = reg;
      active.emplace(lv.last, reg);
    }
    auto remap = [&assign](int* field) {
      if (*field >= 0) *field = assign[static_cast<size_t>(*field)];
    };
    for (auto& ins : *code) {
      remap(&ins.dst);
      remap(&ins.a);
      remap(&ins.b);
      remap(&ins.in);
      remap(&ins.out);
    }
    *result_reg = assign[static_cast<size_t>(result_vreg)];
    return num_regs;
  }

 private:
  static constexpr int kUnset = std::numeric_limits<int>::max();

  struct Live {
    int def = kUnset;
    int last = -1;
    std::vector<int> uses;  // increasing (walk order)
  };

  void Def(int vreg, int pos) {
    auto& lv = live_[static_cast<size_t>(vreg)];
    lv.def = std::min(lv.def, pos);
  }

  void Use(int vreg, int pos) {
    if (vreg < 0) return;
    auto& lv = live_[static_cast<size_t>(vreg)];
    lv.last = std::max(lv.last, pos);
    lv.uses.push_back(pos);
  }

  void WalkRange(const std::vector<Instr>& code, int begin, int end,
                 int* pos) {
    for (int i = begin; i < end; ++i) {
      const Instr& ins = code[static_cast<size_t>(i)];
      if (ins.op == Op::kStar) {
        const int entry = (*pos)++;
        Use(ins.a, entry);
        Def(ins.dst, entry);
        Def(ins.in, entry);
        WalkRange(code, ins.body_begin, ins.body_end, pos);
        const int exit = (*pos)++;
        Use(ins.out, exit);
        Use(ins.in, exit);
        Use(ins.dst, exit);
        loops_.emplace_back(entry, exit);
      } else {
        const int at = (*pos)++;
        Use(ins.a, at);
        Use(ins.b, at);
        Def(ins.dst, at);
      }
    }
  }

  std::vector<Live> live_;
  std::vector<std::pair<int, int>> loops_;
};

// Recursive half of VerifyProgram: checks [begin, end) and every star body
// it enters, marking each instruction visited. kWithin operands must lie in
// [0, within_limit).
bool VerifyWalk(const Program& program, int begin, int end, int within_limit,
                std::vector<char>* visited, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  const std::vector<Instr>& code = program.code();
  if (begin < 0 || end < begin || end > static_cast<int>(code.size())) {
    return fail("instruction range out of bounds");
  }
  const auto ok_reg = [&program](int reg) {
    return reg >= 0 && reg < program.num_regs();
  };
  for (int i = begin; i < end; ++i) {
    if ((*visited)[static_cast<size_t>(i)]) {
      return fail("instruction " + std::to_string(i) + " visited twice");
    }
    (*visited)[static_cast<size_t>(i)] = 1;
    const Instr& ins = code[static_cast<size_t>(i)];
    if (!ok_reg(ins.dst)) {
      return fail("instruction " + std::to_string(i) + ": bad dst register");
    }
    bool need_a = false, need_b = false;
    switch (ins.op) {
      case Op::kTrue:
        break;
      case Op::kLabel:
        if (ins.label == kInvalidSymbol) {
          return fail("instruction " + std::to_string(i) + ": invalid label");
        }
        break;
      case Op::kNot:
      case Op::kAxis:
      case Op::kDescFill:
      case Op::kAncMark:
      case Op::kSibChain:
        need_a = true;
        break;
      case Op::kAnd:
      case Op::kOr:
      case Op::kAndNot:
      case Op::kOrNot:
        need_a = need_b = true;
        break;
      case Op::kWithin:
        if (ins.within < 0 || ins.within >= within_limit) {
          return fail("instruction " + std::to_string(i) +
                      ": kWithin body out of post-order");
        }
        break;
      case Op::kStar:
        need_a = true;
        if (!ok_reg(ins.in) || !ok_reg(ins.out)) {
          return fail("instruction " + std::to_string(i) +
                      ": bad star in/out register");
        }
        if (!VerifyWalk(program, ins.body_begin, ins.body_end, within_limit,
                        visited, error)) {
          return false;
        }
        break;
    }
    if (need_a && !ok_reg(ins.a)) {
      return fail("instruction " + std::to_string(i) + ": bad operand a");
    }
    if (need_b && !ok_reg(ins.b)) {
      return fail("instruction " + std::to_string(i) + ": bad operand b");
    }
  }
  return true;
}

}  // namespace

struct Program::WithinTable {
  std::vector<WithinBody> bodies;
  std::unordered_map<const NodeExpr*, int> index;  // canonical body → slot
};

std::shared_ptr<Program> Program::Lower(const NodePtr& plan,
                                        WithinTable* table) {
  std::shared_ptr<Program> program(new Program());
  program->plan_ = plan;
  Lowerer::Output lowered =
      Lowerer([table](const NodePtr& body) {
        auto it = table->index.find(body.get());
        if (it != table->index.end()) return it->second;
        // Inner bodies are lowered (and numbered) before this one.
        std::shared_ptr<const Program> sub = Lower(body, table);
        WithinBody entry{body, NodeHash(*body), sub, {}};
        for (const Instr& ins : sub->code()) {
          if (ins.op == Op::kWithin) entry.deps.push_back(ins.within);
        }
        const int index = static_cast<int>(table->bodies.size());
        table->bodies.push_back(std::move(entry));
        table->index.emplace(body.get(), index);
        return index;
      }).Lower(plan);
  program->code_ = std::move(lowered.code);
  program->main_end_ = lowered.main_end;
  RegisterAllocator allocator;
  program->num_regs_ =
      allocator.Run(&program->code_, program->main_end_, lowered.num_vregs,
                    &program->result_reg_, lowered.result_vreg);
  CompileStats& stats = program->stats_;
  stats.num_instrs = static_cast<int>(program->code_.size());
  stats.num_vregs = lowered.num_vregs;
  stats.num_regs = program->num_regs_;
  stats.dag_hits = lowered.dag_hits;
  return program;
}

std::shared_ptr<const Program> Program::Compile(const NodePtr& query) {
  XPTC_CHECK(query != nullptr);
  // Confinement keeps the input's sharing (exec/confine.h), so a W that
  // the plan shares is analysed once and lowered once.
  std::vector<NodePtr> dropped;
  const NodePtr lowered =
      ConfineWindows(query, ConfineRules::kExact, &dropped);
  WithinTable table;
  std::shared_ptr<Program> program = Lower(lowered, &table);
  program->plan_ = query;
  program->within_bodies_ = std::move(table.bodies);
  CompileStats& stats = program->stats_;
  stats.ast_nodes = NodeSize(*query);
  stats.windows_dropped = static_cast<int>(dropped.size());
  program->dropped_windows_ = std::move(dropped);
  if (IsDownwardNode(*lowered)) {
    if (auto downward = DownwardProgram::Compile(lowered)) {
      program->downward_ =
          std::make_unique<const DownwardProgram>(std::move(*downward));
      stats.downward = true;
      stats.bit_ops = static_cast<int>(program->downward_->code().size());
    }
  }
  return program;
}

namespace {

// `bodies` is the root's W table (kWithin operands index it).
std::string InstrString(const Instr& ins, const Alphabet& alphabet,
                        const std::vector<WithinBody>& bodies) {
  std::ostringstream os;
  os << "r" << ins.dst << " = ";
  switch (ins.op) {
    case Op::kTrue:
      os << "true";
      break;
    case Op::kLabel:
      os << "label " << alphabet.Name(ins.label);
      break;
    case Op::kNot:
      os << "not r" << ins.a;
      break;
    case Op::kAnd:
      os << "and r" << ins.a << " r" << ins.b;
      break;
    case Op::kOr:
      os << "or r" << ins.a << " r" << ins.b;
      break;
    case Op::kAndNot:
      os << "andnot r" << ins.a << " r" << ins.b;
      break;
    case Op::kOrNot:
      os << "ornot r" << ins.a << " r" << ins.b;
      break;
    case Op::kAxis:
      os << "axis " << AxisToString(ins.axis) << " r" << ins.a;
      break;
    case Op::kStar:
      os << "star r" << ins.a << " body=[" << ins.body_begin << ","
         << ins.body_end << ") in=r" << ins.in << " out=r" << ins.out;
      break;
    case Op::kWithin:
      os << "within w" << ins.within << " "
         << NodeToString(*bodies[static_cast<size_t>(ins.within)].body,
                         alphabet);
      break;
    case Op::kDescFill:
      os << "descfill " << AxisToString(ins.axis) << " r" << ins.a;
      break;
    case Op::kAncMark:
      os << "ancmark " << AxisToString(ins.axis) << " r" << ins.a;
      break;
    case Op::kSibChain:
      os << "sibchain " << AxisToString(ins.axis) << " r" << ins.a;
      break;
  }
  return os.str();
}

}  // namespace

std::string Program::InstrToString(int i, const Alphabet& alphabet) const {
  return InstrString(code_[static_cast<size_t>(i)], alphabet, within_bodies_);
}

std::string Program::CodeToString(
    const Alphabet& alphabet, const std::vector<WithinBody>& bodies) const {
  std::ostringstream os;
  os << code_.size() << " instrs, " << num_regs_ << " regs, result r"
     << result_reg_ << ", main [0," << main_end_ << ")\n";
  for (size_t i = 0; i < code_.size(); ++i) {
    os << "  " << i << ": " << InstrString(code_[i], alphabet, bodies) << "\n";
  }
  return os.str();
}

std::string Program::ToString(const Alphabet& alphabet) const {
  std::ostringstream os;
  os << "program: " << CodeToString(alphabet, within_bodies_);
  for (size_t w = 0; w < within_bodies_.size(); ++w) {
    os << "within w" << w << ": "
       << within_bodies_[w].program->CodeToString(alphabet, within_bodies_);
  }
  if (downward_) os << downward_->ToString(alphabet);
  return os.str();
}

namespace {

// VerifyProgram for one program whose kWithin operands must lie in
// [0, within_limit).
bool VerifyCode(const Program& program, int within_limit,
                std::string* error) {
  const auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (program.main_end() < 0 ||
      program.main_end() > static_cast<int>(program.code().size())) {
    return fail("main_end out of bounds");
  }
  if (program.result_reg() < 0 || program.result_reg() >= program.num_regs()) {
    return fail("result register out of bounds");
  }
  std::vector<char> visited(program.code().size(), 0);
  if (!VerifyWalk(program, 0, program.main_end(), within_limit, &visited,
                  error)) {
    return false;
  }
  for (size_t i = 0; i < visited.size(); ++i) {
    if (!visited[i]) {
      return fail("unreachable instruction (orphaned star body)");
    }
  }
  return true;
}

}  // namespace

bool VerifyProgram(const Program& program, std::string* error) {
  const std::vector<WithinBody>& bodies = program.within_bodies();
  for (size_t w = 0; w < bodies.size(); ++w) {
    // Post-order: body w reads only bodies before it.
    if (!VerifyCode(*bodies[w].program, static_cast<int>(w), error)) {
      return false;
    }
  }
  return VerifyCode(program, static_cast<int>(bodies.size()), error);
}

}  // namespace exec
}  // namespace xptc
