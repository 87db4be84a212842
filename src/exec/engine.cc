#include "exec/engine.h"

#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "workload/tree_cache.h"
#include "xpath/ast.h"
#include "xpath/axis_kernels.h"

namespace xptc {
namespace exec {

ExecEngine::ExecEngine(const Tree& tree, TreeCache* tree_cache)
    : tree_(tree), tree_cache_(tree_cache), n_(tree.size()) {
  XPTC_CHECK(!tree.empty());
  XPTC_CHECK(tree_cache == nullptr || &tree_cache->tree() == &tree)
      << "TreeCache bound to a different tree";
  if (tree_cache != nullptr) calibration_ = tree_cache->calibration();
}

ExecEngine::~ExecEngine() = default;

namespace {

// Star-round budget for the hybrid dispatch: abandon the register machine
// once its rounds have cost about one sweep. The sweep is a table probe per
// node plus one bit-program interpretation per transfer entry (at most n),
// so it grows with bit_ops only through its misses. Measured (4-core x86,
// min of 11 runs): one sweep costs as much as 100–180 average star rounds
// on big_batch text 2's 262k-node caterpillar and comb (sweep 2.2–3.1 ms,
// 16–23 µs per round) and on exp12's 16k–64k adversarial chain (sweep
// 0.11–0.47 ms, 0.8–4 µs per round). Early rounds are the dense, dear
// ones: on text 2 the first 81 rounds cost 2.9–3.4 ms and the first 225
// cost 4.6–5.8 ms, so 32 + 2·bit_ops (80 rounds there) keeps the abandoned
// prefix near one sweep, and ran the two deep cells in 4.5–6.1 ms against
// 6.9–8.3 ms for 32 + 8·bit_ops. Shallow trees and dense star seeds
// converge in far fewer rounds (at most 10 on every other perfbench cell)
// and never hit the budget; only the adversarial deep-tree/sparse-seed
// regime (where the register machine would go quadratic) falls back.
int64_t StarRoundBudget(const Program& program) {
  return 32 + 2 * static_cast<int64_t>(program.stats().bit_ops);
}

// Process-wide execution counters, fetched once (registry lookups lock;
// the hot path pays relaxed atomic adds, flushed once per Eval).
struct ExecMetrics {
  obs::Counter& evals;
  obs::Counter& instrs;
  obs::Counter& star_rounds;
  obs::Counter& disp_register;
  obs::Counter& disp_fallback;
  obs::Counter& disp_downward;
  obs::Counter& disp_general;
  obs::Counter& deadline_expired;
  // `W` provenance (L1 = the local memo of an engine without a TreeCache,
  // L2 = the shared TreeCache, computed = paid the bottom-up pass; an
  // engine uses one memo or the other), read by EXPLAIN and the serving
  // benchmark under their historical `eval.` names.
  obs::Counter& within_l1_hits;
  obs::Counter& within_l2_hits;
  obs::Counter& within_computed;
  obs::Histogram& within_compute_ns;
  static ExecMetrics& Get() {
    obs::Registry& reg = obs::Registry::Default();
    static ExecMetrics* m = new ExecMetrics{
        reg.counter("exec.evals"),
        reg.counter("exec.instrs_executed"),
        reg.counter("exec.star_rounds"),
        reg.counter("exec.dispatch.register_machine"),
        reg.counter("exec.dispatch.downward_fallback"),
        reg.counter("exec.dispatch.downward_direct"),
        reg.counter("exec.dispatch.general"),
        reg.counter("exec.deadline_expired"),
        reg.counter("eval.within_l1_hits"),
        reg.counter("eval.within_l2_hits"),
        reg.counter("eval.within_computed"),
        reg.histogram("eval.w_compute_ns")};
    return *m;
  }
};

obs::Histogram& EvalFlame() {
  static obs::Histogram* h =
      &obs::Registry::Default().histogram("exec.eval_ns");
  return *h;
}

// Contexts between two deadline probes of a W pass.
constexpr int kWithinProbeStride = 64;

}  // namespace

const char* ExecEngine::DispatchName(RunInfo::Dispatch dispatch) {
  switch (dispatch) {
    case RunInfo::Dispatch::kRegisterMachine: return "register_machine";
    case RunInfo::Dispatch::kDownwardFallback: return "downward_fallback";
    case RunInfo::Dispatch::kDownwardDirect: return "downward_direct";
    case RunInfo::Dispatch::kGeneral: return "general";
  }
  return "unknown";
}

int64_t ExecEngine::SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool ExecEngine::DeadlineExpired() const {
  if (cancel_flag_ != nullptr &&
      cancel_flag_->load(std::memory_order_relaxed)) {
    return true;
  }
  return deadline_ns_ != 0 && SteadyNowNs() >= deadline_ns_;
}

void ExecEngine::BeginRun(const Program& program, RunInfo::Dispatch dispatch,
                          int64_t budget) {
  lo_ = 0;
  hi_ = n_;
  within_sets_.assign(program.within_bodies().size(), nullptr);
  within_probed_.assign(program.within_bodies().size(), 0);
  last_run_.dispatch = dispatch;
  last_run_.star_rounds_used = 0;
  last_run_.star_round_budget = budget;
  last_run_.instrs_executed = 0;
  last_run_.transfer_entries = 0;
  last_run_.deadline_expired = false;
  // assign() reuses capacity, so steady-state evals stay allocation-free
  // once the vector has grown to the largest program seen.
  last_run_.instr_execs.assign(program.code().size(), 0);
}

void ExecEngine::FinishRun(const Bitset* result) {
  ExecMetrics& metrics = ExecMetrics::Get();
  metrics.instrs.Add(last_run_.instrs_executed);
  metrics.star_rounds.Add(last_run_.star_rounds_used);
  if (last_run_.deadline_expired) {
    metrics.deadline_expired.Inc();
    // Flight-recorder post-mortem breadcrumb: which request blew its
    // deadline mid-execution, and how far it got. Attribution comes from
    // the thread's obs::RequestScope (set by the server worker / batch task).
    obs::Journal::Record(obs::JournalCode::kDeadlineExec,
                         static_cast<uint64_t>(last_run_.star_rounds_used));
  }
  switch (last_run_.dispatch) {
    case RunInfo::Dispatch::kRegisterMachine:
      metrics.disp_register.Inc();
      break;
    case RunInfo::Dispatch::kDownwardFallback:
      metrics.disp_fallback.Inc();
      break;
    case RunInfo::Dispatch::kDownwardDirect:
      metrics.disp_downward.Inc();
      break;
    case RunInfo::Dispatch::kGeneral:
      metrics.disp_general.Inc();
      break;
  }
  obs::TraceNode* cur = obs::CurrentTraceNode();
  if (cur == nullptr) return;
  cur->notes.push_back(std::string("dispatch: ") +
                       DispatchName(last_run_.dispatch));
  if (last_run_.deadline_expired) {
    cur->notes.push_back("deadline expired after " +
                         std::to_string(last_run_.star_rounds_used) +
                         " star rounds; run abandoned");
  }
  if (last_run_.dispatch == RunInfo::Dispatch::kDownwardFallback) {
    cur->notes.push_back(
        "star-round budget blown at " +
        std::to_string(last_run_.star_round_budget) +
        " rounds; abandoned register machine, re-ran one-pass sweep");
  }
  cur->SetAttr("star_rounds_used", last_run_.star_rounds_used);
  cur->SetAttr("star_round_budget", last_run_.star_round_budget);
  cur->SetAttr("instrs_executed", last_run_.instrs_executed);
  if (last_run_.transfer_entries > 0) {
    cur->SetAttr("transfer_entries", last_run_.transfer_entries);
  }
  if (result != nullptr) cur->SetAttr("result_count", result->Count());
}

Bitset ExecEngine::Eval(const Program& program) {
  obs::TraceSpan span("exec.eval", &EvalFlame());
  ExecMetrics::Get().evals.Inc();
  last_used_downward_ = false;
  if (program.downward() == nullptr) return RunGeneral(program);
  const int64_t budget = StarRoundBudget(program);
  BeginRun(program, RunInfo::Dispatch::kRegisterMachine, budget);
  if (DeadlineExpired()) return AbandonRun();
  star_rounds_left_ = budget;
  if (RunMain(program)) {
    Bitset& result = regs_[static_cast<size_t>(program.result_reg())];
    FinishRun(&result);
    return result;
  }
  // The deadline probe fired mid-run: the request is already late, so the
  // fallback sweep would only add more late work. Abandon instead.
  if (last_run_.deadline_expired) return AbandonRun();
  // Budget blown: abandon the register machine (its partial instruction
  // counts stay in last_run_ — the EXPLAIN dump shows the abandoned
  // prefix) and re-run as the unconditionally-linear sweep.
  last_run_.dispatch = RunInfo::Dispatch::kDownwardFallback;
  last_used_downward_ = true;
  Bitset result = RunSweep(program);
  FinishRun(&result);
  return result;
}

Bitset ExecEngine::RunSweep(const Program& program) {
  Bitset result = program.downward()->Run(tree_, &sweep_);
  last_run_.transfer_entries = sweep_.entries;
  return result;
}

bool ExecEngine::RunMain(const Program& program) {
  while (static_cast<int>(regs_.size()) < program.num_regs()) {
    regs_.emplace_back(n_);
  }
  return RunRange(program, 0, program.main_end(), regs_.data(),
                  last_run_.instr_execs.data());
}

Bitset ExecEngine::RunGeneral(const Program& program) {
  BeginRun(program, RunInfo::Dispatch::kGeneral, 0);
  if (DeadlineExpired()) return AbandonRun();
  star_rounds_left_ = std::numeric_limits<int64_t>::max();
  if (!RunMain(program)) return AbandonRun();
  Bitset& result = regs_[static_cast<size_t>(program.result_reg())];
  FinishRun(&result);
  return result;
}

Bitset ExecEngine::AbandonRun() {
  last_run_.deadline_expired = true;
  FinishRun(nullptr);
  return Bitset(n_);
}

Bitset ExecEngine::EvalDownward(const Program& program) {
  XPTC_CHECK(program.downward() != nullptr)
      << "program has no downward compilation";
  obs::TraceSpan span("exec.eval", &EvalFlame());
  ExecMetrics::Get().evals.Inc();
  BeginRun(program, RunInfo::Dispatch::kDownwardDirect, 0);
  last_run_.instr_execs.clear();
  last_used_downward_ = true;
  if (DeadlineExpired()) return AbandonRun();
  Bitset result = RunSweep(program);
  FinishRun(&result);
  return result;
}

Bitset ExecEngine::EvalGeneral(const Program& program) {
  obs::TraceSpan span("exec.eval", &EvalFlame());
  ExecMetrics::Get().evals.Inc();
  last_used_downward_ = false;
  return RunGeneral(program);
}

const Bitset& ExecEngine::LabelSet(Symbol label) {
  auto it = label_refs_.find(label);
  if (it != label_refs_.end()) return *it->second;
  const Bitset* set;
  if (tree_cache_ != nullptr) {
    set = &tree_cache_->LabelSet(label);
  } else {
    Bitset local(n_);
    for (NodeId v = 0; v < n_; ++v) {
      if (tree_.Label(v) == label) local.Set(v);
    }
    set = &local_labels_.emplace(label, std::move(local)).first->second;
  }
  label_refs_.emplace(label, set);
  return *set;
}

const Bitset* ExecEngine::FindWithin(const WithinBody& body) {
  if (tree_cache_ != nullptr) {
    // The per-tree cross-query cache, shared with other workers. A hit
    // means some earlier evaluation — possibly of a different query on a
    // different thread — already paid for this body on this tree.
    const Bitset* set = tree_cache_->FindWithin(*body.body, body.hash);
    if (set != nullptr) {
      ExecMetrics::Get().within_l2_hits.Inc();
      obs::TraceAddCount("w.l2_hits", 1);
      obs::TraceNote("W: tree_cache (L2) hit");
    }
    return set;
  }
  auto it = local_within_.find(body.hash);
  if (it == local_within_.end()) return nullptr;
  for (const LocalWithin& entry : it->second) {
    if (NodeEquals(*entry.body, *body.body)) {
      ExecMetrics::Get().within_l1_hits.Inc();
      obs::TraceAddCount("w.l1_hits", 1);
      return &entry.set;
    }
  }
  return nullptr;
}

bool ExecEngine::ResolveWithin(const Program& program, int w) {
  const std::vector<WithinBody>& bodies = program.within_bodies();
  within_stack_.assign(1, w);
  while (!within_stack_.empty()) {
    const int top = within_stack_.back();
    const size_t slot = static_cast<size_t>(top);
    if (within_sets_[slot] != nullptr) {
      within_stack_.pop_back();
      continue;
    }
    const WithinBody& body = bodies[slot];
    if (!within_probed_[slot]) {
      within_probed_[slot] = 1;
      if (const Bitset* set = FindWithin(body)) {
        within_sets_[slot] = set;
        within_stack_.pop_back();
        continue;
      }
    }
    // A miss: its inner bodies (earlier in post-order) come first.
    bool ready = true;
    for (const int dep : body.deps) {
      if (within_sets_[static_cast<size_t>(dep)] == nullptr) {
        within_stack_.push_back(dep);
        ready = false;
      }
    }
    if (!ready) continue;
    if (!ComputeWithin(program, top)) return false;
    within_stack_.pop_back();
  }
  return true;
}

bool ExecEngine::ComputeWithin(const Program& program, int w) {
  const WithinBody& body = program.within_bodies()[static_cast<size_t>(w)];
  const Program& code = *body.program;
  ExecMetrics::Get().within_computed.Inc();
  obs::TraceAddCount("w.computed", 1);
  obs::TraceSpan span("eval.w_compute",
                      &ExecMetrics::Get().within_compute_ns);
  span.Note("W: no cached set, computed bottom-up");
  while (static_cast<int>(w_regs_.size()) < code.num_regs()) {
    w_regs_.emplace_back(n_);
  }
  // wset[v] = 1 iff the body holds at v in context T|v. That depends only
  // on the subtree of v, so one pass over the whole tree serves every
  // context and nesting level. Descending preorder ids visit leaves first;
  // each context runs in its own window on the spare bank, with no star
  // budget, and clears that window afterwards so the next context's
  // sources stay inside it.
  const int64_t saved_rounds = star_rounds_left_;
  star_rounds_left_ = std::numeric_limits<int64_t>::max();
  Bitset wset(n_);
  bool done = true;
  for (NodeId v = n_ - 1; v >= 0; --v) {
    if ((n_ - 1 - v) % kWithinProbeStride == 0 && DeadlineExpired()) {
      last_run_.deadline_expired = true;
      done = false;
      break;
    }
    lo_ = v;
    hi_ = tree_.SubtreeEnd(v);
    done = RunRange(code, 0, code.main_end(), w_regs_.data(), nullptr);
    if (done && w_regs_[static_cast<size_t>(code.result_reg())].Get(v)) {
      wset.Set(v);
    }
    for (int r = 0; r < code.num_regs(); ++r) {
      w_regs_[static_cast<size_t>(r)].ResetRange(lo_, hi_);
    }
    if (!done) break;
  }
  lo_ = 0;
  hi_ = n_;
  star_rounds_left_ = saved_rounds;
  if (!done) return false;  // abandoned: nothing stored
  const Bitset* set;
  if (tree_cache_ != nullptr) {
    // Racing computers of the same body converge on the first insert.
    set = &tree_cache_->StoreWithin(body.body, body.hash, std::move(wset));
  } else {
    set = &local_within_[body.hash]
               .emplace_back(LocalWithin{body.body, std::move(wset)})
               .set;
  }
  within_sets_[static_cast<size_t>(w)] = set;
  return true;
}

bool ExecEngine::RunRange(const Program& program, int begin, int end,
                          Bitset* regs, int64_t* instr_execs) {
  const std::vector<Instr>& code = program.code();
  const int lo = lo_;
  const int hi = hi_;
  for (int i = begin; i < end; ++i) {
    const Instr& ins = code[static_cast<size_t>(i)];
    if (instr_execs != nullptr) {
      ++last_run_.instrs_executed;
      ++instr_execs[i];
    }
    Bitset& dst = regs[ins.dst];
    switch (ins.op) {
      case Op::kTrue:
        dst.SetRange(lo, hi);
        break;
      case Op::kLabel:
        dst.CopyRange(LabelSet(ins.label), lo, hi);
        break;
      case Op::kNot:
        dst.NotRange(regs[ins.a], lo, hi);
        break;
      case Op::kAnd:
        dst.CopyRange(regs[ins.a], lo, hi);
        dst.AndRange(regs[ins.b], lo, hi);
        break;
      case Op::kOr:
        dst.CopyRange(regs[ins.a], lo, hi);
        dst.OrRange(regs[ins.b], lo, hi);
        break;
      case Op::kAndNot:
        dst.AndNotRange(regs[ins.a], regs[ins.b], lo, hi);
        break;
      case Op::kOrNot:
        dst.OrNotRange(regs[ins.a], regs[ins.b], lo, hi);
        break;
      case Op::kAxis:
      case Op::kDescFill:
      case Op::kAncMark:
      case Op::kSibChain: {
        const Bitset& src = regs[ins.a];
        dst.ResetRange(lo, hi);  // the kernels require a clear output window
        AxisImageInto(tree_, ins.axis, src, lo, hi, &dst, calibration_);
        // Collapsed star: dst := seed ∪ closure-image(seed), one streamed
        // kernel pass instead of an O(depth)-round fixpoint loop.
        if (ins.op != Op::kAxis) dst.OrRange(src, lo, hi);
        // Per-axis-kernel node touches: the size of the produced image,
        // keyed by axis. Only counted (and only paid — CountRange is
        // O(window/64)) when a trace is active on this thread.
        if (obs::TraceNode* cur = obs::CurrentTraceNode()) {
          cur->AddAttr(std::string("axis.") + AxisToString(ins.axis) +
                           ".touches",
                       dst.CountRange(lo, hi));
        }
        break;
      }
      case Op::kStar: {
        // Semi-naive closure: dst accumulates everything reached, the body
        // maps the newly-reached frontier (`in`) one step to `out`, and
        // only genuinely new nodes re-enter the loop. The allocator keeps
        // dst/in/out in distinct registers and anything read inside the
        // body live across the whole loop.
        const Bitset& seed = regs[ins.a];
        Bitset& frontier = regs[ins.in];
        Bitset& step = regs[ins.out];
        dst.CopyRange(seed, lo, hi);
        frontier.CopyRange(seed, lo, hi);
        while (frontier.AnyInRange(lo, hi)) {
          if (instr_execs != nullptr) ++last_run_.star_rounds_used;
          if (--star_rounds_left_ < 0) return false;
          // Deadline probe (see SetDeadline): star rounds are the only
          // statically unbounded work in a run, so one clock read per
          // round bounds enforcement lag to a single round's work.
          if (DeadlineExpired()) {
            last_run_.deadline_expired = true;
            return false;
          }
          if (!RunRange(program, ins.body_begin, ins.body_end, regs,
                        instr_execs)) {
            return false;
          }
          // Fixpoint probe: the final round always produces no new nodes,
          // and this early-exit subset check detects that in one pass
          // (stopping at the first new word) instead of the full
          // subtract / or / copy / any sequence below.
          if (step.IsSubsetOfRange(dst, lo, hi)) break;
          step.SubtractRange(dst, lo, hi);
          dst.OrRange(step, lo, hi);
          frontier.CopyRange(step, lo, hi);
        }
        break;
      }
      case Op::kWithin: {
        // Top-level code resolves a W set on first use; a body pass only
        // reads inner sets, which ResolveWithin settled before the pass.
        const Bitset* set = within_sets_[static_cast<size_t>(ins.within)];
        if (set == nullptr) {
          if (!ResolveWithin(program, ins.within)) return false;
          set = within_sets_[static_cast<size_t>(ins.within)];
        }
        dst.CopyRange(*set, lo, hi);
        break;
      }
    }
  }
  return true;
}

}  // namespace exec
}  // namespace xptc
