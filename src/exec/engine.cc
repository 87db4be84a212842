#include "exec/engine.h"

#include <chrono>
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

using Dispatch = ExecEngine::RunInfo::Dispatch;

// Process-wide execution counters, fetched once (registry lookups lock;
// the hot path pays relaxed atomic adds, flushed once per Eval).
struct ExecMetrics {
  obs::Counter& evals;
  obs::Counter& instrs;
  obs::Counter& star_rounds;
  // Indexed by RunInfo::Dispatch. The sweep that Eval picks still counts
  // under `exec.dispatch.downward_fallback`, the name the serving
  // benchmark's `exec.fallback_ratio` reads.
  obs::Counter* dispatch[4];
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
    const auto dispatch = [&reg](Dispatch d) {
      return &reg.counter(ExecEngine::DispatchCounterName(d));
    };
    static ExecMetrics* m = new ExecMetrics{
        reg.counter("exec.evals"),
        reg.counter("exec.instrs_executed"),
        reg.counter("exec.star_rounds"),
        {dispatch(Dispatch::kRegisterMachine),
         dispatch(Dispatch::kDownwardSweep),
         dispatch(Dispatch::kDownwardDirect), dispatch(Dispatch::kGeneral)},
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
    case Dispatch::kRegisterMachine: return "register_machine";
    case Dispatch::kDownwardSweep: return "downward_sweep";
    case Dispatch::kDownwardDirect: return "downward_direct";
    case Dispatch::kGeneral: return "general";
  }
  return "unknown";
}

const char* ExecEngine::DispatchCounterName(RunInfo::Dispatch dispatch) {
  switch (dispatch) {
    case Dispatch::kRegisterMachine: return "exec.dispatch.register_machine";
    case Dispatch::kDownwardSweep: return "exec.dispatch.downward_fallback";
    case Dispatch::kDownwardDirect: return "exec.dispatch.downward_direct";
    case Dispatch::kGeneral: return "exec.dispatch.general";
  }
  return "exec.dispatch.unknown";
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

void ExecEngine::BeginRun(const Program& program, RunInfo::Dispatch dispatch) {
  lo_ = 0;
  hi_ = n_;
  within_sets_.assign(program.within_bodies().size(), nullptr);
  within_probed_.assign(program.within_bodies().size(), 0);
  last_run_.dispatch = dispatch;
  last_run_.star_rounds_used = 0;
  const bool chosen = dispatch == Dispatch::kRegisterMachine ||
                      dispatch == Dispatch::kDownwardSweep;
  last_run_.tree_height = chosen ? tree_.Height() : 0;
  last_run_.star_round_bound =
      chosen ? program.StarRoundBound(tree_.Height()) : 0;
  last_run_.star_round_budget = chosen ? program.star_round_budget() : 0;
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
  metrics.dispatch[static_cast<int>(last_run_.dispatch)]->Inc();
  obs::TraceNode* cur = obs::CurrentTraceNode();
  if (cur == nullptr) return;
  cur->notes.push_back(std::string("dispatch: ") +
                       DispatchName(last_run_.dispatch));
  if (last_run_.deadline_expired) {
    cur->notes.push_back("deadline expired after " +
                         std::to_string(last_run_.star_rounds_used) +
                         " star rounds; run abandoned");
  }
  cur->SetAttr("star_rounds_used", last_run_.star_rounds_used);
  if (last_run_.star_round_budget > 0) {
    cur->SetAttr("tree_height", last_run_.tree_height);
    cur->SetAttr("star_round_bound", last_run_.star_round_bound);
    cur->SetAttr("star_round_budget", last_run_.star_round_budget);
  }
  cur->SetAttr("instrs_executed", last_run_.instrs_executed);
  if (last_run_.transfer_entries > 0) {
    cur->SetAttr("transfer_entries", last_run_.transfer_entries);
  }
  if (result != nullptr) cur->SetAttr("result_count", result->Count());
}

Bitset ExecEngine::Eval(const Program& program) {
  obs::TraceSpan span("exec.eval", &EvalFlame());
  ExecMetrics::Get().evals.Inc();
  if (program.downward() == nullptr) {
    return RunRegisters(program, Dispatch::kGeneral);
  }
  // Decided before anything runs (DESIGN §10.4): on a tree no taller than
  // the program's height limit, the register machine's star rounds are
  // bounded by R(H) ≤ budget; on a taller one the sweep is cheaper.
  if (tree_.Height() <= program.register_height_limit()) {
    return RunRegisters(program, Dispatch::kRegisterMachine);
  }
  return RunSweep(program, Dispatch::kDownwardSweep);
}

Bitset ExecEngine::RunSweep(const Program& program,
                            RunInfo::Dispatch dispatch) {
  BeginRun(program, dispatch);
  last_run_.instr_execs.clear();
  if (DeadlineExpired()) return AbandonRun();
  // One sweep buffer per thread, not per engine: a thread runs one sweep
  // at a time, and a sweep's n-word aggregate is the largest buffer an
  // engine would otherwise keep for its lifetime. `Run` resizes it.
  thread_local DownwardProgram::SweepState sweep;
  Bitset result = program.downward()->Run(tree_, &sweep);
  last_run_.transfer_entries = sweep.entries;
  FinishRun(&result);
  return result;
}

Bitset ExecEngine::RunRegisters(const Program& program,
                                RunInfo::Dispatch dispatch) {
  BeginRun(program, dispatch);
  if (DeadlineExpired()) return AbandonRun();
  while (static_cast<int>(regs_.size()) < program.num_regs()) {
    regs_.emplace_back(n_);
  }
  if (!RunRange(program, 0, program.main_end(), regs_.data(),
                last_run_.instr_execs.data())) {
    return AbandonRun();
  }
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
  return RunSweep(program, Dispatch::kDownwardDirect);
}

Bitset ExecEngine::EvalGeneral(const Program& program) {
  obs::TraceSpan span("exec.eval", &EvalFlame());
  ExecMetrics::Get().evals.Inc();
  return RunRegisters(program, Dispatch::kGeneral);
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
  // each context runs in its own window on the spare bank and clears that
  // window afterwards so the next context's sources stay inside it.
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
        if (ins.strict) {
          dst.ResetRange(lo, hi);
        } else {
          dst.CopyRange(seed, lo, hi);
        }
        frontier.CopyRange(seed, lo, hi);
        while (frontier.AnyInRange(lo, hi)) {
          if (instr_execs != nullptr) ++last_run_.star_rounds_used;
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
