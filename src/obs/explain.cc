#include "obs/explain.h"

#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "common/json.h"
#include "exec/engine.h"
#include "exec/program.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tree/generate.h"
#include "tree/xml.h"
#include "workload/plan_cache.h"
#include "workload/tree_cache.h"
#include "xpath/ast.h"
#include "xpath/fragment.h"

namespace xptc {
namespace obs {

namespace {

Result<TreeShape> ShapeFromString(const std::string& name) {
  static constexpr TreeShape kShapes[] = {
      TreeShape::kUniformRecursive, TreeShape::kChain,
      TreeShape::kStar,             TreeShape::kFullBinary,
      TreeShape::kFullKAry,         TreeShape::kComb,
      TreeShape::kCaterpillar};
  for (TreeShape shape : kShapes) {
    if (name == TreeShapeToString(shape)) return shape;
  }
  std::string valid;
  for (TreeShape shape : kShapes) {
    if (!valid.empty()) valid += ", ";
    valid += TreeShapeToString(shape);
  }
  return Status::InvalidArgument("unknown tree shape '" + name +
                                 "' (valid: " + valid + ")");
}

/// Sums attribute `key` over the whole trace tree (instrumentation sites
/// attach counts to whichever span was current, so the registry-level total
/// is the sum over all nodes).
int64_t SumAttr(const TraceNode& node, const std::string& key) {
  int64_t total = 0;
  if (const int64_t* v = node.FindAttr(key)) total += *v;
  for (const TraceNode& child : node.children) total += SumAttr(child, key);
  return total;
}

/// Counts exact-match notes over the whole trace tree (cache provenance
/// notes must reconcile with the registry's hit/miss counters).
int64_t CountNotes(const TraceNode& node, const std::string& note) {
  int64_t total = 0;
  for (const std::string& n : node.notes) {
    if (n == note) ++total;
  }
  for (const TraceNode& child : node.children) {
    total += CountNotes(child, note);
  }
  return total;
}

int64_t DeltaCounter(const Snapshot& delta, const std::string& name) {
  auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

/// The trace and the registry observe the same events through different
/// channels (trace: per-span attrs and notes, only when a trace is active;
/// registry: process-wide counters, always). Explain runs single-threaded
/// with everything under one trace, so every shared observable must agree
/// bit for bit — any drift means an instrumentation site updated one
/// channel and not the other.
bool TraceMatchesRegistry(const RequestTrace& trace, const Snapshot& delta,
                          std::vector<std::string>* mismatches) {
  const TraceNode& root = trace.root;
  struct Pair {
    const char* counter;     // registry name
    const char* trace_attr;  // summed trace attribute; nullptr → note
    const char* trace_note;  // counted exact note; nullptr → attr
  };
  static constexpr Pair kPairs[] = {
      {"exec.star_rounds", "star_rounds_used", nullptr},
      {"exec.instrs_executed", "instrs_executed", nullptr},
      {"eval.star_rounds", "star_rounds", nullptr},
      {"eval.within_l1_hits", "w.l1_hits", nullptr},
      {"eval.within_l2_hits", "w.l2_hits", nullptr},
      {"eval.within_computed", "w.computed", nullptr},
      {"plan_cache.hits", nullptr, "plan_cache: text hit"},
      {"plan_cache.misses", nullptr, "plan_cache: text miss, parsed"},
      {"plan_cache.program_hits", nullptr, "plan_cache: program hit"},
      {"plan_cache.program_misses", nullptr, "plan_cache: program miss, lowered"},
  };
  bool ok = true;
  if (trace.dropped_spans != 0) {
    // What was counted inside a dropped span is gone from the trace.
    ok = false;
    mismatches->push_back("trace: " + std::to_string(trace.dropped_spans) +
                          " spans dropped past the " +
                          std::to_string(kMaxTraceSpans) + "-span cap");
  }
  for (const Pair& pair : kPairs) {
    const int64_t from_trace = pair.trace_attr != nullptr
                                   ? SumAttr(root, pair.trace_attr)
                                   : CountNotes(root, pair.trace_note);
    const int64_t from_registry = DeltaCounter(delta, pair.counter);
    if (from_trace != from_registry) {
      ok = false;
      mismatches->push_back(std::string(pair.counter) + ": trace=" +
                            std::to_string(from_trace) + " registry=" +
                            std::to_string(from_registry));
    }
  }
  // Dispatch decisions: each trace note `dispatch: <name>` must correspond
  // to exactly one increment of that dispatch's exec.dispatch counter.
  using Dispatch = exec::ExecEngine::RunInfo::Dispatch;
  for (const Dispatch dispatch :
       {Dispatch::kRegisterMachine, Dispatch::kDownwardSweep,
        Dispatch::kDownwardDirect, Dispatch::kGeneral}) {
    const char* counter = exec::ExecEngine::DispatchCounterName(dispatch);
    const int64_t from_trace = CountNotes(
        root, std::string("dispatch: ") +
                  exec::ExecEngine::DispatchName(dispatch));
    const int64_t from_registry = DeltaCounter(delta, counter);
    if (from_trace != from_registry) {
      ok = false;
      mismatches->push_back(std::string(counter) + ": trace=" +
                            std::to_string(from_trace) + " registry=" +
                            std::to_string(from_registry));
    }
  }
  // Axis density dispatch: every kernel invocation adds 1 to exactly one of
  // axis.<name>.{sparse,dense}_path on both channels.
  for (int a = 0; a < kNumAxes; ++a) {
    const std::string base =
        std::string("axis.") + AxisToString(static_cast<Axis>(a));
    for (const char* path : {".sparse_path", ".dense_path"}) {
      const std::string counter = base + path;
      const int64_t from_trace = SumAttr(root, counter);
      const int64_t from_registry = DeltaCounter(delta, counter);
      if (from_trace != from_registry) {
        ok = false;
        mismatches->push_back(counter + ": trace=" +
                              std::to_string(from_trace) + " registry=" +
                              std::to_string(from_registry));
      }
    }
  }
  return ok;
}

/// Counters only, timing-free: `*_ns` counters (lowering wall time) vary
/// run to run and would break the golden output; histograms are all
/// timings; gauges are levels owned by long-lived components, not flows a
/// single query moved.
std::string DeterministicDeltaJson(const Snapshot& delta) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : delta.counters) {
    if (name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
      continue;
    }
    if (!first) out.append(", ");
    first = false;
    out.push_back('"');
    out.append(name);
    out.append("\": ");
    out.append(std::to_string(v));
  }
  out.push_back('}');
  return out;
}

}  // namespace

Result<ExplainOutput> ExplainQuery(const ExplainOptions& options) {
  Alphabet alphabet;

  // --- Document ---------------------------------------------------------
  std::shared_ptr<Tree> tree;
  std::string document_line;
  if (!options.xml.empty()) {
    XPTC_ASSIGN_OR_RETURN(Tree parsed, ParseXml(options.xml, &alphabet));
    tree = std::make_shared<Tree>(std::move(parsed));
    document_line = "xml n=" + std::to_string(tree->size());
  } else {
    if (options.gen_nodes <= 0) {
      return Status::InvalidArgument("gen_nodes must be positive");
    }
    XPTC_ASSIGN_OR_RETURN(TreeShape shape, ShapeFromString(options.gen_shape));
    Rng rng(options.gen_seed);
    TreeGenOptions gen;
    gen.num_nodes = options.gen_nodes;
    gen.shape = shape;
    tree = std::make_shared<Tree>(
        GenerateTree(gen, DefaultLabels(&alphabet, options.gen_labels), &rng));
    document_line = "generated shape=" + options.gen_shape +
                    " n=" + std::to_string(tree->size()) +
                    " seed=" + std::to_string(options.gen_seed) +
                    " labels=" + std::to_string(options.gen_labels);
  }

  // --- Traced pipeline: parse → lower → execute → cross-check -----------
  const Snapshot before = Registry::Default().Collect();

  RequestTrace trace;
  trace.sampled = true;  // EXPLAIN traces its one evaluation in full
  PlanCache cache;
  TreeCache tree_cache(tree);
  exec::ExecEngine engine(*tree, &tree_cache);
  PlanCache::CompiledQuery compiled;
  Bitset compiled_result;
  Bitset interp_result;
  {
    RequestScope scope(CurrentFlightId(), &trace);
    {
      TraceSpan parse_span("plan_cache.parse_compiled");
      XPTC_ASSIGN_OR_RETURN(compiled,
                            cache.ParseCompiled(options.query, &alphabet));
      const exec::CompileStats& stats = compiled.program->stats();
      parse_span.Attr("instrs", stats.num_instrs);
      parse_span.Attr("regs", stats.num_regs);
      parse_span.Attr("dag_hits", stats.dag_hits);
      parse_span.Attr("downward", stats.downward ? 1 : 0);
      if (stats.windows_dropped > 0) {
        parse_span.Attr("windows_dropped", stats.windows_dropped);
      }
    }
    compiled_result = engine.Eval(*compiled.program);
    {
      TraceSpan interp_span("interpreter.select");
      interp_result = compiled.query->Select(*tree);
      interp_span.Attr("result_count",
                       static_cast<int64_t>(interp_result.Count()));
    }
  }

  const Snapshot delta = Registry::Default().Collect().Delta(before);
  const bool match = compiled_result == interp_result;

  ExplainOutput out;
  out.match = match;
  const auto trace_json = [&trace](bool with_times) {
    std::string json;
    NodeToJson(trace.root, with_times, /*indent=*/0, &json);
    json.push_back('\n');
    return json;
  };
  out.trace_json = trace_json(/*with_times=*/false);
  out.registry_json = DeterministicDeltaJson(delta);
  std::vector<std::string> mismatches;
  out.consistent = TraceMatchesRegistry(trace, delta, &mismatches);

  // --- Rendering --------------------------------------------------------
  const Query& query = *compiled.query;
  const exec::Program& program = *compiled.program;
  const exec::ExecEngine::RunInfo& run = engine.last_run();
  const char* dispatch = exec::ExecEngine::DispatchName(run.dispatch);

  if (options.json) {
    std::string& r = out.rendered;
    r = "{\n  \"query\": ";
    AppendJsonString(&r, options.query);
    r.append(",\n  \"document\": ");
    AppendJsonString(&r, document_line);
    r.append(",\n  \"dialect\": {\"plan\": \"");
    r.append(DialectToString(query.dialect()));
    r.append("\", \"source\": \"");
    r.append(DialectToString(query.source_dialect()));
    r.append("\"},\n  \"dispatch\": \"");
    r.append(dispatch);
    r.append("\"");
    if (run.transfer_entries > 0) {
      r.append(",\n  \"transfer_entries\": ");
      r.append(std::to_string(run.transfer_entries));
    }
    r.append(",\n  \"star_rounds_used\": ");
    r.append(std::to_string(run.star_rounds_used));
    if (run.star_round_budget > 0) {
      r.append(",\n  \"tree_height\": ");
      r.append(std::to_string(run.tree_height));
      r.append(",\n  \"star_round_bound\": ");
      r.append(std::to_string(run.star_round_bound));
      r.append(",\n  \"star_round_budget\": ");
      r.append(std::to_string(run.star_round_budget));
    }
    r.append(",\n  \"windows_dropped\": [");
    for (size_t i = 0; i < program.dropped_windows().size(); ++i) {
      if (i > 0) r.append(", ");
      AppendJsonString(&r,
                       NodeToString(*program.dropped_windows()[i], alphabet));
    }
    r.append("]");
    r.append(",\n  \"result_count\": ");
    r.append(std::to_string(compiled_result.Count()));
    r.append(",\n  \"match\": ");
    r.append(match ? "true" : "false");
    r.append(",\n  \"consistent\": ");
    r.append(out.consistent ? "true" : "false");
    r.append(",\n  \"registry_delta\": ");
    r.append(out.registry_json);
    r.append(",\n  \"trace\": ");
    r.append(trace_json(options.with_times));
    r.append("}\n");
    return out;
  }

  std::ostringstream os;
  os << "EXPLAIN " << options.query << "\n";
  os << "document: " << document_line << "\n";
  os << "dialect: plan=" << DialectToString(query.dialect())
     << " source=" << DialectToString(query.source_dialect()) << "\n";
  os << "plan: " << NodeToString(*query.plan(), alphabet) << "\n";
  // W bodies compiled without a window (exec/confine.h); the plan above
  // still shows them under W, as the interpreter runs them.
  for (const NodePtr& body : program.dropped_windows()) {
    os << "note: W dropped (confined): " << NodeToString(*body, alphabet)
       << "\n";
  }
  os << "\n";

  const exec::CompileStats& stats = program.stats();
  os << "program: " << program.code().size() << " instrs, "
     << program.num_regs() << " regs, result r" << program.result_reg()
     << ", main [0," << program.main_end() << "), dag_hits=" << stats.dag_hits
     << ", downward=" << (stats.downward ? "yes" : "no");
  if (stats.downward) os << " (bit_ops=" << stats.bit_ops << ")";
  os << "\n";
  for (size_t i = 0; i < program.code().size(); ++i) {
    os << "  " << i << ": "
       << program.InstrToString(static_cast<int>(i), alphabet);
    if (i < run.instr_execs.size()) {
      os << "   [execs " << run.instr_execs[i] << "]";
    }
    os << "\n";
  }
  os << "\n";
  std::ostringstream why;
  if (run.star_round_budget > 0) {
    // Why Eval picked this engine (DESIGN §10.4).
    why << "tree height " << run.tree_height << ": R(H) = "
        << run.star_round_bound
        << (run.star_round_bound <= run.star_round_budget ? " <= " : " > ")
        << "budget " << run.star_round_budget;
    if (!program.within_bodies().empty()) why << ", a W pass is left";
  }
  if (run.transfer_entries > 0) {
    if (why.tellp() > 0) why << "; ";
    why << "transfer_entries=" << run.transfer_entries;
  }
  os << "dispatch: " << dispatch;
  if (why.tellp() > 0) os << " (" << why.str() << ")";
  os << "\n";
  os << "star rounds: used " << run.star_rounds_used << "\n";
  os << "result: " << compiled_result.Count() << "/" << tree->size()
     << " nodes\n";
  os << "cross-check: "
     << (match ? "interpreter bit-for-bit match" : "INTERPRETER MISMATCH")
     << "\n";
  os << "\n";
  std::string trace_text;
  NodeToText(trace.root, options.with_times, /*indent=*/0, &trace_text);
  os << "trace:\n" << trace_text;
  os << "\n";
  os << "registry delta (counters): " << out.registry_json << "\n";
  os << "consistent: " << (out.consistent ? "true" : "false") << "\n";
  for (const std::string& m : mismatches) {
    os << "  inconsistent " << m << "\n";
  }
  out.rendered = os.str();
  return out;
}

}  // namespace obs
}  // namespace xptc
