#include "server/service.h"

#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/threadpool.h"
#include "obs/explain.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "testing/corpus.h"
#include "tree/xml.h"

namespace xptc {
namespace server {

namespace {

/// Registry names the serving layer publishes. `server.shed` lives in the
/// reactor (server.cc) — sheds happen before a request reaches this layer.
struct ServiceMetrics {
  obs::Counter& requests;
  obs::Counter& deadline_exceeded;
  obs::Counter& bad_requests;
  obs::Histogram& exec_ns;
};

ServiceMetrics& Metrics() {
  static ServiceMetrics* m = [] {
    obs::Registry& reg = obs::Registry::Default();
    return new ServiceMetrics{
        reg.counter("server.requests"),
        reg.counter("server.deadline_exceeded"),
        reg.counter("server.bad_request"),
        reg.histogram("server.exec_ns"),
    };
  }();
  return *m;
}

}  // namespace

QueryService::QueryService(ServiceOptions options)
    : num_workers_(options.num_workers <= 0 ? ThreadPool::DefaultWorkers()
                                            : options.num_workers),
      plan_cache_(options.plan_cache_capacity),
      batch_(BatchOptions{.num_workers = num_workers_}),
      engines_(static_cast<size_t>(num_workers_)) {}

Result<int> QueryService::AddTreeXml(const std::string& xml) {
  Tree tree;
  {
    std::unique_lock<std::mutex> lock = plan_cache_.LockAlphabets();
    XPTC_ASSIGN_OR_RETURN(tree, ParseXml(xml, &alphabet_));
  }
  return AddTree(std::make_shared<const Tree>(std::move(tree)));
}

int QueryService::AddTree(std::shared_ptr<const Tree> tree) {
  XPTC_CHECK(tree != nullptr);
  trees_.push_back(tree);
  const int id = batch_.AddTree(std::move(tree));
  for (auto& row : engines_) row.resize(trees_.size());
  return id;
}

exec::ExecEngine* QueryService::EngineFor(int worker, int tree_id) {
  auto& slot =
      engines_[static_cast<size_t>(worker)][static_cast<size_t>(tree_id)];
  if (slot == nullptr) {
    slot = std::make_unique<exec::ExecEngine>(
        *trees_[static_cast<size_t>(tree_id)],
        batch_.tree_cache(tree_id).get());
  }
  return slot.get();
}

void QueryService::FillResult(const Bitset& bits, EvalMode mode, int tree_id,
                              TreeResult* out) {
  out->tree_id = tree_id;
  switch (mode) {
    case EvalMode::kNodeSet:
      out->count = bits.Count();
      out->bits = bits;
      break;
    case EvalMode::kBoolean:
      out->boolean = bits.Any();
      break;
    case EvalMode::kCount:
      out->count = bits.Count();
      break;
  }
}

ServiceResponse QueryService::ErrorResponse(const ServiceRequest& req,
                                            RespCode code,
                                            std::string message) {
  ServiceResponse resp;
  resp.code = code;
  resp.op = req.op;
  resp.mode = req.mode;
  resp.request_id = req.request_id;
  resp.payload = std::move(message);
  return resp;
}

Status QueryService::ResolveTrees(const ServiceRequest& req,
                                  std::vector<int>* out,
                                  ServiceResponse* resp) {
  const int n = num_trees();
  if (req.tree_ids.empty()) {
    out->reserve(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t) out->push_back(t);
    return Status::OK();
  }
  for (int id : req.tree_ids) {
    if (id < 0 || id >= n) {
      *resp = ErrorResponse(req, RespCode::kUnknownTree,
                            "tree id " + std::to_string(id) +
                                " out of range (corpus has " +
                                std::to_string(n) + " trees)");
      return Status::OutOfRange("unknown tree");
    }
    out->push_back(id);
  }
  return Status::OK();
}

ServiceResponse QueryService::Handle(const ServiceRequest& req, int worker,
                                     int64_t deadline_ns) {
  XPTC_CHECK(worker >= 0 && worker < num_workers_);
  Metrics().requests.Inc();
  const int64_t start_ns = exec::ExecEngine::SteadyNowNs();
  ServiceResponse resp;
  switch (req.op) {
    case RequestOp::kHealth: {
      resp.op = RequestOp::kHealth;
      resp.payload = "{\"status\":\"ok\",\"trees\":" +
                     std::to_string(num_trees()) +
                     ",\"workers\":" + std::to_string(num_workers_) + "}\n";
      resp.content_type = "application/json";
      return resp;
    }
    case RequestOp::kIndex: {
      resp.op = RequestOp::kIndex;
      resp.payload =
          "xptc query server\n"
          "  POST /query?trees=0,1&mode=nodeset|boolean|count"
          "&deadline_ms=N   body: one XPath query\n"
          "  POST /batch?...                                 "
          "  body: one query per line\n"
          "  GET  /explain?query=...&json=1&nodes=N&shape=S&seed=K\n"
          "  GET  /metrics    (Prometheus text)\n"
          "  GET  /healthz\n"
          "binary protocol: 0xB7-magic length-prefixed frames, see "
          "src/server/protocol.h\n";
      return resp;
    }
    case RequestOp::kMetrics: {
      resp.op = RequestOp::kMetrics;
      resp.payload = obs::Registry::Default().PrometheusText();
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
      return resp;
    }
    case RequestOp::kPing: {
      resp.op = RequestOp::kPing;
      resp.request_id = req.request_id;
      return resp;
    }
    case RequestOp::kDebugSlow: {
      resp.op = RequestOp::kDebugSlow;
      resp.payload = obs::FlightRecorder::Get().SlowJson();
      resp.content_type = "application/json";
      return resp;
    }
    case RequestOp::kDebugTrace: {
      resp.op = RequestOp::kDebugTrace;
      obs::RequestTrace trace;
      if (!obs::FlightRecorder::Get().Lookup(req.trace_id, &trace)) {
        return ErrorResponse(req, RespCode::kNotFound,
                             "no trace for id " +
                                 obs::FormatFlightId(req.trace_id) +
                                 " (evicted, unsampled, or never seen)");
      }
      resp.payload = obs::RequestTraceJson(trace) + "\n";
      resp.content_type = "application/json";
      return resp;
    }
    case RequestOp::kDebugJournal: {
      resp.op = RequestOp::kDebugJournal;
      const Result<obs::JournalDump> dump =
          obs::ParseJournalDump(obs::Journal::DumpBinary());
      if (!dump.ok()) {
        return ErrorResponse(req, RespCode::kInternal,
                             dump.status().ToString());
      }
      resp.payload = obs::JournalDumpToJson(*dump);
      resp.content_type = "application/json";
      return resp;
    }
    case RequestOp::kQuery:
    case RequestOp::kBatch:
    case RequestOp::kExplain:
      break;
  }

  // Execution ops from here on. Dialect gate first (protocol.h: the tag is
  // carried end-to-end so new dialects slot in without a wire change).
  if (req.dialect != kDialectXPath) {
    Metrics().bad_requests.Inc();
    return ErrorResponse(req, RespCode::kUnsupportedDialect,
                         "dialect " + std::to_string(req.dialect) +
                             " not implemented (0 = XPath)");
  }
  // A request that outlived its deadline in the admission queue is not
  // worth starting: the client has already given up on it.
  if (deadline_ns != 0 &&
      exec::ExecEngine::SteadyNowNs() >= deadline_ns) {
    Metrics().deadline_exceeded.Inc();
    obs::Journal::Record(
        obs::JournalCode::kDeadlineQueue,
        static_cast<uint64_t>(exec::ExecEngine::SteadyNowNs() - deadline_ns));
    obs::TraceNote("deadline expired while queued");
    return ErrorResponse(req, RespCode::kDeadlineExceeded,
                         "deadline expired while queued");
  }

  switch (req.op) {
    case RequestOp::kQuery:
      resp = HandleQuery(req, worker, deadline_ns);
      break;
    case RequestOp::kBatch:
      resp = HandleBatch(req, deadline_ns);
      break;
    case RequestOp::kExplain:
      resp = HandleExplain(req);
      break;
    default:
      resp = ErrorResponse(req, RespCode::kInternal, "unreachable op");
      break;
  }
  Metrics().exec_ns.Observe(exec::ExecEngine::SteadyNowNs() - start_ns);
  return resp;
}

ServiceResponse QueryService::HandleQuery(const ServiceRequest& req,
                                          int worker, int64_t deadline_ns) {
  XPTC_CHECK(req.queries.size() == 1);
  ServiceResponse resp;
  std::vector<int> tree_ids;
  if (!ResolveTrees(req, &tree_ids, &resp).ok()) {
    Metrics().bad_requests.Inc();
    return resp;
  }
  Result<PlanCache::CompiledQuery> compiled =
      plan_cache_.ParseCompiled(req.queries[0], &alphabet_);
  if (!compiled.ok()) {
    Metrics().bad_requests.Inc();
    return ErrorResponse(req, RespCode::kBadRequest,
                         compiled.status().ToString());
  }
  resp.op = RequestOp::kQuery;
  resp.mode = req.mode;
  resp.request_id = req.request_id;
  resp.num_queries = 1;
  resp.results.resize(tree_ids.size());
  if (tree_ids.size() > 1) {
    // Multi-tree queries coalesce through the BatchEngine — the trees fan
    // out across the batch pool and this worker instead of running
    // sequentially on it, and share its per-tree caches with /batch
    // traffic.
    // Bit-for-bit identical to the per-tree loop below (server_test pins
    // this). A traced request hands the engine a per-worker span sink, so the
    // merged RequestTrace accounts for every fan-out task exactly once.
    obs::RequestTrace* trace = obs::CurrentRequestTrace();
    std::unique_ptr<obs::BatchTraceSink> sink;
    if (trace != nullptr) {
      sink = std::make_unique<obs::BatchTraceSink>(trace->id,
                                                   batch_.num_workers());
    }
    bool expired = false;
    const std::vector<std::vector<Bitset>> results = batch_.RunCompiledOnTrees(
        {compiled->program}, tree_ids, deadline_ns, &expired, sink.get());
    if (sink != nullptr) sink->MergeInto(&trace->spans);
    if (expired) {
      Metrics().deadline_exceeded.Inc();
      return ErrorResponse(req, RespCode::kDeadlineExceeded,
                           "deadline expired during execution");
    }
    for (size_t i = 0; i < tree_ids.size(); ++i) {
      FillResult(results[i][0], req.mode, tree_ids[i], &resp.results[i]);
    }
    return resp;
  }
  // Single-tree fast path: inline on this worker's own engine — no pool
  // hop.
  for (size_t i = 0; i < tree_ids.size(); ++i) {
    const int t = tree_ids[i];
    exec::ExecEngine* engine = EngineFor(worker, t);
    engine->SetDeadline(deadline_ns);
    const int64_t eval_start_ns = obs::NowNs();
    const Bitset bits = engine->Eval(*compiled->program);
    engine->SetDeadline(0);
    if (obs::RequestTrace* trace = obs::CurrentRequestTrace()) {
      trace->spans.push_back(obs::WorkerSpan{
          worker, t, 0, eval_start_ns, obs::NowNs() - eval_start_ns});
    }
    if (engine->last_run().deadline_expired) {
      Metrics().deadline_exceeded.Inc();
      return ErrorResponse(req, RespCode::kDeadlineExceeded,
                           "deadline expired during execution");
    }
    FillResult(bits, req.mode, t, &resp.results[i]);
  }
  return resp;
}

ServiceResponse QueryService::HandleBatch(const ServiceRequest& req,
                                          int64_t deadline_ns) {
  ServiceResponse resp;
  std::vector<int> tree_ids;
  if (!ResolveTrees(req, &tree_ids, &resp).ok()) {
    Metrics().bad_requests.Inc();
    return resp;
  }
  std::vector<std::shared_ptr<const exec::Program>> programs;
  programs.reserve(req.queries.size());
  for (size_t q = 0; q < req.queries.size(); ++q) {
    Result<PlanCache::CompiledQuery> compiled =
        plan_cache_.ParseCompiled(req.queries[q], &alphabet_);
    if (!compiled.ok()) {
      Metrics().bad_requests.Inc();
      return ErrorResponse(req, RespCode::kBadRequest,
                           "query " + std::to_string(q) + ": " +
                               compiled.status().ToString());
    }
    programs.push_back(compiled->program);
  }
  obs::RequestTrace* trace = obs::CurrentRequestTrace();
  std::unique_ptr<obs::BatchTraceSink> sink;
  if (trace != nullptr) {
    sink = std::make_unique<obs::BatchTraceSink>(trace->id,
                                                 batch_.num_workers());
  }
  bool expired = false;
  // result[i][q]: tree-major from the batch engine.
  const std::vector<std::vector<Bitset>> results = batch_.RunCompiledOnTrees(
      programs, tree_ids, deadline_ns, &expired, sink.get());
  if (sink != nullptr) sink->MergeInto(&trace->spans);
  if (expired) {
    Metrics().deadline_exceeded.Inc();
    return ErrorResponse(req, RespCode::kDeadlineExceeded,
                         "deadline expired during batch execution");
  }
  resp.op = RequestOp::kBatch;
  resp.mode = req.mode;
  resp.request_id = req.request_id;
  resp.num_queries = static_cast<int>(req.queries.size());
  resp.results.resize(req.queries.size() * tree_ids.size());
  // Response layout is query-major (protocol.h).
  for (size_t q = 0; q < req.queries.size(); ++q) {
    for (size_t i = 0; i < tree_ids.size(); ++i) {
      FillResult(results[i][q], req.mode, tree_ids[i],
                 &resp.results[q * tree_ids.size() + i]);
    }
  }
  return resp;
}

ServiceResponse QueryService::HandleExplain(const ServiceRequest& req) {
  XPTC_CHECK(req.queries.size() == 1);
  obs::ExplainOptions options;
  options.query = req.queries[0];
  options.json = req.explain_json;
  if (!req.tree_ids.empty()) {
    ServiceResponse resp;
    std::vector<int> tree_ids;
    if (!ResolveTrees(req, &tree_ids, &resp).ok()) {
      Metrics().bad_requests.Inc();
      return resp;
    }
    // Explain runs its whole pipeline (own alphabet, oracle cross-check)
    // from an XML document, so corpus trees travel as compact XML. Label
    // names are read under the parser's lock: a concurrent query naming a
    // new label grows the alphabet's name table.
    std::unique_lock<std::mutex> lock = plan_cache_.LockAlphabets();
    options.xml = testing::CompactXml(tree(tree_ids[0]), alphabet_);
  } else {
    options.gen_nodes = req.explain_nodes;
    options.gen_shape = req.explain_shape;
    options.gen_seed = req.explain_seed;
  }
  Result<obs::ExplainOutput> out = obs::ExplainQuery(options);
  if (!out.ok()) {
    Metrics().bad_requests.Inc();
    return ErrorResponse(req, RespCode::kBadRequest, out.status().ToString());
  }
  ServiceResponse resp;
  resp.op = RequestOp::kExplain;
  resp.request_id = req.request_id;
  resp.payload = out->rendered;
  // Served over the flight-recorded path, EXPLAIN also renders the
  // request's own RequestTrace — the phases known at this point (accept,
  // parse, queue) plus the flight id the /debug endpoints key on. Text
  // output only: the JSON dump must stay a single valid object.
  if (!req.explain_json) {
    if (const obs::RequestTrace* trace = obs::CurrentRequestTrace()) {
      resp.payload +=
          "\n== request trace (exec/encode/flush pending) ==\n" +
          obs::RequestTraceText(*trace);
    }
  }
  resp.content_type = req.explain_json ? "application/json"
                                       : "text/plain; charset=utf-8";
  return resp;
}

}  // namespace server
}  // namespace xptc
