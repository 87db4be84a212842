#ifndef XPTC_SERVER_SERVICE_H_
#define XPTC_SERVER_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "common/result.h"
#include "exec/engine.h"
#include "server/protocol.h"
#include "tree/tree.h"
#include "workload/batch.h"
#include "workload/plan_cache.h"

namespace xptc {
namespace server {

struct ServiceOptions {
  /// Execution workers the service is sized for: one per server worker
  /// thread (`Handle`'s `worker` argument must be in [0, num_workers)),
  /// and also the width of the owned `BatchEngine`'s pool. A batch runs on
  /// the pool threads and on the server worker that received it, so up to
  /// 2 × num_workers threads compute at once. <= 0 selects hardware
  /// concurrency.
  int num_workers = 0;

  /// Plan-cache capacity (distinct query texts resident).
  size_t plan_cache_capacity = 1024;
};

/// The transport-independent execution core of the query server: a tree
/// corpus, a `PlanCache`, a `BatchEngine`, and per-(worker, tree)
/// `ExecEngine`s, mapped onto the `ServiceRequest`/`ServiceResponse` model
/// of protocol.h. The reactor (server.h) handles sockets and admission;
/// everything about *answering* a request — parse, plan-cache, compiled
/// execution, deadline enforcement, metrics/explain rendering — lives
/// here, so tests can drive the full service without a socket in sight.
///
/// Thread-safety: `AddTreeXml`/`AddTree` must finish before `Handle` runs
/// (corpus is fixed at serve time, like `BatchEngine::AddTree`). `Handle`
/// may then be called concurrently from any number of threads as long as
/// no two concurrent calls share a `worker` id — the contract a worker
/// pool satisfies by construction. Query compiles run concurrently: the
/// `PlanCache` is thread-safe and holds its own lock only around the
/// parser, the one step that mutates the shared `Alphabet` (interning a
/// label the corpus has never seen). Every other alphabet access at serve
/// time — the explain path reading label names, `AddTreeXml` — takes that
/// same lock (`PlanCache::LockAlphabets`), so simplification, interning
/// and lowering of cold plans overlap across workers.
class QueryService {
 public:
  explicit QueryService(ServiceOptions options = ServiceOptions{});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Parses `xml` into the corpus; returns the new tree id.
  Result<int> AddTreeXml(const std::string& xml);
  /// Registers an already-built tree (must be labelled over `alphabet()`).
  int AddTree(std::shared_ptr<const Tree> tree);

  int num_trees() const { return batch_.num_trees(); }
  int num_workers() const { return num_workers_; }
  /// The alphabet corpus trees and query texts are interned against.
  /// Callers building trees directly must intern labels through it
  /// before serving starts (`Handle` parses against it concurrently).
  Alphabet* alphabet() { return &alphabet_; }
  const Tree& tree(int id) const {
    return *trees_[static_cast<size_t>(id)];
  }

  /// Executes one request to completion and returns its response.
  /// `worker` identifies the calling worker thread (per-worker engine
  /// row); `deadline_ns` is the request's absolute deadline on the
  /// `ExecEngine::SteadyNowNs` clock (0 = none), fixed by the admission
  /// layer — a request that is already past it (it sat in the queue too
  /// long) returns kDeadlineExceeded without executing.
  ServiceResponse Handle(const ServiceRequest& req, int worker,
                         int64_t deadline_ns);

  /// True iff `req.op` is cheap enough to answer on the reactor thread
  /// (health, index, metrics, ping, and the flight-recorder /debug
  /// surface) — these bypass the admission queue so that /metrics,
  /// /healthz, and /debug/* stay responsive under overload, which is
  /// exactly when they matter. They touch only thread-safe state (the
  /// registry, the recorder's bounded logs, the journal rings), never the
  /// engines.
  static bool IsInline(RequestOp op) {
    return op == RequestOp::kHealth || op == RequestOp::kIndex ||
           op == RequestOp::kMetrics || op == RequestOp::kPing ||
           op == RequestOp::kDebugSlow || op == RequestOp::kDebugTrace ||
           op == RequestOp::kDebugJournal;
  }

 private:
  ServiceResponse HandleQuery(const ServiceRequest& req, int worker,
                              int64_t deadline_ns);
  ServiceResponse HandleBatch(const ServiceRequest& req,
                              int64_t deadline_ns);
  ServiceResponse HandleExplain(const ServiceRequest& req);

  /// Resolves the request's tree set (empty = whole corpus) or fails with
  /// kUnknownTree.
  Status ResolveTrees(const ServiceRequest& req, std::vector<int>* out,
                      ServiceResponse* resp);
  exec::ExecEngine* EngineFor(int worker, int tree_id);
  static void FillResult(const Bitset& bits, EvalMode mode, int tree_id,
                         TreeResult* out);
  static ServiceResponse ErrorResponse(const ServiceRequest& req,
                                       RespCode code, std::string message);

  const int num_workers_;
  Alphabet alphabet_;
  PlanCache plan_cache_;  // its LockAlphabets() guards alphabet_ at serve time
  std::vector<std::shared_ptr<const Tree>> trees_;
  BatchEngine batch_;
  // engines_[worker][tree], lazily built against the BatchEngine's shared
  // TreeCaches; each row is touched only by its worker (single-query path).
  std::vector<std::vector<std::unique_ptr<exec::ExecEngine>>> engines_;
};

}  // namespace server
}  // namespace xptc

#endif  // XPTC_SERVER_SERVICE_H_
