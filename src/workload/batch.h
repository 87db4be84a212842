#ifndef XPTC_WORKLOAD_BATCH_H_
#define XPTC_WORKLOAD_BATCH_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/bitset.h"
#include "common/threadpool.h"
#include "exec/engine.h"
#include "exec/program.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "tree/tree.h"
#include "xpath/engine.h"
#include "workload/tree_cache.h"

namespace xptc {

/// Configuration for a `BatchEngine`.
struct BatchOptions {
  /// Worker threads for the owned pool; <= 0 selects hardware concurrency.
  /// Ignored when `pool` is set.
  int num_workers = 0;

  /// Optional external pool to run on (not owned; must outlive the
  /// engine). Lets several engines share one set of OS threads.
  ThreadPool* pool = nullptr;
};

/// Parallel cross-product evaluator: a corpus of trees × a workload of
/// compiled queries, sharded as one (tree, query) task per pair on a
/// work-stealing thread pool, each task run on the compiled
/// `exec::ExecEngine`.
///
/// The throughput levers, in order of importance:
///  - per-tree `TreeCache`s (built by `AddTree`, shared by every worker and
///    every call) memoise `W`-body results and label sets across queries,
///    so a workload of q `W`-queries pays the bottom-up `W` pass once per
///    distinct body, not q times;
///  - per-(worker, tree) `ExecEngine`s persist across tasks and calls, so
///    steady-state evaluation allocates no bitsets — each worker touches
///    only its own engine row, no locks on the hot path;
///  - work stealing keeps cores busy despite wildly uneven task costs
///    (a `W`-heavy query on the biggest tree vs. a label test on the
///    smallest).
///
/// Correctness bar (enforced by the differential tests): `Run` results are
/// bit-for-bit equal to a sequential `Query::Select` loop.
///
/// Thread-safety: `Run`/`RunCompiledOnTrees` may be called concurrently
/// with each other (tasks interleave on the pool; results are
/// independent). `AddTree` must not race with them. The same `TreeCache`
/// objects may simultaneously be used by other engines (e.g. a concurrent
/// `ExecEngine` attached to the same cache on another thread).
class BatchEngine {
 public:
  explicit BatchEngine(BatchOptions options = BatchOptions{});
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// Registers a document and builds its `TreeCache`; returns its index.
  int AddTree(std::shared_ptr<const Tree> tree);

  int num_trees() const { return static_cast<int>(trees_.size()); }
  int num_workers() const { return pool_->num_workers(); }
  const std::shared_ptr<TreeCache>& tree_cache(int tree_index) const {
    return caches_[static_cast<size_t>(tree_index)];
  }

  /// Compiles each query's plan and evaluates it on every registered tree;
  /// `result[t][q]` equals `queries[q].Select(tree t)` bit for bit. Use a
  /// `PlanCache::ParseCompiled` workload and `RunCompiledOnTrees` to share
  /// lowering across calls.
  std::vector<std::vector<Bitset>> Run(const std::vector<Query>& queries);

  /// Runs pre-compiled programs (see exec/program.h) on a subset of the
  /// registered trees, with an optional per-request deadline — the serving
  /// layer's batch entry point (src/server/). One immutable `Program` per
  /// query is shared by every worker on every tree. `result[i][q]` is the
  /// answer on tree `tree_indices[i]`; every index must be in
  /// [0, num_trees()).
  /// `deadline_ns` (absolute, `ExecEngine::SteadyNowNs` clock; 0 = none)
  /// is armed on each task's engine for the duration of that task only, so
  /// concurrent calls with different deadlines do not interfere. When any
  /// task's run is abandoned by the deadline probe, `*deadline_expired`
  /// (if non-null) is set and the whole result must be discarded — the
  /// abandoned slots hold empty bitsets.
  ///
  /// `trace_sink` (optional) is the flight recorder's fan-out bridge
  /// (obs/recorder.h): each task appends one WorkerSpan — (tree, query,
  /// pool worker, start, elapsed) — into the sink's per-worker buffer,
  /// lock-free, and the caller merges them into the request's trace after
  /// this call returns. nullptr (the default, and every untraced request)
  /// costs nothing on the task path beyond one branch.
  std::vector<std::vector<Bitset>> RunCompiledOnTrees(
      const std::vector<std::shared_ptr<const exec::Program>>& programs,
      const std::vector<int>& tree_indices, int64_t deadline_ns,
      bool* deadline_expired, obs::BatchTraceSink* trace_sink = nullptr);

 private:
  /// Lazily creates the per-(worker, tree) engine. Only ever called from
  /// worker `worker`'s thread, so no synchronisation is needed.
  exec::ExecEngine* EngineFor(int worker, int tree_index);

  /// Grows every worker's engine row to cover all registered trees (no-op
  /// when sizes are unchanged). Called at run entry under mu_.
  void EnsureEngineRows();

  std::vector<std::shared_ptr<const Tree>> trees_;
  std::vector<std::shared_ptr<TreeCache>> caches_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  std::mutex mu_;  // guards engine row growth at run entry
  // engines_[worker][tree]; each row is touched only by its worker.
  std::vector<std::vector<std::unique_ptr<exec::ExecEngine>>> engines_;
  // Per-instance obs counters; the collector sums them into `batch.*`
  // registry names across engines (declared last: unregisters first).
  obs::Counter runs_;
  obs::Counter tasks_;
  obs::Registry::CollectorHandle collector_;
};

}  // namespace xptc

#endif  // XPTC_WORKLOAD_BATCH_H_
