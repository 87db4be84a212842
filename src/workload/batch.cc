#include "workload/batch.h"

#include <atomic>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace xptc {

namespace {

// Per-task flame histogram (nanoseconds per (tree, query) task), shared by
// all engines. Fetched once; Observe is a relaxed atomic add, and the clock
// reads around it are compiled out under XPTC_OBS=OFF.
obs::Histogram& TaskFlame() {
  static obs::Histogram* h =
      &obs::Registry::Default().histogram("batch.task_ns");
  return *h;
}

}  // namespace

BatchEngine::BatchEngine(BatchOptions options) {
  if (options.pool != nullptr) {
    pool_ = options.pool;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(options.num_workers);
    pool_ = owned_pool_.get();
  }
  engines_.resize(static_cast<size_t>(pool_->num_workers()));
  collector_ =
      obs::Registry::Default().AddCollector([this](obs::Snapshot* snap) {
        snap->AddCounter("batch.runs", runs_.value());
        snap->AddCounter("batch.tasks", tasks_.value());
      });
}

BatchEngine::~BatchEngine() {
  // Engines reference the TreeCaches; drain in-flight tasks before
  // members destruct (owned pool joins here; external pools must be idle
  // on this engine's tasks, which Run guarantees by blocking).
  if (owned_pool_ != nullptr) owned_pool_.reset();
}

int BatchEngine::AddTree(std::shared_ptr<const Tree> tree) {
  XPTC_CHECK(tree != nullptr);
  const int index = num_trees();
  caches_.push_back(std::make_shared<TreeCache>(tree));
  trees_.push_back(std::move(tree));
  return index;
}

void BatchEngine::EnsureEngineRows() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& row : engines_) {
    if (row.size() < trees_.size()) row.resize(trees_.size());
  }
}

exec::ExecEngine* BatchEngine::EngineFor(int worker, int tree_index) {
  auto& slot = engines_[static_cast<size_t>(worker)]
                       [static_cast<size_t>(tree_index)];
  if (slot == nullptr) {
    slot = std::make_unique<exec::ExecEngine>(
        *trees_[static_cast<size_t>(tree_index)],
        caches_[static_cast<size_t>(tree_index)].get());
  }
  return slot.get();
}

std::vector<std::vector<Bitset>> BatchEngine::Run(
    const std::vector<Query>& queries) {
  std::vector<std::shared_ptr<const exec::Program>> programs;
  programs.reserve(queries.size());
  for (const Query& query : queries) {
    programs.push_back(exec::Program::Compile(query.plan()));
  }
  std::vector<int> all_trees(static_cast<size_t>(num_trees()));
  std::iota(all_trees.begin(), all_trees.end(), 0);
  return RunCompiledOnTrees(programs, all_trees, /*deadline_ns=*/0,
                            /*deadline_expired=*/nullptr);
}

std::vector<std::vector<Bitset>> BatchEngine::RunCompiledOnTrees(
    const std::vector<std::shared_ptr<const exec::Program>>& programs,
    const std::vector<int>& tree_indices, int64_t deadline_ns,
    bool* deadline_expired, obs::BatchTraceSink* trace_sink) {
  const int num_t = static_cast<int>(tree_indices.size());
  const int num_q = static_cast<int>(programs.size());
  for (int t : tree_indices) XPTC_CHECK(t >= 0 && t < num_trees());
  for (const auto& program : programs) XPTC_CHECK(program != nullptr);
  std::vector<std::vector<Bitset>> results(static_cast<size_t>(num_t));
  for (auto& row : results) row.resize(static_cast<size_t>(num_q));
  if (num_t == 0 || num_q == 0) return results;
  runs_.Inc();
  tasks_.Add(num_t * num_q);
  EnsureEngineRows();
  std::atomic<bool> expired{false};
  const uint64_t flight_id = obs::CurrentFlightId();
  pool_->ParallelFor(num_t * num_q, [&](int task, int worker) {
    // Attributes journal events fired inside the engine (deadline probes)
    // to the request this fan-out belongs to, across pool threads. No span
    // tree: a task's record in the request trace is its WorkerSpan.
    obs::RequestScope scope(flight_id, nullptr);
    obs::TraceSpan span("batch.task", &TaskFlame());
    const int ti = task / num_q;
    const int q = task % num_q;
    const int t = tree_indices[static_cast<size_t>(ti)];
    exec::ExecEngine* engine = EngineFor(worker, t);
    // Armed per task (engines are shared across concurrent calls; between
    // tasks they carry no deadline). Once one task has expired, the rest of
    // this request is already lost — skip straight to empty results.
    if (expired.load(std::memory_order_relaxed)) {
      results[static_cast<size_t>(ti)][static_cast<size_t>(q)] =
          Bitset(engine->tree().size());
      if (trace_sink != nullptr) {
        // Record the skip with zero elapsed so the merged trace still
        // accounts for every (tree, query) task exactly once.
        trace_sink->Add(worker,
                        obs::WorkerSpan{worker, t, q, obs::NowNs(), 0});
      }
      return;
    }
    engine->SetDeadline(deadline_ns);
    const int64_t eval_start_ns =
        trace_sink != nullptr ? obs::NowNs() : 0;
    results[static_cast<size_t>(ti)][static_cast<size_t>(q)] =
        engine->Eval(*programs[static_cast<size_t>(q)]);
    if (trace_sink != nullptr) {
      const int64_t eval_end_ns = obs::NowNs();
      trace_sink->Add(worker,
                      obs::WorkerSpan{worker, t, q, eval_start_ns,
                                      eval_end_ns - eval_start_ns});
      obs::Journal::Record(
          obs::JournalCode::kBatchTask,
          (static_cast<uint64_t>(t) << 16) | static_cast<uint64_t>(q), 0,
          eval_end_ns);
    }
    if (engine->last_run().deadline_expired) {
      expired.store(true, std::memory_order_relaxed);
    }
    engine->SetDeadline(0);
  });
  if (deadline_expired != nullptr) {
    *deadline_expired = expired.load(std::memory_order_relaxed);
  }
  return results;
}

// Defined here (not in engine.cc) so the xpath layer does not depend on
// the workload layer at compile time — engine.h only declares it.
std::vector<std::vector<Bitset>> Query::SelectBatch(
    const std::vector<std::shared_ptr<const Tree>>& trees,
    const std::vector<Query>& queries, int num_workers) {
  BatchOptions options;
  options.num_workers = num_workers;
  BatchEngine engine(options);
  for (const auto& tree : trees) engine.AddTree(tree);
  return engine.Run(queries);
}

}  // namespace xptc
