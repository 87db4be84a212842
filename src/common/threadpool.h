#ifndef XPTC_COMMON_THREADPOOL_H_
#define XPTC_COMMON_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"

namespace xptc {

/// Fixed-size work-stealing thread pool — the execution substrate of the
/// workload layer (`src/workload/`).
///
/// Design: one task deque per worker, guarded by its own mutex. `Submit`
/// distributes tasks round-robin; a worker pops from the *back* of its own
/// deque (most recently pushed — cache-warm) and, when its deque is empty,
/// steals from the *front* of a victim's deque (oldest task — the one the
/// owner would reach last). A small global mutex/condvar pair tracks only
/// two counters (tasks queued, tasks not yet finished) so idle workers can
/// sleep and `Wait` can block without polling.
///
/// Tasks receive the executing worker's id in [0, num_workers()), which
/// lets callers keep lock-free per-worker state (e.g. the per-worker
/// `ExecEngine` rows of `BatchEngine`): a worker id is only ever active
/// on one OS thread at a time.
///
/// All synchronisation is plain mutex/condvar (the only atomic is the
/// round-robin submit cursor), so the pool is straightforward to reason
/// about and clean under TSan. Task granularity in this library is a full
/// (tree, query) evaluation, so per-task locking cost is noise.
class ThreadPool {
 public:
  /// A unit of work; invoked with the executing worker's id.
  using Task = std::function<void(int)>;

  /// `num_workers <= 0` selects `DefaultWorkers()`.
  explicit ThreadPool(int num_workers = 0) {
    if (num_workers <= 0) num_workers = DefaultWorkers();
    queues_.reserve(static_cast<size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i) {
      queues_.push_back(std::make_unique<WorkerQueue>());
    }
    threads_.reserve(static_cast<size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(i); });
    }
    collector_ = obs::Registry::Default().AddCollector(
        [this](obs::Snapshot* snap) {
          snap->AddCounter("threadpool.tasks_executed", executed_.value());
          snap->AddCounter("threadpool.steals", steals_.value());
        });
  }

  /// Drains all remaining tasks, then joins the workers.
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(threads_.size()); }

  /// Hardware concurrency, clamped to at least 1.
  static int DefaultWorkers() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

  /// Enqueues a task. Never blocks; tasks may run before Submit returns.
  void Submit(Task task) {
    XPTC_CHECK(task != nullptr);
    const size_t qi =
        next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
    // Count the task BEFORE publishing it. The other order is unsound: a
    // worker still holding an entitlement from an earlier submission could
    // steal and finish the not-yet-counted task, driving pending_ to 0
    // while counted tasks still sit in deques — a concurrent Wait() would
    // then return before its own tasks ran. Counting first only errs the
    // safe way (a claim may briefly precede the push; TakeTask's retry
    // loop tolerates that, see below).
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++queued_;
      ++pending_;
    }
    {
      std::lock_guard<std::mutex> lock(queues_[qi]->mu);
      queues_[qi]->tasks.push_back(std::move(task));
    }
    work_cv_.notify_one();
  }

  /// Blocks until every submitted task has finished (including tasks
  /// submitted by other threads — the pool tracks one global count).
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }

  /// Runs `fn(i, worker_id)` for every i in [0, n) across the pool, then
  /// blocks until all n invocations finished.
  void ParallelFor(int n, const std::function<void(int, int)>& fn) {
    for (int i = 0; i < n; ++i) {
      Submit([i, &fn](int worker) { fn(i, worker); });
    }
    Wait();
  }

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void WorkerLoop(int id) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
        if (queued_ == 0) return;  // stop_ set and nothing left to drain
        // Claim an entitlement to exactly one queued task. Each counted
        // task is pushed into a deque shortly after being counted and
        // tasks are only removed by workers holding an entitlement, so a
        // claim is matched by a task that is either already in a deque or
        // about to land there — TakeTask retries until it appears.
        --queued_;
      }
      Task task = TakeTask(id);
      task(id);
      executed_.Inc();
      {
        std::lock_guard<std::mutex> lock(mu_);
        --pending_;
        if (pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  /// Pops the caller's own deque (LIFO), else steals round-robin (FIFO).
  /// Only called with an entitlement, so it always finds a task.
  Task TakeTask(int id) {
    const int n = static_cast<int>(queues_.size());
    for (;;) {
      for (int k = 0; k < n; ++k) {
        WorkerQueue& q = *queues_[static_cast<size_t>((id + k) % n)];
        std::lock_guard<std::mutex> lock(q.mu);
        if (q.tasks.empty()) continue;
        Task task;
        if (k == 0) {
          task = std::move(q.tasks.back());
          q.tasks.pop_back();
        } else {
          task = std::move(q.tasks.front());
          q.tasks.pop_front();
          steals_.Inc();
        }
        return task;
      }
      // Racing another claimant, or the push matching this claim has not
      // landed yet (Submit counts before publishing); retry.
      std::this_thread::yield();
    }
  }

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<size_t> next_queue_{0};  // round-robin submit cursor

  std::mutex mu_;  // guards queued_, pending_, stop_
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  int queued_ = 0;   // tasks counted by Submit, not yet claimed (the push
                     // into a deque may trail the count by an instant)
  int pending_ = 0;  // tasks submitted, not yet finished
  bool stop_ = false;

  // Per-instance obs counters, summed into `threadpool.*` registry names
  // by the collector. The handle is the last member: it unregisters before
  // the counters (or anything else) is destroyed, and worker threads are
  // joined in the destructor body before any member goes away.
  obs::Counter executed_;
  obs::Counter steals_;
  obs::Registry::CollectorHandle collector_;
};

}  // namespace xptc

#endif  // XPTC_COMMON_THREADPOOL_H_
