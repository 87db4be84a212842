#ifndef XPTC_COMMON_THREADPOOL_H_
#define XPTC_COMMON_THREADPOOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xptc {

/// Fixed-size fork-join pool — the execution substrate of the workload
/// layer (`src/workload/`). Its one operation is `ParallelFor`.
///
/// Design: a call publishes one record (the function, n, an atomic next
/// index) on a list of open calls and then claims indices itself, with
/// worker id `num_workers()`. Up to min(n − 1, P) of the P pool threads
/// join it; a pool thread serves the oldest open call first and claims
/// indices from the same counter until it runs dry. The call returns when
/// its own n indices are done — it never waits for another caller's work,
/// and a call made while every pool thread is busy still finishes, on its
/// caller alone.
///
/// Worker ids lie in [0, num_workers()]: pool thread i runs with id i, and
/// the calling thread with id num_workers(). That lets callers keep
/// lock-free per-worker state (e.g. `BatchEngine`'s engine rows): a pool
/// id is only ever active on one OS thread at a time, and id
/// num_workers() names whichever thread made the call, so state kept for
/// it must be per call.
///
/// Synchronisation is one mutex with its condition variables; the only
/// atomic is a call's next-index counter. Task granularity in this library
/// is a full (tree, query) evaluation, so the per-call locking is noise.
class ThreadPool {
 public:
  /// `num_workers <= 0` selects `DefaultWorkers()`.
  explicit ThreadPool(int num_workers = 0) {
    if (num_workers <= 0) num_workers = DefaultWorkers();
    threads_.reserve(static_cast<size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  /// Joins the pool threads. No `ParallelFor` may be in flight.
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

  /// Pool threads; the calling thread of `ParallelFor` runs as one more.
  int num_workers() const { return static_cast<int>(threads_.size()); }

  /// Hardware concurrency, clamped to at least 1.
  static int DefaultWorkers() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

  /// Runs `fn(i, worker_id)` for every i in [0, n), on the calling thread
  /// and pool threads that join it, and returns when all n are done. May
  /// be called from several threads at once; `fn` must not throw.
  void ParallelFor(int n, const std::function<void(int, int)>& fn) {
    const int self = num_workers();
    const int seats = std::min(n - 1, self);
    Call call(fn, n, seats);
    if (seats > 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        open_.push_back(&call);
      }
      for (int k = 0; k < seats; ++k) work_cv_.notify_one();
    }
    call.RunIndices(self);
    if (seats <= 0) return;
    std::unique_lock<std::mutex> lock(mu_);
    Unlist(&call);  // from here on no pool thread joins
    call.done_cv.wait(lock, [&call] { return call.joined == 0; });
  }

 private:
  struct Call {
    Call(const std::function<void(int, int)>& fn, int n, int seats)
        : fn(fn), n(n), seats(seats) {}

    const std::function<void(int, int)>& fn;
    const int n;
    int seats;  // pool threads that may still join (guarded by mu_)
    std::atomic<int> next{0};
    int joined = 0;  // pool threads inside RunIndices (guarded by mu_)
    std::condition_variable done_cv;  // joined reached 0

    void RunIndices(int worker) {
      for (int i; (i = next.fetch_add(1)) < n;) {
        fn(i, worker);
      }
    }
  };

  void WorkerLoop(int id) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [this] { return stop_ || !open_.empty(); });
      if (open_.empty()) return;  // stop_, and no call is open
      Call* call = open_.front();  // the oldest open call
      if (--call->seats == 0) open_.pop_front();
      ++call->joined;
      lock.unlock();
      call->RunIndices(id);
      lock.lock();
      Unlist(call);  // its indices are all claimed
      if (--call->joined == 0) call->done_cv.notify_one();
    }
  }

  /// Drops `call` from the open list if it is still there. Under mu_.
  void Unlist(Call* call) {
    auto it = std::find(open_.begin(), open_.end(), call);
    if (it != open_.end()) open_.erase(it);
  }

  std::mutex mu_;  // guards open_, stop_, and each call's seats/joined
  std::condition_variable work_cv_;
  std::deque<Call*> open_;  // calls pool threads may join, oldest first
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: they use the members above
};

}  // namespace xptc

#endif  // XPTC_COMMON_THREADPOOL_H_
