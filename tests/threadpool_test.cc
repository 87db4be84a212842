#include "common/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xptc {
namespace {

TEST(ThreadPoolTest, ParallelForCoversIndexRangeOnce) {
  ThreadPool pool(4);
  constexpr int kN = 777;
  std::vector<std::atomic<int>> seen(kN);
  for (auto& s : seen) s.store(0);
  pool.ParallelFor(kN, [&](int index, int worker) {
    ASSERT_GE(index, 0);
    ASSERT_LT(index, kN);
    ASSERT_GE(worker, 0);
    ASSERT_LE(worker, pool.num_workers());
    seen[index].fetch_add(1);
  });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "index " << i;
  }
  // Zero-length range is a no-op, not a hang.
  pool.ParallelFor(0, [&](int, int) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, TheLastWorkerIdIsTheCallingThread) {
  // Ids [0, P) are pool threads; id P appears only on the thread that
  // called ParallelFor — here the test thread and then another one.
  ThreadPool pool(3);
  ASSERT_EQ(pool.num_workers(), 3);
  constexpr int kN = 300;
  for (int caller = 0; caller < 2; ++caller) {
    auto check = [&] {
      const std::thread::id self = std::this_thread::get_id();
      std::vector<int> ids(kN, -1);
      std::vector<char> on_caller(kN, 0);
      pool.ParallelFor(kN, [&](int i, int worker) {
        ids[static_cast<size_t>(i)] = worker;
        on_caller[static_cast<size_t>(i)] =
            std::this_thread::get_id() == self;
      });
      for (int i = 0; i < kN; ++i) {
        const int worker = ids[static_cast<size_t>(i)];
        EXPECT_GE(worker, 0) << "index " << i;
        EXPECT_LE(worker, 3) << "index " << i;
        EXPECT_EQ(worker == 3, on_caller[static_cast<size_t>(i)] != 0)
            << "index " << i << " ran as worker " << worker;
      }
    };
    if (caller == 0) {
      check();
    } else {
      std::thread other(check);
      other.join();
    }
  }
}

TEST(ThreadPoolTest, SingleIndexRunsOnTheCaller) {
  ThreadPool pool(2);
  const std::thread::id self = std::this_thread::get_id();
  int runs = 0;
  pool.ParallelFor(1, [&](int i, int worker) {
    EXPECT_EQ(i, 0);
    EXPECT_EQ(worker, pool.num_workers());
    EXPECT_EQ(std::this_thread::get_id(), self);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPoolTest, CallsAllowReuse) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(50, [&](int, int) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), (round + 1) * 50);
  }
}

TEST(ThreadPoolTest, CallsFromManyThreads) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  callers.reserve(4);
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 25; ++round) {
        pool.ParallelFor(4, [&](int, int) { total.fetch_add(1); });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPoolTest, OneLongIndexDoesNotHoldBackTheRest) {
  // Whichever thread claims index 0 stays in it until every other index
  // has run, so the rest must be claimed by the other threads of the
  // call (the caller, or a pool thread that joined it).
  ThreadPool pool(4);
  constexpr int kN = 301;
  std::atomic<int> short_done{0};
  pool.ParallelFor(kN, [&](int i, int) {
    if (i == 0) {
      while (short_done.load() < kN - 1) std::this_thread::yield();
    } else {
      short_done.fetch_add(1);
    }
  });
  EXPECT_EQ(short_done.load(), kN - 1);
}

TEST(ThreadPoolTest, CallFinishesWhileEveryPoolThreadIsBusy) {
  // Thread A's call holds every pool thread in a task blocked on a latch.
  // B's call must then run entirely on B, as worker num_workers(), and
  // return before A is released: a call joins only its own work.
  ThreadPool pool(3);
  const int p = pool.num_workers();
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  bool release = false;
  std::thread a([&] {
    pool.ParallelFor(p + 1, [&](int, int) {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started == p + 1; });
  }
  std::vector<int> ids(8, -1);
  pool.ParallelFor(8, [&](int i, int worker) {
    ids[static_cast<size_t>(i)] = worker;
  });
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ids[static_cast<size_t>(i)], p) << "index " << i;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(release);
    release = true;
  }
  cv.notify_all();
  a.join();
}

TEST(ThreadPoolTest, ConcurrentParallelForsNeverReturnEarly) {
  // A call must not return before its own indices ran, whatever other
  // calls are in flight: otherwise its by-reference captures (fn, out)
  // would be used after destruction. Detectable here as unwritten slots
  // (and as use-after-free under ASan/TSan).
  ThreadPool pool(4);
  std::atomic<bool> incomplete{false};
  std::vector<std::thread> callers;
  callers.reserve(3);
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 200; ++round) {
        std::vector<int> out(17, 0);
        pool.ParallelFor(17, [&out](int i, int) { out[static_cast<size_t>(i)] = i + 1; });
        for (int i = 0; i < 17; ++i) {
          if (out[static_cast<size_t>(i)] != i + 1) incomplete.store(true);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_FALSE(incomplete.load());
}

TEST(ThreadPoolTest, DefaultWorkersIsPositive) {
  EXPECT_GE(ThreadPool::DefaultWorkers(), 1);
  ThreadPool pool;  // default-sized pool constructs and joins cleanly
  EXPECT_GE(pool.num_workers(), 1);
}

}  // namespace
}  // namespace xptc
