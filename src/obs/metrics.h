#ifndef XPTC_OBS_METRICS_H_
#define XPTC_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

// Compile-time observability gate. Counters, gauges, histograms, and the
// trace *structure* are always available — they are the product surface the
// EXPLAIN CLI and the bench JSON are built on, and they cost a handful of
// relaxed atomic adds on hot paths. What XPTC_OBS gates is everything that
// reads a clock: flame-scoped timings in the evaluator, compiled engine,
// batch layer, and oracle runs. OFF compiles those to nothing, so an
// XPTC_OBS=OFF build is bit-identical in behaviour and (by the exp12 gate)
// indistinguishable in speed from a build that predates the obs layer.
#ifndef XPTC_OBS
#define XPTC_OBS 1
#endif

namespace xptc {
namespace obs {

/// Monotonic counter, sharded across cache lines so concurrent increments
/// from the batch engine's workers do not bounce one hot line around the
/// socket. Reads (`value()`) sum the shards — O(kShards), intended for
/// export and assertions, not for hot paths.
class Counter {
 public:
  static constexpr int kShards = 16;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t delta) {
    cells_[ShardIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }

  int64_t value() const {
    int64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };

  /// Each thread picks one shard for life (round-robin at first touch);
  /// threads outnumbering shards share, which is still contention-free in
  /// the common pool-of-(cores-2) configuration.
  static int ShardIndex();

  Cell cells_[kShards];
};

/// Point-in-time value (queue depths, cache residency). Single atomic:
/// gauges are set from bookkeeping paths, not per-node hot loops.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log₂-bucketed histogram: bucket 0 holds values ≤ 0, bucket k ≥ 1 holds
/// [2^(k-1), 2^k). 64 buckets cover the whole int64 range, so an Observe is
/// one `bit_width` plus two relaxed atomic adds — cheap enough for
/// per-task and per-oracle-run timings. Thread-safe for concurrent
/// Observe/Merge/Snap (relaxed atomics: totals are exact once writers
/// quiesce, which is what the exporters and the stress harness need).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(int64_t v) {
    buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Adds `other`'s contents into this histogram (per-thread local
  /// histograms folding into a shared one at scope exit).
  void Merge(const Histogram& other);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t bucket(int k) const {
    return buckets_[k].load(std::memory_order_relaxed);
  }

  /// v ≤ 0 → 0; otherwise bit_width(v), so 1→1, 2..3→2, 4..7→3, …
  static int BucketFor(int64_t v) {
    if (v <= 0) return 0;
    return std::bit_width(static_cast<uint64_t>(v));
  }
  /// Inclusive lower bound of bucket k (k ≥ 1); bucket 0 has no lower bound.
  static int64_t BucketLowerBound(int k) {
    return k <= 1 ? (k == 0 ? 0 : 1) : (int64_t{1} << (k - 1));
  }
  /// Exclusive upper bound of bucket k.
  static int64_t BucketUpperBound(int k) {
    return k == 0 ? 1 : (k >= 63 ? INT64_MAX : (int64_t{1} << k));
  }

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// A consistent-enough copy of every metric: plain values, mergeable,
/// diffable. `Delta` against an earlier snapshot is how the EXPLAIN CLI
/// attributes registry movement to one query.
struct Snapshot {
  struct HistogramData {
    int64_t count = 0;
    int64_t sum = 0;
    // Sparse: only non-empty buckets, keyed by bucket index.
    std::map<int, int64_t> buckets;
  };

  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  /// Accumulates `v` into counter `name` (collector contributions).
  void AddCounter(const std::string& name, int64_t v) { counters[name] += v; }
  void SetGauge(const std::string& name, int64_t v) { gauges[name] = v; }
  void AddHistogram(const std::string& name, const Histogram& h);

  /// this − base, counters and histograms only (gauges are levels, not
  /// flows; a delta of levels is not meaningful). Names absent from `base`
  /// count as zero there. Zero-valued counter deltas are dropped.
  Snapshot Delta(const Snapshot& base) const;

  /// Deterministic JSON: keys sorted (std::map iteration order), no
  /// whitespace dependence on map sizes. Histogram buckets appear as
  /// {"<index>": count} for non-empty buckets.
  std::string ToJson() const;

  /// Prometheus text exposition: `.` in names becomes `_`, everything is
  /// prefixed `xptc_`. Histograms emit cumulative `_bucket{le="..."}`
  /// series plus `_sum`/`_count`.
  std::string ToPrometheusText() const;
};

/// Process-wide metric registry. Named metrics are created on first touch
/// and never destroyed (stable references — hot paths look a metric up
/// once and keep the pointer). Components that keep *per-instance* counters
/// (PlanCache, BatchEngine — their `stats()` accessors are API)
/// register a collector instead: a callback that folds the instance's
/// counters into each snapshot under registry-level names, summed across
/// instances.
class Registry {
 public:
  /// The process-wide default registry (leaked singleton: metrics must
  /// outlive any static-destruction-order games).
  static Registry& Default();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// First touch creates; the returned reference is stable forever.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// RAII registration of a per-instance collector. Destroying the handle
  /// unregisters it — but first runs the collector one final time and
  /// *retires* its counter and histogram contributions into the registry,
  /// so process-lifetime totals stay monotonic after the instance dies
  /// (short-lived BatchEngines in the fuzzer, per-section PlanCaches in
  /// the benches). Gauges are levels owned by the live instance and drop
  /// on retirement. The handle must not outlive the registry (always true
  /// for Default()).
  class CollectorHandle {
   public:
    CollectorHandle() = default;
    CollectorHandle(CollectorHandle&& other) noexcept;
    CollectorHandle& operator=(CollectorHandle&& other) noexcept;
    ~CollectorHandle();

   private:
    friend class Registry;
    Registry* registry_ = nullptr;
    uint64_t id_ = 0;
  };
  using Collector = std::function<void(Snapshot*)>;
  CollectorHandle AddCollector(Collector fn);

  /// Snapshot of every named metric plus every collector's contribution.
  Snapshot Collect() const;

  std::string Json() const { return Collect().ToJson(); }
  std::string PrometheusText() const { return Collect().ToPrometheusText(); }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  uint64_t next_collector_id_ = 1;
  std::map<uint64_t, Collector> collectors_;
  /// Final contributions of unregistered collectors (counters and
  /// histograms only), merged into every snapshot.
  Snapshot retired_;
};

}  // namespace obs
}  // namespace xptc

#endif  // XPTC_OBS_METRICS_H_
