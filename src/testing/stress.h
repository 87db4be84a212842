#ifndef XPTC_TESTING_STRESS_H_
#define XPTC_TESTING_STRESS_H_

#include <cstdint>
#include <string>

namespace xptc {
namespace testing {

/// Configuration of the multi-threaded differential stress run. Defaults
/// are sized for a CI TSan job (a few seconds under instrumentation).
struct StressOptions {
  uint64_t seed = 1;

  /// Client threads hammering the throughput layer concurrently with each
  /// other and with whole BatchEngine::Run sweeps issued from the driver.
  int num_threads = 4;

  /// Shared workload: `num_trees` documents × `num_queries` query texts.
  int num_trees = 5;
  int num_queries = 16;
  int max_tree_nodes = 40;

  /// Random (tree, query) evaluations per client thread.
  int iterations_per_thread = 120;

  /// Whole-matrix BatchEngine::Run sweeps issued while clients run.
  int batch_sweeps = 3;

  /// Deliberately tiny plan cache so hit/evict/re-parse races are constant.
  int plan_cache_capacity = 4;
};

struct StressReport {
  int64_t evaluations = 0;  // individual result comparisons performed
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_evictions = 0;
  int mismatches = 0;
  std::string first_mismatch;  // description of the first divergence

  // obs::Histogram merge-under-concurrency check: every evaluation
  // Observes its result count into a per-thread histogram, threads Merge
  // into one shared histogram while others still observe, and the run
  // verifies the merged totals (count == evaluations, bucket sum ==
  // count). Exercised under TSan by the fuzz_stress_tsan ctest entry.
  int64_t histogram_count = 0;
  bool histogram_ok = false;

  bool ok() const { return mismatches == 0 && histogram_ok; }
};

/// Differential concurrency stress of the throughput layer: one shared
/// workload is evaluated (a) sequentially up front (the expected answers)
/// and (b) concurrently from `num_threads` client threads — each drawing
/// random (tree, query) pairs through a deliberately small shared
/// `PlanCache` and per-thread `ExecEngine`s attached to the batch engine's
/// shared `TreeCache`s — while whole `BatchEngine::Run` sweeps execute on
/// the same caches. Every concurrent answer is compared bit-for-bit to the
/// sequential one.
///
/// All query texts are parsed once, sequentially, before any thread
/// starts: `Alphabet::Intern` is not thread-safe, but once every label is
/// interned the concurrent re-parses only perform lookups.
///
/// The races this targets (under TSan): PlanCache LRU eviction,
/// TreeCache shard insertion (`W` memo + label sets), BatchEngine engine
/// row growth, and ThreadPool work stealing.
StressReport RunConcurrencyStress(const StressOptions& options = {});

}  // namespace testing
}  // namespace xptc

#endif  // XPTC_TESTING_STRESS_H_
