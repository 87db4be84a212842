#ifndef XPTC_OBS_RECORDER_H_
#define XPTC_OBS_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace xptc {
namespace obs {

/// The serving-path flight recorder (see DESIGN.md §16): request ids
/// minted at admission and carried on both wire protocols, per-request
/// phase attribution stitched across the reactor thread, the worker
/// thread, and the batch pool's fan-out, deterministic 1-in-N sampling
/// that is cheap enough to leave on in production, a bounded slow-query
/// log (/debug/slow, /debug/trace/<id>), and always-on
/// `server.phase.*_ns` histograms so tail attribution is answerable from
/// /metrics alone.

/// 16-digit lowercase hex, the wire spelling of a flight id.
std::string FormatFlightId(uint64_t id);
/// Strict inverse: 1–16 hex digits, nothing else. False on anything else.
bool ParseFlightId(const std::string& text, uint64_t* out);
/// Wire-tolerant id derivation: a strict hex id parses verbatim; any
/// other non-empty value hashes to a stable nonzero id (so arbitrary
/// client X-Request-Id strings still correlate); empty returns 0.
uint64_t DeriveFlightId(const std::string& text);

/// One-line JSON object for a trace (the /debug and structured-log form).
std::string RequestTraceJson(const RequestTrace& trace);
/// Indented text rendering (the EXPLAIN request-trace section).
std::string RequestTraceText(const RequestTrace& trace);

class FlightRecorder {
 public:
  static FlightRecorder& Get();

  /// A fresh nonzero flight id (splitmix64 over a process counter).
  uint64_t MintId();

  /// Deterministic 1-in-N sampling by id hash: stable for a given id, so
  /// retries and cross-service hops sample together. n == 0 disables.
  bool Sampled(uint64_t id) const;
  void SetSampleEveryN(uint32_t n) {
    sample_n_.store(n, std::memory_order_relaxed);
  }
  uint32_t sample_every_n() const {
    return sample_n_.load(std::memory_order_relaxed);
  }

  /// Always-on phase attribution (`server.phase.*_ns` histograms), paid
  /// by every request whether or not it is sampled.
  void ObservePhase(Phase phase, int64_t ns);

  /// Finalises a completed trace: sampled traces enter the slow log
  /// (top-K by total_ns) and the recent ring (/debug/trace lookups); the
  /// completion log, when installed, sees every trace.
  void Record(RequestTrace trace);

  /// The /debug/slow body: sampling config + top-K traces, slowest first.
  std::string SlowJson() const;
  /// /debug/trace/<id>: checks the slow log, then the recent ring.
  bool Lookup(uint64_t id, RequestTrace* out) const;

  /// Structured logging hook (`xptc_serve --log-format=json`, tests).
  /// While installed, the server builds a trace for *every* request, so
  /// the callback sees unsampled traffic too. Called on the reactor
  /// thread — keep it cheap or queue internally.
  void SetCompletionLog(std::function<void(const RequestTrace&)> log);
  bool completion_log_installed() const {
    return log_installed_.load(std::memory_order_acquire);
  }

  /// Drops the slow log and the recent ring (tests and benches).
  void Reset();

  static constexpr size_t kSlowLogSize = 64;
  static constexpr size_t kRecentSize = 256;

 private:
  FlightRecorder();

  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint32_t> sample_n_{0};
  std::atomic<bool> log_installed_{false};

  mutable std::mutex mu_;  // slow log + recent ring + completion log
  std::vector<RequestTrace> slow_;    // unsorted top-K; min evicted
  std::vector<RequestTrace> recent_;  // ring, kRecentSize slots
  size_t recent_next_ = 0;
  std::function<void(const RequestTrace&)> log_;
};

/// Per-pool-worker span buffers for one request's BatchEngine fan-out:
/// each worker appends to its own vector with no synchronisation (the
/// ParallelFor worker id is the index), and the caller merges after the
/// pool barrier. This is what lifts the one-thread limit of a trace's
/// span tree for the serving path.
class BatchTraceSink {
 public:
  BatchTraceSink(uint64_t request_id, int num_workers)
      : request_id_(request_id),
        per_worker_(static_cast<size_t>(num_workers)) {}

  uint64_t request_id() const { return request_id_; }
  void Add(int worker, const WorkerSpan& span) {
    per_worker_[static_cast<size_t>(worker)].push_back(span);
  }
  /// Appends every worker's spans to `out` (call after the pool barrier).
  void MergeInto(std::vector<WorkerSpan>* out) const {
    for (const auto& row : per_worker_) {
      out->insert(out->end(), row.begin(), row.end());
    }
  }

 private:
  uint64_t request_id_;
  std::vector<std::vector<WorkerSpan>> per_worker_;
};

}  // namespace obs
}  // namespace xptc

#endif  // XPTC_OBS_RECORDER_H_
