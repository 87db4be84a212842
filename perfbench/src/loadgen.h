#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "workload.h"

namespace perfbench {

/// What the load generator observed over one measurement window.
struct Window {
  int64_t attempted = 0;  // requests sent
  int64_t ok = 0;         // responses OK and equal to the reference
  int64_t completed = 0;  // responses received inside the window
  LatencyHistogram latency;
  /// (trace id, wire latency) per response, when ids are recorded.
  std::vector<std::pair<uint64_t, int64_t>> traced;
  double wall_s = 0;
  double gen_cpu_s = 0;  // generator thread CPU time
  double steal_ms = 0;   // host steal over the benchmark's CPUs

  double qps() const { return wall_s > 0 ? completed / wall_s : 0; }
  void Merge(const Window& other);
};

/// The single-threaded load generator: `conns` sockets to the server,
/// multiplexed with epoll, each with at most one request outstanding (a
/// closed loop). Every response is decoded and checked against the
/// workload's references; the first few mismatches are dumped as
/// replayable case files under `.bench_build/cases/`.
class LoadGen {
 public:
  /// `steal_cpus` are the CPUs whose steal time each window records.
  LoadGen(const Workload* w, uint16_t port, int conns,
          std::vector<int> steal_cpus);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Sends each of `cells` once over `active` connections.
  Window RunList(const std::vector<int>& cells, int active);

  /// Runs the request stream on `active` connections in back-to-back
  /// windows of `window_s` seconds — requests keep flowing across window
  /// boundaries — until `more(windows so far)` turns false, then waits
  /// for the outstanding responses. Those count in the last window's
  /// `attempted`/`ok`/latencies but not in its `completed`.
  std::vector<Window> RunStream(
      int active, double window_s, bool record_ids,
      const std::function<bool(const std::vector<Window>&)>& more);

 private:
  struct Conn;

  std::vector<Window> Run(
      int active, double window_s, const std::vector<int>* list,
      bool record_ids,
      const std::function<bool(const std::vector<Window>&)>& more);
  int NextCell(const std::vector<int>* list, size_t* list_pos);
  void Send(Conn* c, int cell);
  void OnResponse(Conn* c, const xptc::server::Frame& frame, int64_t now_ns,
                  Window* window, bool record_ids);

  const Workload* w_;
  std::vector<int> steal_cpus_;
  int epoll_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  size_t cursor_ = 0;     // next stream position
  uint64_t next_id_ = 1;  // request ids and trace ids, never 0
  int dumps_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
