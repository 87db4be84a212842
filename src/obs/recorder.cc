#include "obs/recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/json.h"
#include "obs/metrics.h"

namespace xptc {
namespace obs {

namespace {

// splitmix64 finaliser: the id mint and the sampling hash. Sampling must
// hash rather than use the raw id — minted ids are sequential under the
// mix, and client-supplied ids are arbitrary; the mix makes 1-in-N hold
// for both.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct PhaseMetrics {
  Histogram* h[kNumPhases];

  static PhaseMetrics& Get() {
    static PhaseMetrics* m = [] {
      Registry& reg = Registry::Default();
      auto* pm = new PhaseMetrics();
      pm->h[0] = &reg.histogram("server.phase.accept_ns");
      pm->h[1] = &reg.histogram("server.phase.parse_ns");
      pm->h[2] = &reg.histogram("server.phase.queue_ns");
      pm->h[3] = &reg.histogram("server.phase.exec_ns");
      pm->h[4] = &reg.histogram("server.phase.encode_ns");
      pm->h[5] = &reg.histogram("server.phase.flush_ns");
      return pm;
    }();
    return *m;
  }
};

}  // namespace

std::string FormatFlightId(uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

bool ParseFlightId(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t v = 0;
  for (char c : text) {
    int d;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      d = c - 'A' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  *out = v;
  return true;
}

uint64_t DeriveFlightId(const std::string& text) {
  if (text.empty()) return 0;
  uint64_t id = 0;
  if (ParseFlightId(text, &id) && id != 0) return id;
  // FNV-1a then mix: arbitrary client request-id strings get a stable
  // nonzero flight id so their requests still correlate end to end.
  uint64_t h = 1469598103934665603ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  id = Mix64(h);
  return id == 0 ? 1 : id;
}

std::string RequestTraceJson(const RequestTrace& trace) {
  std::string out = "{\"id\":\"" + FormatFlightId(trace.id) + "\"";
  if (trace.wire_request_id != 0) {
    out += ",\"request_id\":" + std::to_string(trace.wire_request_id);
  }
  out += ",\"op\":\"" + trace.op + "\"";
  out += ",\"proto\":\"";
  out += trace.is_http ? "http" : "binary";
  out += "\"";
  if (!trace.peer.empty()) {
    out += ",\"peer\":";
    AppendJsonString(&out, trace.peer);
  }
  if (!trace.query.empty()) {
    out += ",\"query\":";
    AppendJsonString(&out, trace.query);
  }
  out += ",\"code\":" + std::to_string(trace.code);
  out += ",\"sampled\":";
  out += trace.sampled ? "true" : "false";
  out += ",\"start_ns\":" + std::to_string(trace.start_ns);
  out += ",\"total_ns\":" + std::to_string(trace.total_ns);
  out += ",\"phases\":{";
  for (int p = 0; p < kNumPhases; ++p) {
    if (p > 0) out += ",";
    out += "\"";
    out += PhaseName(static_cast<Phase>(p));
    out += "_ns\":" + std::to_string(trace.phase_ns[p]);
  }
  out += "}";
  if (!trace.spans.empty()) {
    out += ",\"spans\":[";
    for (size_t i = 0; i < trace.spans.size(); ++i) {
      const WorkerSpan& s = trace.spans[i];
      if (i > 0) out += ",";
      out += "{\"worker\":" + std::to_string(s.worker) +
             ",\"tree\":" + std::to_string(s.tree_id) +
             ",\"query\":" + std::to_string(s.query_index) +
             ",\"start_ns\":" + std::to_string(s.start_ns) +
             ",\"elapsed_ns\":" + std::to_string(s.elapsed_ns) + "}";
    }
    out += "]";
  }
  if (!trace.root.empty()) {
    out += ",\"trace\":";
    NodeToJson(trace.root, /*with_times=*/true, /*indent=*/-1, &out);
  }
  if (trace.dropped_spans != 0) {
    out += ",\"dropped_spans\":" + std::to_string(trace.dropped_spans);
  }
  out += "}";
  return out;
}

std::string RequestTraceText(const RequestTrace& trace) {
  std::string out = "request " + FormatFlightId(trace.id) + "  op=" +
                    trace.op + "  proto=" +
                    (trace.is_http ? "http" : "binary");
  if (!trace.peer.empty()) out += "  peer=" + trace.peer;
  out += "  code=" + std::to_string(trace.code) + "\n";
  if (!trace.query.empty()) out += "  query: " + trace.query + "\n";
  out += "  total: " + std::to_string(trace.total_ns) + " ns\n";
  for (int p = 0; p < kNumPhases; ++p) {
    out += "    ";
    out += PhaseName(static_cast<Phase>(p));
    out += ": " + std::to_string(trace.phase_ns[p]) + " ns\n";
  }
  if (!trace.spans.empty()) {
    out += "  fan-out (" + std::to_string(trace.spans.size()) + " tasks):\n";
    for (const WorkerSpan& s : trace.spans) {
      out += "    worker " + std::to_string(s.worker) + "  tree " +
             std::to_string(s.tree_id) + "  query " +
             std::to_string(s.query_index) + "  " +
             std::to_string(s.elapsed_ns) + " ns\n";
    }
  }
  if (!trace.root.empty()) {
    out += "  trace:\n";
    NodeToText(trace.root, /*with_times=*/true, /*indent=*/4, &out);
  }
  if (trace.dropped_spans != 0) {
    out += "  dropped spans: " + std::to_string(trace.dropped_spans) + "\n";
  }
  return out;
}

FlightRecorder::FlightRecorder() {
  uint32_t n = 64;  // sample 1-in-64 by default: always-on, production-safe
  if (const char* env = std::getenv("XPTC_TRACE_SAMPLE")) {
    const long long v = std::atoll(env);
    if (v >= 0 && v <= 0x7fffffff) n = static_cast<uint32_t>(v);
  }
  sample_n_.store(n, std::memory_order_relaxed);
  slow_.reserve(kSlowLogSize);
  recent_.resize(kRecentSize);
}

FlightRecorder& FlightRecorder::Get() {
  static FlightRecorder* instance = new FlightRecorder();  // leaked singleton
  return *instance;
}

uint64_t FlightRecorder::MintId() {
  for (;;) {
    const uint64_t id =
        Mix64(next_id_.fetch_add(1, std::memory_order_relaxed));
    if (id != 0) return id;
  }
}

bool FlightRecorder::Sampled(uint64_t id) const {
  const uint32_t n = sample_n_.load(std::memory_order_relaxed);
  if (n == 0) return false;
  if (n == 1) return true;
  return Mix64(id) % n == 0;
}

void FlightRecorder::ObservePhase(Phase phase, int64_t ns) {
  PhaseMetrics::Get().h[static_cast<int>(phase)]->Observe(ns);
}

void FlightRecorder::Record(RequestTrace trace) {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_) log_(trace);
  if (!trace.sampled) return;
  recent_[recent_next_] = trace;
  recent_next_ = (recent_next_ + 1) % kRecentSize;
  if (slow_.size() < kSlowLogSize) {
    slow_.push_back(std::move(trace));
    return;
  }
  // Ring-evict the fastest resident entry when the newcomer is slower.
  size_t min_i = 0;
  for (size_t i = 1; i < slow_.size(); ++i) {
    if (slow_[i].total_ns < slow_[min_i].total_ns) min_i = i;
  }
  if (trace.total_ns > slow_[min_i].total_ns) {
    slow_[min_i] = std::move(trace);
  }
}

std::string FlightRecorder::SlowJson() const {
  std::vector<RequestTrace> top;
  uint32_t n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    top = slow_;
    n = sample_n_.load(std::memory_order_relaxed);
  }
  std::sort(top.begin(), top.end(),
            [](const RequestTrace& a, const RequestTrace& b) {
              return a.total_ns > b.total_ns;
            });
  std::string out = "{\"sample_every_n\":" + std::to_string(n) +
                    ",\"count\":" + std::to_string(top.size()) +
                    ",\"slow\":[";
  for (size_t i = 0; i < top.size(); ++i) {
    if (i > 0) out += ",";
    out += RequestTraceJson(top[i]);
  }
  out += "]}\n";
  return out;
}

bool FlightRecorder::Lookup(uint64_t id, RequestTrace* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RequestTrace& t : slow_) {
    if (t.id == id) {
      *out = t;
      return true;
    }
  }
  for (const RequestTrace& t : recent_) {
    if (t.id == id) {
      *out = t;
      return true;
    }
  }
  return false;
}

void FlightRecorder::SetCompletionLog(
    std::function<void(const RequestTrace&)> log) {
  std::lock_guard<std::mutex> lock(mu_);
  log_ = std::move(log);
  log_installed_.store(log_ != nullptr, std::memory_order_release);
}

void FlightRecorder::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  slow_.clear();
  recent_.assign(kRecentSize, RequestTrace{});
  recent_next_ = 0;
}

}  // namespace obs
}  // namespace xptc
