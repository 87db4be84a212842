#ifndef XPTC_OBS_TRACE_H_
#define XPTC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace xptc {
namespace obs {

/// The trace model (DESIGN.md §11.2, §16.2): one `RequestTrace` per traced
/// request, holding the server's phase attribution, the batch fan-out's
/// worker spans, and a tree of engine spans (`TraceNode`) that the engine's
/// instrumentation sites fill in while a `RequestScope` names the trace on
/// the evaluating thread. EXPLAIN, the flight recorder's /debug surfaces and
/// the structured log all render that one tree.

/// One node of a request's span tree: a named span with ordered integer
/// attributes (star rounds, bit-ops, node touches, …), free-form notes
/// (dispatch decisions, cache provenance), and child spans. Built
/// single-threaded on the evaluating thread; read after the scope closes.
/// Children are held by value so a whole trace copies like plain data (the
/// recorder copies traces into and out of its retained slots).
struct TraceNode {
  std::string name;
  int64_t elapsed_ns = 0;  // 0 unless XPTC_OBS timed the span
  std::vector<std::pair<std::string, int64_t>> attrs;
  std::vector<std::string> notes;
  std::vector<TraceNode> children;

  TraceNode() = default;
  explicit TraceNode(std::string span_name) : name(std::move(span_name)) {}

  /// Accumulates into an existing attr of this key, or appends one.
  void AddAttr(const std::string& key, int64_t delta);
  void SetAttr(const std::string& key, int64_t v);
  const int64_t* FindAttr(const std::string& key) const;
  bool empty() const {
    return attrs.empty() && notes.empty() && children.empty();
  }
};

/// JSON rendering of a span tree. `with_times` includes the nonzero
/// elapsed_ns fields (EXPLAIN excludes them by default so golden outputs
/// are deterministic; the root is not a timed span).
/// `indent >= 0` puts each child on its own line (the EXPLAIN form);
/// `indent < 0` renders one line (the /debug and structured-log form).
void NodeToJson(const TraceNode& node, bool with_times, int indent,
                std::string* out);
/// Indented human-readable rendering, one line per span plus its notes.
void NodeToText(const TraceNode& node, bool with_times, int indent,
                std::string* out);

/// The serving phases of one request, in wire order. `kQueue` is
/// admission→worker-pop; `kExec` is QueryService::Handle; `kFlush` is
/// response-bytes-queued→last-byte-written-to-the-socket.
enum class Phase : int {
  kAccept = 0,  // bytes readable → parse start
  kParse = 1,   // parse + translate of the complete message
  kQueue = 2,   // admission push → worker pop (includes frozen workers)
  kExec = 3,    // QueryService::Handle
  kEncode = 4,  // response rendering (HTTP or frame)
  kFlush = 5,   // response queued on the connection → flushed to the socket
};
inline constexpr int kNumPhases = 6;
const char* PhaseName(Phase phase);

/// One batch-pool task's contribution to a request: which (tree, query)
/// cell ran, on which pool worker, when, for how long. The merged span
/// list of a request accounts for every cell of its fan-out exactly once.
struct WorkerSpan {
  int worker = 0;       // batch-pool worker id (or server worker id)
  int tree_id = 0;
  int query_index = 0;
  int64_t start_ns = 0;    // obs::NowNs clock
  int64_t elapsed_ns = 0;
};

/// Span nodes a trace keeps below its root. A sampled request's tree lives
/// in the recorder's retained slots, and a plan with many `W` bodies opens
/// one span per computed body, so the tree is capped: each span opened past
/// the cap counts once in `dropped_spans`, and everything recorded inside it
/// (nested spans included) is discarded.
inline constexpr int kMaxTraceSpans = 64;

/// Everything recorded about one request. Built by the server for sampled
/// requests (and for all requests while a completion log is installed),
/// finalised when the last response byte reaches the socket; EXPLAIN
/// builds one for its single traced evaluation.
struct RequestTrace {
  uint64_t id = 0;              // flight id (minted or client-supplied)
  uint32_t wire_request_id = 0; // binary-protocol correlation id
  bool sampled = false;         // only a sampled trace records spans
  bool is_http = false;
  std::string op;     // "query", "batch", "explain"
  std::string peer;   // "ip:port" of the client socket
  std::string query;  // first query text, truncated for bounded memory
  uint8_t code = 0;   // RespCode of the response
  int64_t start_ns = 0;  // first byte seen (obs::NowNs clock)
  int64_t total_ns = 0;  // start → last response byte flushed
  int64_t phase_ns[kNumPhases] = {0, 0, 0, 0, 0, 0};
  std::vector<WorkerSpan> spans;  // batch fan-out (empty on fast paths)
  TraceNode root{"query"};        // engine spans, counts and notes
  int span_nodes = 0;             // nodes below root
  int dropped_spans = 0;          // spans refused by the cap
};

/// The one per-thread request context: activates `trace` (may be nullptr)
/// and `flight_id` on this thread for the scope's lifetime. While a
/// *sampled* trace is active, `TraceSpan`s append to its tree and
/// `TraceAddCount`/`TraceNote` annotate the innermost open span; an
/// unsampled trace (built only for the completion log) keeps its phases and
/// worker spans but no span tree, so logging every request does not make
/// every request pay for one. `Journal::Record` stamps `flight_id` into
/// records that carry no explicit id. Re-entrant: the previous context is
/// restored on destruction. Tracing off costs one TLS load + branch.
class RequestScope {
 public:
  RequestScope(uint64_t flight_id, RequestTrace* trace);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t saved_id_;
  RequestTrace* saved_trace_;
  TraceNode* saved_node_;
};

/// This thread's flight id (0 outside any scope). Reads one thread-local
/// word, so the journal's crash handler may call it.
uint64_t CurrentFlightId();
/// This thread's active trace; nullptr when the request is not traced.
RequestTrace* CurrentRequestTrace();
/// The innermost open span of the active sampled trace; nullptr when
/// tracing is off or inside a span dropped by the cap.
TraceNode* CurrentTraceNode();

/// RAII span: when a trace is active on this thread, appends a child node
/// under the current one and makes it current; otherwise records nothing.
/// Under XPTC_OBS the span is timed, and if a flame histogram is supplied
/// the elapsed nanoseconds are Observed into it on destruction *even when
/// no trace is active* — that is the flame-scoped timing path (evaluator,
/// compiled engine, batch tasks, every oracle).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Histogram* flame = nullptr);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// No-ops when this span is not recording (no active trace).
  void Attr(const char* key, int64_t v);
  void AddAttr(const char* key, int64_t delta);
  void Note(std::string_view note);
  bool recording() const { return node_ != nullptr; }

 private:
  TraceNode* node_ = nullptr;   // the span's node, nullptr if not recording
  TraceNode* saved_ = nullptr;  // parent to restore; nullptr: not traced
  Histogram* flame_ = nullptr;
#if XPTC_OBS
  int64_t start_ns_ = 0;
#endif
};

/// Accumulates `delta` into attribute `key` of the *current* trace node
/// (one TLS load + branch when tracing is off). For instrumentation sites
/// that are too hot or too far from the span object to hold a TraceSpan —
/// per-axis-kernel node touches, per-instruction execution counts.
void TraceAddCount(const char* key, int64_t delta);
/// Appends a note to the current trace node, if any. With no sampled
/// trace active this is one TLS load + branch and builds nothing; a caller
/// that assembles its note (concatenation, formatting) should check
/// `CurrentTraceNode()` first.
void TraceNote(std::string_view note);

/// Monotonic clock in nanoseconds. Always available (the bench harness
/// uses it); XPTC_OBS only controls whether *span* destructors read it.
int64_t NowNs();

}  // namespace obs
}  // namespace xptc

#endif  // XPTC_OBS_TRACE_H_
