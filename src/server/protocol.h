#ifndef XPTC_SERVER_PROTOCOL_H_
#define XPTC_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/result.h"

// Wire formats of the query server (src/server/server.h): HTTP/1.1 and a
// compact length-prefixed binary protocol. Everything in this header is a
// pure function over byte buffers — no sockets, no global state — so the
// complete request-parsing surface is fuzzable in-process
// (`xptc_fuzz --wire`) and unit-testable without a running server.
//
// Incremental parsing contract (both protocols): parsers take the unread
// prefix of a connection's input buffer and return
//   kOk       — one complete message parsed; `*consumed` bytes were used
//               and the caller erases them before the next call,
//   kNeedMore — the buffer holds a valid proper prefix; read more bytes,
//   kError    — the buffer can never become a valid message; the caller
//               responds with a parse error and (for the binary protocol,
//               where framing is lost) closes the connection.
// Parsers never read past `len` and never allocate proportionally to
// anything but the (limit-checked) declared message size — the server's
// never-OOM guarantee starts here.

namespace xptc {
namespace server {

// ---------------------------------------------------------------------------
// Transport-independent request/response model.
// ---------------------------------------------------------------------------

enum class RequestOp : uint8_t {
  kQuery,    // one query × tree-set → node-set bitsets / booleans / counts
  kBatch,    // N queries × tree-set through BatchEngine::RunCompiledOnTrees
  kMetrics,  // obs::Registry Prometheus export (HTTP only)
  kExplain,  // obs::ExplainQuery dump (HTTP only)
  kHealth,   // liveness + drain state (HTTP only; served inline)
  kIndex,    // endpoint listing (HTTP only; served inline)
  kPing,     // binary liveness frame (served inline)
  // Flight-recorder debug surface (HTTP only; served inline so they stay
  // responsive exactly when the serving path is in trouble):
  kDebugSlow,     // /debug/slow — sampled slow-query log (top-K)
  kDebugTrace,    // /debug/trace/<id> — one RequestTrace by flight id
  kDebugJournal,  // /debug/journal — event-journal dump as JSON
};

/// What to return per (query, tree) pair. kNodeSet is the full bitset;
/// kBoolean is the emptiness test (does any node satisfy the query);
/// kCount is the popcount.
enum class EvalMode : uint8_t { kNodeSet = 0, kBoolean = 1, kCount = 2 };

/// Query-dialect tag, carried by every request from day one so additional
/// front-end dialects (Hellings et al.'s downward relational calculi, a
/// μ-style fixpoint dialect — ROADMAP item 5) can share the service
/// boundary without a protocol revision. Only kXPath is implemented;
/// anything else is rejected with kUnsupportedDialect.
inline constexpr uint8_t kDialectXPath = 0;

/// Response outcome. The admission-control state machine resolves every
/// request to exactly one of these.
enum class RespCode : uint8_t {
  kOk = 0,
  kBadRequest = 1,          // malformed parameters or query parse error
  kUnknownTree = 2,         // tree id outside the corpus
  kUnsupportedDialect = 3,  // dialect tag not implemented
  kOverloaded = 4,          // admission queue full — request shed
  kDeadlineExceeded = 5,    // deadline passed in queue or during execution
  kDraining = 6,            // server is draining; no new work admitted
  kInternal = 7,            // library invariant violation (bug)
  kNotFound = 8,            // unknown HTTP endpoint
};

/// HTTP status line code for a response outcome (200/400/404/…/429/504).
int HttpStatusFor(RespCode code);
/// Stable lowercase name ("ok", "overloaded", …) used in JSON bodies.
const char* RespCodeName(RespCode code);

struct ServiceRequest {
  RequestOp op = RequestOp::kQuery;
  uint32_t request_id = 0;  // binary-protocol correlation id; 0 over HTTP
  /// Flight id for the request's RequestTrace (obs/recorder.h). Carried by
  /// an optional `X-Request-Id` header over HTTP and the flags-gated trace
  /// field of binary request payloads; 0 = none supplied, the admission
  /// layer mints one. Also the lookup key of kDebugTrace.
  uint64_t trace_id = 0;
  uint8_t dialect = kDialectXPath;
  EvalMode mode = EvalMode::kNodeSet;
  uint32_t deadline_ms = 0;         // 0 = server default
  std::vector<int> tree_ids;        // empty = the whole corpus
  std::vector<std::string> queries; // one for kQuery/kExplain, N for kBatch

  // kExplain knobs (HTTP query parameters; defaults mirror ExplainOptions).
  bool explain_json = false;
  int explain_nodes = 64;
  std::string explain_shape = "uniform";
  uint64_t explain_seed = 1;
};

struct TreeResult {
  int tree_id = 0;
  Bitset bits;        // kNodeSet
  bool boolean = false;  // kBoolean
  int64_t count = 0;     // kCount (and the node count for kNodeSet)
};

struct ServiceResponse {
  RespCode code = RespCode::kOk;
  RequestOp op = RequestOp::kQuery;
  EvalMode mode = EvalMode::kNodeSet;
  uint32_t request_id = 0;
  /// Flight id echoed back to the client: the `X-Request-Id` response
  /// header over HTTP, the flags-gated trace field on result/error frames.
  /// 0 = not echoed (e.g. a parse error before admission minted one).
  uint64_t trace_id = 0;
  int num_queries = 1;
  /// Row-major, query-major: entry [q * num_trees + t]. For kQuery,
  /// num_queries == 1 and this is just the per-tree row.
  std::vector<TreeResult> results;
  /// Error text, or the payload for kMetrics/kExplain/kHealth/kIndex.
  std::string payload;
  /// HTTP Content-Type of `payload` responses ("" = application/json).
  std::string content_type;
};

// ---------------------------------------------------------------------------
// HTTP/1.1.
// ---------------------------------------------------------------------------

enum class ParseStatus { kOk, kNeedMore, kError };

struct HttpLimits {
  size_t max_head_bytes = 16 << 10;  // request line + headers
  size_t max_body_bytes = 1 << 20;
};

struct HttpRequest {
  std::string method;
  std::string target;   // as sent: path[?query]
  int minor_version = 1;
  std::vector<std::pair<std::string, std::string>> headers;  // names lowered
  std::string body;
  bool keep_alive = true;  // HTTP/1.1 default on; Connection header applied
};

/// Incremental HTTP/1.1 request parser (see the contract above). Supported:
/// request line, headers, Content-Length bodies. Not supported (kError):
/// chunked transfer encoding, HTTP/2 preface, obs-folded headers.
ParseStatus ParseHttpRequest(const char* data, size_t len,
                             const HttpLimits& limits, HttpRequest* out,
                             size_t* consumed, std::string* error);

/// Serialises one HTTP/1.1 response (status line, Content-Length,
/// Connection header, body). `extra_headers` is inserted verbatim before
/// the blank line; each entry must be a complete "Name: value\r\n" line.
std::string BuildHttpResponse(int status, const std::string& content_type,
                              const std::string& body, bool keep_alive,
                              const std::string& extra_headers = "");

/// Maps a parsed HTTP request onto the service model. Errors are client
/// errors (unknown endpoint, bad parameters) — the transport framing is
/// intact and the connection stays usable.
Result<ServiceRequest> TranslateHttp(const HttpRequest& req);

/// Renders `resp` as a full HTTP response (JSON body for query/batch and
/// errors; raw payload for metrics/explain/health).
std::string RenderHttpResponse(const ServiceResponse& resp, bool keep_alive);

/// Percent-decodes `text` ('+' becomes space). Invalid escapes are copied
/// through verbatim.
std::string UrlDecode(const std::string& text);

// ---------------------------------------------------------------------------
// Binary protocol.
// ---------------------------------------------------------------------------
//
// Frame layout (all integers little-endian):
//
//   u8  magic   = 0xB7  (also the protocol auto-detection byte: no HTTP
//                        method starts with it)
//   u8  type            (FrameType)
//   u16 reserved = 0
//   u32 payload_len
//   u8  payload[payload_len]
//
// Payloads:
//   kQuery:  u32 request_id, u8 dialect, u8 mode, u16 flags,
//            u32 deadline_ms, [u64 trace_id iff flags & 1],
//            u32 num_trees, u32 tree_id × num_trees
//            (num_trees == 0 ⇒ whole corpus), u32 query_len, query bytes.
//   kBatch:  u32 request_id, u8 dialect, u8 mode, u16 flags,
//            u32 deadline_ms, [u64 trace_id iff flags & 1],
//            u32 num_trees, u32 tree_id × num_trees,
//            u32 num_queries, (u32 len, bytes) × num_queries.
//   kPing:   u32 request_id.
//   kResult: u32 request_id, u8 mode, u8 flags, u16 reserved,
//            [u64 trace_id iff flags & 1], u32 num_results,
//            then per result: u32 tree_id, then by mode —
//              kNodeSet: u32 num_bits, u32 num_words, u64 × num_words
//                        (the Bitset's live words, bit-exact),
//              kBoolean: u8,
//              kCount:   u64.
//   kBatchResult: u32 request_id, u8 mode, u8 flags, u16 reserved,
//            [u64 trace_id iff flags & 1],
//            u32 num_queries, u32 results_per_query, then
//            num_queries × results_per_query results as in kResult
//            (query-major).
//   kError:  u32 request_id, u16 code (RespCode), u16 flags,
//            [u64 trace_id iff flags & 1], u32 msg_len, msg bytes.
//   kPong:   u32 request_id.
//
// The former `reserved` u16 of request payloads (and the pad byte / u16 of
// responses) became `flags`; bit 0 gates the flight-recorder trace id and
// every other bit must be zero (rejected, so the space stays reserved).
// Old encoders wrote zeros there, so pre-flags frames decode unchanged.

inline constexpr uint8_t kFrameMagic = 0xB7;
inline constexpr size_t kFrameHeaderBytes = 8;

enum class FrameType : uint8_t {
  kQuery = 1,
  kResult = 2,
  kError = 3,
  kPing = 4,
  kPong = 5,
  kBatch = 6,
  kBatchResult = 7,
};

struct Frame {
  FrameType type = FrameType::kQuery;
  std::string payload;
};

/// Incremental frame decoder (see the contract above). `max_payload` bounds
/// the declared payload length *before* any allocation happens.
ParseStatus DecodeFrame(const char* data, size_t len, size_t max_payload,
                        Frame* out, size_t* consumed, std::string* error);

/// Serialises a frame (header + payload).
std::string EncodeFrame(FrameType type, const std::string& payload);

/// Maps a decoded request frame (kQuery/kBatch/kPing) onto the service
/// model. A malformed payload is an error; framing is still intact, so the
/// caller answers with an error frame and keeps the connection.
Result<ServiceRequest> TranslateFrame(const Frame& frame);

/// Encodes `resp` as the matching response frame (kResult, kBatchResult,
/// kPong, or kError for non-OK codes).
std::string EncodeResponseFrame(const ServiceResponse& resp);

/// Client-side inverse of EncodeResponseFrame — used by the blocking
/// client, the wire-replay tests, and the load generator. Errors on
/// malformed payloads.
Result<ServiceResponse> DecodeResponseFrame(const Frame& frame);

/// Encoders for the request payloads (client side; also the seed corpus of
/// the wire fuzzer's mutators).
std::string EncodeQueryPayload(uint32_t request_id, uint8_t dialect,
                               EvalMode mode, uint32_t deadline_ms,
                               const std::vector<int>& tree_ids,
                               const std::string& query,
                               uint64_t trace_id = 0);
std::string EncodeBatchPayload(uint32_t request_id, uint8_t dialect,
                               EvalMode mode, uint32_t deadline_ms,
                               const std::vector<int>& tree_ids,
                               const std::vector<std::string>& queries,
                               uint64_t trace_id = 0);
std::string EncodePingPayload(uint32_t request_id);

}  // namespace server
}  // namespace xptc

#endif  // XPTC_SERVER_PROTOCOL_H_
