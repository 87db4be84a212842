#include "server/protocol.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/json.h"
#include "obs/recorder.h"

namespace xptc {
namespace server {

namespace {

// --- little-endian scalar plumbing -----------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}
void PutU32(std::string* out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v));
  PutU16(out, static_cast<uint16_t>(v >> 16));
}
void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

/// Bounds-checked cursor over a payload; every Read* fails (returns false)
/// instead of reading past the end, so truncated payloads can never walk
/// off the buffer — the fuzzer's no-crash property rests on this type.
struct Reader {
  const char* data;
  size_t len;
  size_t pos = 0;

  size_t remaining() const { return len - pos; }
  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(data[pos++]);
    return true;
  }
  bool ReadU16(uint16_t* v) {
    uint8_t lo, hi;
    if (!ReadU8(&lo) || !ReadU8(&hi)) return false;
    *v = static_cast<uint16_t>(lo | (uint16_t{hi} << 8));
    return true;
  }
  bool ReadU32(uint32_t* v) {
    uint16_t lo, hi;
    if (!ReadU16(&lo) || !ReadU16(&hi)) return false;
    *v = lo | (uint32_t{hi} << 16);
    return true;
  }
  bool ReadU64(uint64_t* v) {
    uint32_t lo, hi;
    if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = lo | (uint64_t{hi} << 32);
    return true;
  }
  bool ReadBytes(size_t n, std::string* out) {
    if (remaining() < n) return false;
    out->assign(data + pos, n);
    pos += n;
    return true;
  }
};

// Declared sizes inside a payload are re-checked against the bytes that are
// actually present before any allocation, so a tiny frame claiming 2^32
// trees costs nothing.
bool PlausibleCount(const Reader& r, uint64_t count, size_t min_bytes_each) {
  return count <= r.remaining() / std::max<size_t>(min_bytes_each, 1);
}

const char* ModeName(EvalMode mode) {
  switch (mode) {
    case EvalMode::kNodeSet: return "nodeset";
    case EvalMode::kBoolean: return "boolean";
    case EvalMode::kCount: return "count";
  }
  return "unknown";
}

}  // namespace

int HttpStatusFor(RespCode code) {
  switch (code) {
    case RespCode::kOk: return 200;
    case RespCode::kBadRequest: return 400;
    case RespCode::kUnknownTree: return 404;
    case RespCode::kUnsupportedDialect: return 400;
    case RespCode::kOverloaded: return 429;
    case RespCode::kDeadlineExceeded: return 504;
    case RespCode::kDraining: return 503;
    case RespCode::kInternal: return 500;
    case RespCode::kNotFound: return 404;
  }
  return 500;
}

const char* RespCodeName(RespCode code) {
  switch (code) {
    case RespCode::kOk: return "ok";
    case RespCode::kBadRequest: return "bad_request";
    case RespCode::kUnknownTree: return "unknown_tree";
    case RespCode::kUnsupportedDialect: return "unsupported_dialect";
    case RespCode::kOverloaded: return "overloaded";
    case RespCode::kDeadlineExceeded: return "deadline_exceeded";
    case RespCode::kDraining: return "draining";
    case RespCode::kInternal: return "internal";
    case RespCode::kNotFound: return "not_found";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// HTTP/1.1
// ---------------------------------------------------------------------------

ParseStatus ParseHttpRequest(const char* data, size_t len,
                             const HttpLimits& limits, HttpRequest* out,
                             size_t* consumed, std::string* error) {
  // Find the end of the head. Bound the scan: if no terminator appears
  // within max_head_bytes, the head can never become valid.
  const char kHeadEnd[] = "\r\n\r\n";
  const size_t scan = std::min(len, limits.max_head_bytes);
  const char* head_end = static_cast<const char*>(
      memmem(data, scan, kHeadEnd, 4));
  if (head_end == nullptr) {
    if (len >= limits.max_head_bytes) {
      *error = "request head exceeds limit";
      return ParseStatus::kError;
    }
    return ParseStatus::kNeedMore;
  }
  const size_t head_len = static_cast<size_t>(head_end - data);

  // Request line: METHOD SP target SP HTTP/1.x
  const char* line_end = static_cast<const char*>(memchr(data, '\r', head_len));
  if (line_end == nullptr) line_end = data + head_len;
  std::string line(data, static_cast<size_t>(line_end - data));
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    *error = "malformed request line";
    return ParseStatus::kError;
  }
  out->method = line.substr(0, sp1);
  out->target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = line.substr(sp2 + 1);
  if (version == "HTTP/1.1") {
    out->minor_version = 1;
  } else if (version == "HTTP/1.0") {
    out->minor_version = 0;
  } else {
    *error = "unsupported HTTP version: " + version;
    return ParseStatus::kError;
  }
  if (out->method.empty() || out->target.empty() || out->target[0] != '/') {
    *error = "malformed request line";
    return ParseStatus::kError;
  }
  for (char c : out->method) {
    if (!std::isupper(static_cast<unsigned char>(c))) {
      *error = "malformed method";
      return ParseStatus::kError;
    }
  }

  // Headers.
  out->headers.clear();
  size_t content_length = 0;
  bool have_length = false;
  std::string connection;
  const char* p = line_end;
  const char* head_stop = data + head_len;
  while (p < head_stop) {
    if (p + 2 <= head_stop && p[0] == '\r' && p[1] == '\n') p += 2;
    const char* eol = static_cast<const char*>(
        memchr(p, '\r', static_cast<size_t>(head_stop - p)));
    if (eol == nullptr) eol = head_stop;
    if (eol == p) break;
    const char* colon = static_cast<const char*>(
        memchr(p, ':', static_cast<size_t>(eol - p)));
    if (colon == nullptr) {
      *error = "malformed header line";
      return ParseStatus::kError;
    }
    std::string name(p, static_cast<size_t>(colon - p));
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const char* v = colon + 1;
    while (v < eol && (*v == ' ' || *v == '\t')) ++v;
    const char* ve = eol;
    while (ve > v && (ve[-1] == ' ' || ve[-1] == '\t')) --ve;
    std::string value(v, static_cast<size_t>(ve - v));
    if (name.empty() || name.find(' ') != std::string::npos) {
      *error = "malformed header name";
      return ParseStatus::kError;
    }
    if (name == "content-length") {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        *error = "malformed Content-Length";
        return ParseStatus::kError;
      }
      content_length = static_cast<size_t>(n);
      have_length = true;
    } else if (name == "transfer-encoding") {
      *error = "chunked transfer encoding not supported";
      return ParseStatus::kError;
    } else if (name == "connection") {
      connection = value;
      std::transform(connection.begin(), connection.end(), connection.begin(),
                     [](unsigned char c) { return std::tolower(c); });
    }
    out->headers.emplace_back(std::move(name), std::move(value));
    p = eol;
  }

  if (have_length && content_length > limits.max_body_bytes) {
    *error = "request body exceeds limit";
    return ParseStatus::kError;
  }
  const size_t total = head_len + 4 + (have_length ? content_length : 0);
  if (len < total) return ParseStatus::kNeedMore;

  out->body.assign(data + head_len + 4, have_length ? content_length : 0);
  out->keep_alive = out->minor_version >= 1 ? connection != "close"
                                            : connection == "keep-alive";
  *consumed = total;
  return ParseStatus::kOk;
}

std::string BuildHttpResponse(int status, const std::string& content_type,
                              const std::string& body, bool keep_alive,
                              const std::string& extra_headers) {
  const char* reason = "OK";
  switch (status) {
    case 200: reason = "OK"; break;
    case 400: reason = "Bad Request"; break;
    case 404: reason = "Not Found"; break;
    case 429: reason = "Too Many Requests"; break;
    case 500: reason = "Internal Server Error"; break;
    case 503: reason = "Service Unavailable"; break;
    case 504: reason = "Gateway Timeout"; break;
    default: reason = ""; break;
  }
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: " +
                    (keep_alive ? "keep-alive" : "close") + "\r\n" +
                    extra_headers + "\r\n";
  out += body;
  return out;
}

std::string UrlDecode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '+') {
      out.push_back(' ');
    } else if (text[i] == '%' && i + 2 < text.size() &&
               std::isxdigit(static_cast<unsigned char>(text[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(text[i + 2]))) {
      const char hex[3] = {text[i + 1], text[i + 2], '\0'};
      out.push_back(static_cast<char>(std::strtol(hex, nullptr, 16)));
      i += 2;
    } else {
      out.push_back(text[i]);
    }
  }
  return out;
}

namespace {

using Params = std::vector<std::pair<std::string, std::string>>;

Params ParseQueryParams(const std::string& target, std::string* path) {
  const size_t q = target.find('?');
  *path = target.substr(0, q);
  Params params;
  if (q == std::string::npos) return params;
  size_t pos = q + 1;
  while (pos <= target.size()) {
    size_t amp = target.find('&', pos);
    if (amp == std::string::npos) amp = target.size();
    const std::string pair = target.substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      if (!pair.empty()) params.emplace_back(UrlDecode(pair), "");
    } else {
      params.emplace_back(UrlDecode(pair.substr(0, eq)),
                          UrlDecode(pair.substr(eq + 1)));
    }
    pos = amp + 1;
  }
  return params;
}

const std::string* FindParam(const Params& params, const std::string& name) {
  for (const auto& [k, v] : params) {
    if (k == name) return &v;
  }
  return nullptr;
}

Status ParseCommonParams(const Params& params, ServiceRequest* req) {
  if (const std::string* v = FindParam(params, "trees")) {
    size_t pos = 0;
    while (pos <= v->size() && !v->empty()) {
      size_t comma = v->find(',', pos);
      if (comma == std::string::npos) comma = v->size();
      const std::string item = v->substr(pos, comma - pos);
      char* end = nullptr;
      const long id = std::strtol(item.c_str(), &end, 10);
      if (item.empty() || end == item.c_str() || *end != '\0' || id < 0) {
        return Status::InvalidArgument("malformed trees parameter: " + *v);
      }
      req->tree_ids.push_back(static_cast<int>(id));
      pos = comma + 1;
    }
  }
  if (const std::string* v = FindParam(params, "mode")) {
    if (*v == "nodeset") {
      req->mode = EvalMode::kNodeSet;
    } else if (*v == "boolean") {
      req->mode = EvalMode::kBoolean;
    } else if (*v == "count") {
      req->mode = EvalMode::kCount;
    } else {
      return Status::InvalidArgument("unknown mode: " + *v);
    }
  }
  if (const std::string* v = FindParam(params, "deadline_ms")) {
    char* end = nullptr;
    const long long ms = std::strtoll(v->c_str(), &end, 10);
    if (end == v->c_str() || *end != '\0' || ms < 0 || ms > 0x7fffffff) {
      return Status::InvalidArgument("malformed deadline_ms: " + *v);
    }
    req->deadline_ms = static_cast<uint32_t>(ms);
  }
  if (const std::string* v = FindParam(params, "dialect")) {
    if (*v == "xpath" || *v == "0") {
      req->dialect = kDialectXPath;
    } else {
      // Carry the tag through; the service rejects it uniformly with
      // kUnsupportedDialect for both transports.
      req->dialect = 255;
    }
  }
  return Status::OK();
}

}  // namespace

Result<ServiceRequest> TranslateHttp(const HttpRequest& req) {
  std::string path;
  const Params params = ParseQueryParams(req.target, &path);
  ServiceRequest out;

  // Optional end-to-end trace header: a strict 16-hex-digit id is taken
  // verbatim; any other (bounded) value hashes to a stable flight id so
  // foreign request-id formats still correlate. Absent/oversized → the
  // admission layer mints one.
  for (const auto& [name, value] : req.headers) {
    if (name == "x-request-id" && value.size() <= 128) {
      out.trace_id = obs::DeriveFlightId(value);
      break;
    }
  }

  if (path == "/debug/slow") {
    out.op = RequestOp::kDebugSlow;
    return out;
  }
  if (path == "/debug/journal") {
    out.op = RequestOp::kDebugJournal;
    return out;
  }
  if (path.rfind("/debug/trace/", 0) == 0) {
    const std::string id_text = path.substr(std::strlen("/debug/trace/"));
    uint64_t id = 0;
    if (!obs::ParseFlightId(id_text, &id)) {
      return Status::InvalidArgument("/debug/trace/<id>: id must be hex");
    }
    out.op = RequestOp::kDebugTrace;
    out.trace_id = id;
    return out;
  }
  if (path == "/healthz") {
    out.op = RequestOp::kHealth;
    return out;
  }
  if (path == "/") {
    out.op = RequestOp::kIndex;
    return out;
  }
  if (path == "/metrics") {
    out.op = RequestOp::kMetrics;
    return out;
  }
  if (path == "/explain") {
    out.op = RequestOp::kExplain;
    XPTC_RETURN_NOT_OK(ParseCommonParams(params, &out));
    std::string query = req.body;
    if (const std::string* v = FindParam(params, "query")) query = *v;
    if (query.empty()) {
      return Status::InvalidArgument(
          "/explain needs a query (body or ?query=)");
    }
    out.queries.push_back(std::move(query));
    if (FindParam(params, "json") != nullptr) out.explain_json = true;
    if (const std::string* v = FindParam(params, "nodes")) {
      out.explain_nodes = std::atoi(v->c_str());
      if (out.explain_nodes <= 0) {
        return Status::InvalidArgument("malformed nodes parameter");
      }
    }
    if (const std::string* v = FindParam(params, "shape")) {
      out.explain_shape = *v;
    }
    if (const std::string* v = FindParam(params, "seed")) {
      out.explain_seed = std::strtoull(v->c_str(), nullptr, 10);
    }
    return out;
  }
  if (path == "/query" || path == "/batch") {
    if (req.method != "POST") {
      return Status::InvalidArgument(path + " requires POST");
    }
    out.op = path == "/query" ? RequestOp::kQuery : RequestOp::kBatch;
    XPTC_RETURN_NOT_OK(ParseCommonParams(params, &out));
    if (out.op == RequestOp::kQuery) {
      if (req.body.empty()) {
        return Status::InvalidArgument("/query needs the query as the body");
      }
      out.queries.push_back(req.body);
    } else {
      // One query per non-empty line.
      size_t pos = 0;
      while (pos < req.body.size()) {
        size_t nl = req.body.find('\n', pos);
        if (nl == std::string::npos) nl = req.body.size();
        std::string line = req.body.substr(pos, nl - pos);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (!line.empty()) out.queries.push_back(std::move(line));
        pos = nl + 1;
      }
      if (out.queries.empty()) {
        return Status::InvalidArgument(
            "/batch needs one query per body line");
      }
    }
    return out;
  }
  // OutOfRange distinguishes "no such endpoint" (HTTP 404) from malformed
  // parameters (400) for the caller; see ParseLoop in server.cc.
  return Status::OutOfRange("unknown endpoint: " + path);
}

namespace {

void AppendTreeResultJson(const TreeResult& r, EvalMode mode,
                          std::string* out) {
  *out += "{\"tree\":" + std::to_string(r.tree_id);
  switch (mode) {
    case EvalMode::kNodeSet: {
      *out += ",\"count\":" + std::to_string(r.count) + ",\"nodes\":[";
      bool first = true;
      r.bits.ForEachSetBit([&](int v) {
        if (!first) *out += ",";
        first = false;
        *out += std::to_string(v);
      });
      *out += "]";
      break;
    }
    case EvalMode::kBoolean:
      *out += ",\"value\":";
      *out += r.boolean ? "true" : "false";
      break;
    case EvalMode::kCount:
      *out += ",\"count\":" + std::to_string(r.count);
      break;
  }
  *out += "}";
}

}  // namespace

std::string RenderHttpResponse(const ServiceResponse& resp, bool keep_alive) {
  const int status = HttpStatusFor(resp.code);
  // Echo the flight id so clients can quote it at /debug/trace/<id>.
  const std::string extra =
      resp.trace_id != 0
          ? "X-Request-Id: " + obs::FormatFlightId(resp.trace_id) + "\r\n"
          : std::string();
  if (resp.code != RespCode::kOk) {
    const std::string body = "{\"error\":{\"code\":\"" +
                             std::string(RespCodeName(resp.code)) +
                             "\",\"message\":" + JsonString(resp.payload) +
                             "}}\n";
    return BuildHttpResponse(status, "application/json", body, keep_alive,
                             extra);
  }
  switch (resp.op) {
    case RequestOp::kMetrics:
    case RequestOp::kHealth:
    case RequestOp::kIndex:
    case RequestOp::kExplain:
    case RequestOp::kDebugSlow:
    case RequestOp::kDebugTrace:
    case RequestOp::kDebugJournal: {
      const std::string type =
          !resp.content_type.empty()
              ? resp.content_type
              : std::string("text/plain; charset=utf-8");
      return BuildHttpResponse(status, type, resp.payload, keep_alive,
                               extra);
    }
    case RequestOp::kQuery:
    case RequestOp::kBatch: {
      std::string body = "{\"code\":\"ok\",\"mode\":\"";
      body += ModeName(resp.mode);
      body += "\",\"queries\":[";
      const size_t per_query =
          resp.num_queries > 0 ? resp.results.size() /
                                     static_cast<size_t>(resp.num_queries)
                               : 0;
      for (int q = 0; q < resp.num_queries; ++q) {
        if (q > 0) body += ",";
        body += "{\"results\":[";
        for (size_t t = 0; t < per_query; ++t) {
          if (t > 0) body += ",";
          AppendTreeResultJson(
              resp.results[static_cast<size_t>(q) * per_query + t], resp.mode,
              &body);
        }
        body += "]}";
      }
      body += "]}\n";
      return BuildHttpResponse(status, "application/json", body, keep_alive,
                               extra);
    }
    case RequestOp::kPing:
      break;  // binary-only; unreachable over HTTP
  }
  return BuildHttpResponse(500, "application/json",
                           "{\"error\":{\"code\":\"internal\"}}\n",
                           keep_alive, extra);
}

// ---------------------------------------------------------------------------
// Binary protocol
// ---------------------------------------------------------------------------

ParseStatus DecodeFrame(const char* data, size_t len, size_t max_payload,
                        Frame* out, size_t* consumed, std::string* error) {
  if (len < 1) return ParseStatus::kNeedMore;
  if (static_cast<uint8_t>(data[0]) != kFrameMagic) {
    *error = "bad frame magic";
    return ParseStatus::kError;
  }
  if (len < kFrameHeaderBytes) return ParseStatus::kNeedMore;
  Reader r{data, len};
  uint8_t magic, type;
  uint16_t reserved;
  uint32_t payload_len;
  r.ReadU8(&magic);
  r.ReadU8(&type);
  r.ReadU16(&reserved);
  r.ReadU32(&payload_len);
  if (type < 1 || type > 7) {
    *error = "unknown frame type " + std::to_string(type);
    return ParseStatus::kError;
  }
  if (reserved != 0) {
    *error = "reserved frame bits set";
    return ParseStatus::kError;
  }
  if (payload_len > max_payload) {
    *error = "frame payload exceeds limit (" + std::to_string(payload_len) +
             " bytes)";
    return ParseStatus::kError;
  }
  if (len < kFrameHeaderBytes + payload_len) return ParseStatus::kNeedMore;
  out->type = static_cast<FrameType>(type);
  out->payload.assign(data + kFrameHeaderBytes, payload_len);
  *consumed = kFrameHeaderBytes + payload_len;
  return ParseStatus::kOk;
}

std::string EncodeFrame(FrameType type, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU8(&out, kFrameMagic);
  PutU8(&out, static_cast<uint8_t>(type));
  PutU16(&out, 0);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out += payload;
  return out;
}

namespace {

Status ReadRequestPrefix(Reader* r, ServiceRequest* out) {
  uint8_t dialect, mode;
  uint16_t flags;
  uint32_t deadline_ms, num_trees;
  if (!r->ReadU32(&out->request_id) || !r->ReadU8(&dialect) ||
      !r->ReadU8(&mode) || !r->ReadU16(&flags) ||
      !r->ReadU32(&deadline_ms)) {
    return Status::InvalidArgument("truncated request payload");
  }
  // Bit 0 of the former reserved word gates the flight-recorder trace id;
  // every other bit stays reserved-must-be-zero so it is still claimable.
  if ((flags & ~uint16_t{1}) != 0) {
    return Status::InvalidArgument("unknown request flag bits set");
  }
  if ((flags & 1) != 0 && !r->ReadU64(&out->trace_id)) {
    return Status::InvalidArgument("truncated trace id");
  }
  if (!r->ReadU32(&num_trees)) {
    return Status::InvalidArgument("truncated request payload");
  }
  if (mode > 2) {
    return Status::InvalidArgument("unknown eval mode " +
                                   std::to_string(mode));
  }
  out->dialect = dialect;
  out->mode = static_cast<EvalMode>(mode);
  out->deadline_ms = deadline_ms;
  if (!PlausibleCount(*r, num_trees, 4)) {
    return Status::InvalidArgument("tree list longer than payload");
  }
  out->tree_ids.reserve(num_trees);
  for (uint32_t i = 0; i < num_trees; ++i) {
    uint32_t id;
    if (!r->ReadU32(&id)) {
      return Status::InvalidArgument("truncated tree list");
    }
    if (id > 0x7fffffff) {
      return Status::InvalidArgument("tree id out of range");
    }
    out->tree_ids.push_back(static_cast<int>(id));
  }
  return Status::OK();
}

Status ReadLengthPrefixedString(Reader* r, std::string* out) {
  uint32_t n;
  if (!r->ReadU32(&n)) return Status::InvalidArgument("truncated length");
  if (n > r->remaining()) {
    return Status::InvalidArgument("string longer than payload");
  }
  if (!r->ReadBytes(n, out)) {
    return Status::InvalidArgument("truncated string");
  }
  return Status::OK();
}

}  // namespace

Result<ServiceRequest> TranslateFrame(const Frame& frame) {
  Reader r{frame.payload.data(), frame.payload.size()};
  ServiceRequest out;
  switch (frame.type) {
    case FrameType::kPing: {
      out.op = RequestOp::kPing;
      if (!r.ReadU32(&out.request_id)) {
        return Status::InvalidArgument("truncated ping payload");
      }
      break;
    }
    case FrameType::kQuery: {
      out.op = RequestOp::kQuery;
      XPTC_RETURN_NOT_OK(ReadRequestPrefix(&r, &out));
      std::string query;
      XPTC_RETURN_NOT_OK(ReadLengthPrefixedString(&r, &query));
      if (query.empty()) {
        return Status::InvalidArgument("empty query");
      }
      out.queries.push_back(std::move(query));
      break;
    }
    case FrameType::kBatch: {
      out.op = RequestOp::kBatch;
      XPTC_RETURN_NOT_OK(ReadRequestPrefix(&r, &out));
      uint32_t num_queries;
      if (!r.ReadU32(&num_queries)) {
        return Status::InvalidArgument("truncated batch payload");
      }
      if (num_queries == 0) {
        return Status::InvalidArgument("empty batch");
      }
      if (!PlausibleCount(r, num_queries, 4)) {
        return Status::InvalidArgument("query list longer than payload");
      }
      out.queries.reserve(num_queries);
      for (uint32_t i = 0; i < num_queries; ++i) {
        std::string query;
        XPTC_RETURN_NOT_OK(ReadLengthPrefixedString(&r, &query));
        out.queries.push_back(std::move(query));
      }
      break;
    }
    default:
      return Status::InvalidArgument("frame type is not a request");
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after request payload");
  }
  return out;
}

namespace {

void AppendTreeResultWire(const TreeResult& r, EvalMode mode,
                          std::string* out) {
  PutU32(out, static_cast<uint32_t>(r.tree_id));
  switch (mode) {
    case EvalMode::kNodeSet: {
      PutU32(out, static_cast<uint32_t>(r.bits.size()));
      PutU32(out, static_cast<uint32_t>(r.bits.word_count()));
      for (size_t i = 0; i < r.bits.word_count(); ++i) {
        PutU64(out, r.bits.words()[i]);
      }
      break;
    }
    case EvalMode::kBoolean:
      PutU8(out, r.boolean ? 1 : 0);
      break;
    case EvalMode::kCount:
      PutU64(out, static_cast<uint64_t>(r.count));
      break;
  }
}

Status ReadTreeResultWire(Reader* r, EvalMode mode, TreeResult* out) {
  uint32_t tree_id;
  if (!r->ReadU32(&tree_id)) {
    return Status::InvalidArgument("truncated result");
  }
  out->tree_id = static_cast<int>(tree_id);
  switch (mode) {
    case EvalMode::kNodeSet: {
      uint32_t num_bits, num_words;
      if (!r->ReadU32(&num_bits) || !r->ReadU32(&num_words)) {
        return Status::InvalidArgument("truncated bitset header");
      }
      if (num_bits > 0x7fffffff || num_words != (num_bits + 63) / 64 ||
          !PlausibleCount(*r, num_words, 8)) {
        return Status::InvalidArgument("implausible bitset dimensions");
      }
      Bitset bits(static_cast<int>(num_bits));
      for (uint32_t i = 0; i < num_words; ++i) {
        uint64_t w;
        if (!r->ReadU64(&w)) {
          return Status::InvalidArgument("truncated bitset words");
        }
        bits.mutable_words()[i] = w;
      }
      out->bits = std::move(bits);
      out->count = out->bits.Count();
      break;
    }
    case EvalMode::kBoolean: {
      uint8_t b;
      if (!r->ReadU8(&b)) {
        return Status::InvalidArgument("truncated boolean result");
      }
      out->boolean = b != 0;
      break;
    }
    case EvalMode::kCount: {
      uint64_t c;
      if (!r->ReadU64(&c)) {
        return Status::InvalidArgument("truncated count result");
      }
      out->count = static_cast<int64_t>(c);
      break;
    }
  }
  return Status::OK();
}

}  // namespace

std::string EncodeResponseFrame(const ServiceResponse& resp) {
  std::string payload;
  // Result/batch-result/error frames echo the flight id behind flags
  // bit 0 (the former pad byte / reserved word); pong stays minimal.
  const uint64_t trace_id = resp.trace_id;
  if (resp.code != RespCode::kOk) {
    PutU32(&payload, resp.request_id);
    PutU16(&payload, static_cast<uint16_t>(resp.code));
    PutU16(&payload, trace_id != 0 ? 1 : 0);
    if (trace_id != 0) PutU64(&payload, trace_id);
    PutU32(&payload, static_cast<uint32_t>(resp.payload.size()));
    payload += resp.payload;
    return EncodeFrame(FrameType::kError, payload);
  }
  switch (resp.op) {
    case RequestOp::kPing:
      PutU32(&payload, resp.request_id);
      return EncodeFrame(FrameType::kPong, payload);
    case RequestOp::kQuery: {
      PutU32(&payload, resp.request_id);
      PutU8(&payload, static_cast<uint8_t>(resp.mode));
      PutU8(&payload, trace_id != 0 ? 1 : 0);
      PutU16(&payload, 0);
      if (trace_id != 0) PutU64(&payload, trace_id);
      PutU32(&payload, static_cast<uint32_t>(resp.results.size()));
      for (const TreeResult& r : resp.results) {
        AppendTreeResultWire(r, resp.mode, &payload);
      }
      return EncodeFrame(FrameType::kResult, payload);
    }
    case RequestOp::kBatch: {
      PutU32(&payload, resp.request_id);
      PutU8(&payload, static_cast<uint8_t>(resp.mode));
      PutU8(&payload, trace_id != 0 ? 1 : 0);
      PutU16(&payload, 0);
      if (trace_id != 0) PutU64(&payload, trace_id);
      const uint32_t per_query =
          resp.num_queries > 0
              ? static_cast<uint32_t>(resp.results.size() /
                                      static_cast<size_t>(resp.num_queries))
              : 0;
      PutU32(&payload, static_cast<uint32_t>(resp.num_queries));
      PutU32(&payload, per_query);
      for (const TreeResult& r : resp.results) {
        AppendTreeResultWire(r, resp.mode, &payload);
      }
      return EncodeFrame(FrameType::kBatchResult, payload);
    }
    default:
      break;
  }
  // Metrics/explain/health never travel over the binary protocol.
  PutU32(&payload, resp.request_id);
  PutU16(&payload, static_cast<uint16_t>(RespCode::kInternal));
  PutU16(&payload, 0);
  PutU32(&payload, 0);
  return EncodeFrame(FrameType::kError, payload);
}

Result<ServiceResponse> DecodeResponseFrame(const Frame& frame) {
  Reader r{frame.payload.data(), frame.payload.size()};
  ServiceResponse resp;
  switch (frame.type) {
    case FrameType::kPong: {
      resp.op = RequestOp::kPing;
      if (!r.ReadU32(&resp.request_id)) {
        return Status::InvalidArgument("truncated pong");
      }
      return resp;
    }
    case FrameType::kError: {
      uint16_t code, flags;
      if (!r.ReadU32(&resp.request_id) || !r.ReadU16(&code) ||
          !r.ReadU16(&flags)) {
        return Status::InvalidArgument("truncated error frame");
      }
      if (code > 8 || code == 0) {
        return Status::InvalidArgument("bad error code");
      }
      if ((flags & ~uint16_t{1}) != 0) {
        return Status::InvalidArgument("unknown error flag bits set");
      }
      if ((flags & 1) != 0 && !r.ReadU64(&resp.trace_id)) {
        return Status::InvalidArgument("truncated trace id");
      }
      resp.code = static_cast<RespCode>(code);
      XPTC_RETURN_NOT_OK(ReadLengthPrefixedString(&r, &resp.payload));
      return resp;
    }
    case FrameType::kResult:
    case FrameType::kBatchResult: {
      uint8_t mode, flags;
      uint16_t pad2;
      if (!r.ReadU32(&resp.request_id) || !r.ReadU8(&mode) ||
          !r.ReadU8(&flags) || !r.ReadU16(&pad2)) {
        return Status::InvalidArgument("truncated result frame");
      }
      if (mode > 2) return Status::InvalidArgument("bad result mode");
      if ((flags & ~uint8_t{1}) != 0 || pad2 != 0) {
        return Status::InvalidArgument("unknown result flag bits set");
      }
      if ((flags & 1) != 0 && !r.ReadU64(&resp.trace_id)) {
        return Status::InvalidArgument("truncated trace id");
      }
      resp.mode = static_cast<EvalMode>(mode);
      uint32_t num_results;
      if (frame.type == FrameType::kResult) {
        resp.op = RequestOp::kQuery;
        resp.num_queries = 1;
        if (!r.ReadU32(&num_results)) {
          return Status::InvalidArgument("truncated result count");
        }
      } else {
        resp.op = RequestOp::kBatch;
        uint32_t num_queries, per_query;
        if (!r.ReadU32(&num_queries) || !r.ReadU32(&per_query)) {
          return Status::InvalidArgument("truncated batch result header");
        }
        if (!PlausibleCount(r, uint64_t{num_queries} * per_query, 4)) {
          return Status::InvalidArgument("implausible batch dimensions");
        }
        resp.num_queries = static_cast<int>(num_queries);
        num_results = num_queries * per_query;
      }
      if (!PlausibleCount(r, num_results, 4)) {
        return Status::InvalidArgument("result list longer than payload");
      }
      resp.results.resize(num_results);
      for (uint32_t i = 0; i < num_results; ++i) {
        XPTC_RETURN_NOT_OK(ReadTreeResultWire(&r, resp.mode,
                                              &resp.results[i]));
      }
      if (r.remaining() != 0) {
        return Status::InvalidArgument("trailing bytes after response");
      }
      return resp;
    }
    default:
      return Status::InvalidArgument("frame type is not a response");
  }
}

std::string EncodeQueryPayload(uint32_t request_id, uint8_t dialect,
                               EvalMode mode, uint32_t deadline_ms,
                               const std::vector<int>& tree_ids,
                               const std::string& query,
                               uint64_t trace_id) {
  std::string payload;
  PutU32(&payload, request_id);
  PutU8(&payload, dialect);
  PutU8(&payload, static_cast<uint8_t>(mode));
  PutU16(&payload, trace_id != 0 ? 1 : 0);
  PutU32(&payload, deadline_ms);
  if (trace_id != 0) PutU64(&payload, trace_id);
  PutU32(&payload, static_cast<uint32_t>(tree_ids.size()));
  for (int id : tree_ids) PutU32(&payload, static_cast<uint32_t>(id));
  PutU32(&payload, static_cast<uint32_t>(query.size()));
  payload += query;
  return payload;
}

std::string EncodeBatchPayload(uint32_t request_id, uint8_t dialect,
                               EvalMode mode, uint32_t deadline_ms,
                               const std::vector<int>& tree_ids,
                               const std::vector<std::string>& queries,
                               uint64_t trace_id) {
  std::string payload;
  PutU32(&payload, request_id);
  PutU8(&payload, dialect);
  PutU8(&payload, static_cast<uint8_t>(mode));
  PutU16(&payload, trace_id != 0 ? 1 : 0);
  PutU32(&payload, deadline_ms);
  if (trace_id != 0) PutU64(&payload, trace_id);
  PutU32(&payload, static_cast<uint32_t>(tree_ids.size()));
  for (int id : tree_ids) PutU32(&payload, static_cast<uint32_t>(id));
  PutU32(&payload, static_cast<uint32_t>(queries.size()));
  for (const std::string& q : queries) {
    PutU32(&payload, static_cast<uint32_t>(q.size()));
    payload += q;
  }
  return payload;
}

std::string EncodePingPayload(uint32_t request_id) {
  std::string payload;
  PutU32(&payload, request_id);
  return payload;
}

}  // namespace server
}  // namespace xptc
