#include "obs/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "common/json.h"

namespace xptc {
namespace obs {

namespace {

// The one per-thread request context. Plain pointers and an integer, so it
// is constant-initialised (no TLS init guard on the hot path) and safe to
// read from a signal handler.
struct RequestContext {
  uint64_t flight_id = 0;
  RequestTrace* trace = nullptr;
  // Where spans attach: nullptr unless a sampled trace is active, and inside
  // a span the cap dropped.
  TraceNode* node = nullptr;
};

thread_local RequestContext t_context;

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out->append(buf);
}

}  // namespace

void NodeToJson(const TraceNode& node, bool with_times, int indent,
                std::string* out) {
  const bool pretty = indent >= 0;
  const char* colon = pretty ? ": " : ":";
  const char* comma = pretty ? ", " : ",";
  const std::string pad(pretty ? static_cast<size_t>(indent) : 0, ' ');
  out->append(pad).append("{\"name\"").append(colon);
  AppendJsonString(out, node.name);
  if (with_times && node.elapsed_ns > 0) {
    out->append(comma).append("\"elapsed_ns\"").append(colon);
    AppendInt(out, node.elapsed_ns);
  }
  if (!node.attrs.empty()) {
    out->append(comma).append("\"attrs\"").append(colon).push_back('{');
    for (size_t i = 0; i < node.attrs.size(); ++i) {
      if (i > 0) out->append(comma);
      AppendJsonString(out, node.attrs[i].first);
      out->append(colon);
      AppendInt(out, node.attrs[i].second);
    }
    out->push_back('}');
  }
  if (!node.notes.empty()) {
    out->append(comma).append("\"notes\"").append(colon).push_back('[');
    for (size_t i = 0; i < node.notes.size(); ++i) {
      if (i > 0) out->append(comma);
      AppendJsonString(out, node.notes[i]);
    }
    out->push_back(']');
  }
  if (!node.children.empty()) {
    out->append(comma).append("\"children\"").append(colon).push_back('[');
    if (pretty) out->push_back('\n');
    for (size_t i = 0; i < node.children.size(); ++i) {
      NodeToJson(node.children[i], with_times, pretty ? indent + 2 : -1, out);
      if (i + 1 < node.children.size()) out->push_back(',');
      if (pretty) out->push_back('\n');
    }
    out->append(pad).push_back(']');
  }
  out->push_back('}');
}

void NodeToText(const TraceNode& node, bool with_times, int indent,
                std::string* out) {
  out->append(static_cast<size_t>(indent), ' ');
  out->append(node.name);
  for (const auto& [key, v] : node.attrs) {
    out->push_back(' ');
    out->append(key).push_back('=');
    AppendInt(out, v);
  }
  if (with_times && node.elapsed_ns > 0) {
    out->append(" elapsed_ns=");
    AppendInt(out, node.elapsed_ns);
  }
  out->push_back('\n');
  for (const std::string& note : node.notes) {
    out->append(static_cast<size_t>(indent + 2), ' ');
    out->append("- ").append(note).push_back('\n');
  }
  for (const TraceNode& child : node.children) {
    NodeToText(child, with_times, indent + 2, out);
  }
}

void TraceNode::AddAttr(const std::string& key, int64_t delta) {
  for (auto& [k, v] : attrs) {
    if (k == key) {
      v += delta;
      return;
    }
  }
  attrs.emplace_back(key, delta);
}

void TraceNode::SetAttr(const std::string& key, int64_t v) {
  for (auto& [k, existing] : attrs) {
    if (k == key) {
      existing = v;
      return;
    }
  }
  attrs.emplace_back(key, v);
}

const int64_t* TraceNode::FindAttr(const std::string& key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kAccept: return "accept";
    case Phase::kParse: return "parse";
    case Phase::kQueue: return "queue";
    case Phase::kExec: return "exec";
    case Phase::kEncode: return "encode";
    case Phase::kFlush: return "flush";
  }
  return "?";
}

RequestScope::RequestScope(uint64_t flight_id, RequestTrace* trace)
    : saved_id_(t_context.flight_id),
      saved_trace_(t_context.trace),
      saved_node_(t_context.node) {
  t_context.flight_id = flight_id;
  t_context.trace = trace;
  t_context.node = trace != nullptr && trace->sampled ? &trace->root : nullptr;
}

RequestScope::~RequestScope() {
  t_context.flight_id = saved_id_;
  t_context.trace = saved_trace_;
  t_context.node = saved_node_;
}

uint64_t CurrentFlightId() { return t_context.flight_id; }

RequestTrace* CurrentRequestTrace() { return t_context.trace; }

TraceNode* CurrentTraceNode() { return t_context.node; }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TraceSpan::TraceSpan(const char* name, Histogram* flame) : flame_(flame) {
  RequestContext& ctx = t_context;
  if (ctx.node != nullptr) {
    saved_ = ctx.node;
    RequestTrace& trace = *ctx.trace;
    if (trace.span_nodes < kMaxTraceSpans) {
      ++trace.span_nodes;
      // Only the innermost open node's children grow, so the open spans'
      // nodes (each the last child of its parent) never move.
      node_ = &saved_->children.emplace_back();
      node_->name = name;
    } else {
      ++trace.dropped_spans;  // what it would have held goes with it
    }
    ctx.node = node_;
  }
#if XPTC_OBS
  if (node_ != nullptr || flame_ != nullptr) start_ns_ = NowNs();
#endif
}

TraceSpan::~TraceSpan() {
#if XPTC_OBS
  if (node_ != nullptr || flame_ != nullptr) {
    int64_t elapsed = NowNs() - start_ns_;
    if (node_ != nullptr) node_->elapsed_ns = elapsed;
    if (flame_ != nullptr) flame_->Observe(elapsed);
  }
#endif
  if (saved_ != nullptr) t_context.node = saved_;
}

void TraceSpan::Attr(const char* key, int64_t v) {
  if (node_ != nullptr) node_->SetAttr(key, v);
}

void TraceSpan::AddAttr(const char* key, int64_t delta) {
  if (node_ != nullptr) node_->AddAttr(key, delta);
}

void TraceSpan::Note(std::string_view note) {
  if (node_ != nullptr) node_->notes.emplace_back(note);
}

void TraceAddCount(const char* key, int64_t delta) {
  if (TraceNode* node = t_context.node) node->AddAttr(key, delta);
}

void TraceNote(std::string_view note) {
  if (TraceNode* node = t_context.node) node->notes.emplace_back(note);
}

}  // namespace obs
}  // namespace xptc
