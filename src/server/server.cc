#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "exec/engine.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace xptc {
namespace server {

namespace {

// epoll user-data keys for the two non-connection fds; connection ids
// start at 1 and stay far below these.
constexpr uint64_t kListenKey = ~uint64_t{0};
constexpr uint64_t kWakeKey = ~uint64_t{0} - 1;

int64_t NowNs() { return exec::ExecEngine::SteadyNowNs(); }

// Trace spelling of a queued op ("query"/"batch"/"explain"/"metrics").
const char* OpName(RequestOp op) {
  switch (op) {
    case RequestOp::kQuery: return "query";
    case RequestOp::kBatch: return "batch";
    case RequestOp::kMetrics: return "metrics";
    case RequestOp::kExplain: return "explain";
    case RequestOp::kHealth: return "health";
    case RequestOp::kIndex: return "index";
    case RequestOp::kPing: return "ping";
    case RequestOp::kDebugSlow: return "debug_slow";
    case RequestOp::kDebugTrace: return "debug_trace";
    case RequestOp::kDebugJournal: return "debug_journal";
  }
  return "unknown";
}

// Query texts kept on a RequestTrace are truncated so the slow log's
// memory stays bounded no matter what clients send.
constexpr size_t kTraceQueryBytes = 256;

}  // namespace

struct QueryServer::Metrics {
  obs::Counter& accepted;
  obs::Counter& conn_refused;
  obs::Counter& admitted;
  obs::Counter& shed;
  obs::Counter& draining_reject;
  obs::Counter& parse_error;
  obs::Counter& inline_responses;
  obs::Counter& read_pauses;
  obs::Counter& drains;
  obs::Gauge& conns;
  obs::Gauge& queue_depth;
  obs::Histogram& queue_wait_ns;
  obs::Histogram& request_ns;

  static Metrics& Get() {
    static Metrics* m = [] {
      obs::Registry& reg = obs::Registry::Default();
      return new Metrics{
          reg.counter("server.accepted"),
          reg.counter("server.conn_refused"),
          reg.counter("server.admitted"),
          reg.counter("server.shed"),
          reg.counter("server.draining_reject"),
          reg.counter("server.parse_error"),
          reg.counter("server.inline_responses"),
          reg.counter("server.read_pauses"),
          reg.counter("server.drains"),
          reg.gauge("server.conns"),
          reg.gauge("server.queue_depth"),
          reg.histogram("server.queue_wait_ns"),
          reg.histogram("server.request_ns"),
      };
    }();
    return *m;
  }
};

struct QueryServer::Connection {
  uint64_t id = 0;
  int fd = -1;
  enum class Proto { kUnknown, kHttp, kBinary };
  Proto proto = Proto::kUnknown;

  std::string peer;  // "ip:port", captured at accept for trace attribution

  std::string input;
  std::string output;
  size_t output_off = 0;

  // Flight-recorder accept-phase stamp: when the first unparsed byte of
  // the next message became readable (0 = nothing buffered).
  int64_t read_start_ns = 0;

  // Pipelined-response ordering: every request (inline or queued) claims
  // the next seq slot at dispatch; responses park in `ready` until every
  // earlier slot has flushed, so the wire order always equals the request
  // order no matter which worker finishes first.
  struct Slot {
    std::string bytes;
    bool close_after = false;
    // Flight-recorder handoff for worker-path responses (flight_id == 0
    // on inline replies, which are not phase-attributed).
    uint64_t flight_id = 0;
    std::unique_ptr<obs::RequestTrace> trace;
  };
  uint64_t next_seq = 0;
  uint64_t flush_seq = 0;
  std::map<uint64_t, Slot> ready;

  // Flush-phase attribution: monotonic byte counters over the life of the
  // connection (queued = appended to `output`, flushed = written to the
  // socket) plus the FIFO of responses whose last byte has not reached the
  // socket yet. A response is fully flushed exactly when `total_flushed`
  // passes the `total_queued` value observed as it was appended — no
  // per-byte bookkeeping, immune to the output buffer's compactions.
  uint64_t total_queued = 0;
  uint64_t total_flushed = 0;
  struct PendingFlush {
    uint64_t flush_target = 0;    // total_queued after this response
    int64_t flush_start_ns = 0;
    uint64_t flight_id = 0;
    std::unique_ptr<obs::RequestTrace> trace;  // null for untraced requests
  };
  std::vector<PendingFlush> pending_flush;  // FIFO (bounded by inflight cap)

  int inflight = 0;  // admitted to the queue, response not yet flushed
  uint32_t armed = 0;  // epoll interest currently registered
  bool reading = true;
  bool peer_closed = false;
  bool want_close = false;  // close once everything pending has flushed
};

struct QueryServer::WorkItem {
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  ServiceRequest req;
  int64_t deadline_ns = 0;
  int64_t admit_ns = 0;
  bool is_http = false;
  bool keep_alive = true;
  // Non-null iff the request is sampled or a completion log is installed;
  // accept/parse phases are already filled in by Dispatch.
  std::unique_ptr<obs::RequestTrace> trace;
};

struct QueryServer::Completion {
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  std::string bytes;
  bool close_after = false;
  uint64_t flight_id = 0;
  std::unique_ptr<obs::RequestTrace> trace;
};

QueryServer::QueryServer(QueryService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  XPTC_CHECK(service_ != nullptr);
}

QueryServer::~QueryServer() {
  Shutdown();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status QueryServer::Start() {
  XPTC_CHECK(!running_) << "Start called twice";
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::Internal(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::Internal(std::string("epoll_create1: ") +
                            std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenKey;
  XPTC_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
  ev.data.u64 = kWakeKey;
  XPTC_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);

  queue_ = std::make_unique<BoundedQueue<WorkItem>>(options_.queue_capacity);
  draining_.store(false, std::memory_order_release);
  running_ = true;
  reactor_ = std::thread(&QueryServer::ReactorLoop, this);
  const int workers = service_->num_workers();
  workers_.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back(&QueryServer::WorkerLoop, this, w);
  }
  return Status::OK();
}

void QueryServer::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (!running_) return;
  draining_.store(true, std::memory_order_release);
  WakeReactor();
  reactor_.join();
  // Everything admitted was executed and flushed (or its connection died);
  // release the workers.
  queue_->Close();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  conns_.clear();
  Metrics::Get().conns.Set(0);
  Metrics::Get().drains.Inc();
  running_ = false;
}

void QueryServer::WakeReactor() {
  const uint64_t one = 1;
  // EAGAIN (counter saturated) still wakes the reactor; nothing to handle.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

int64_t QueryServer::DeadlineFor(uint32_t deadline_ms) const {
  uint64_t ms = deadline_ms == 0 ? options_.default_deadline_ms : deadline_ms;
  if (options_.max_deadline_ms != 0 && ms > options_.max_deadline_ms) {
    ms = options_.max_deadline_ms;
  }
  if (ms == 0) return 0;
  return NowNs() + static_cast<int64_t>(ms) * 1'000'000;
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

void QueryServer::WorkerLoop(int worker) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
  for (;;) {
    std::optional<WorkItem> item = queue_->Pop();
    if (!item.has_value()) return;  // closed and drained
    if (worker_hook_) worker_hook_();
    Metrics::Get().queue_depth.Set(static_cast<int64_t>(queue_->size()));
    const uint64_t flight_id = item->req.trace_id;
    const int64_t start_ns = NowNs();
    const int64_t queue_ns = start_ns - item->admit_ns;
    Metrics::Get().queue_wait_ns.Observe(queue_ns);
    recorder.ObservePhase(obs::Phase::kQueue, queue_ns);
    obs::RequestTrace* trace = item->trace.get();
    if (trace != nullptr) {
      trace->phase_ns[static_cast<int>(obs::Phase::kQueue)] = queue_ns;
    }
    ServiceResponse resp;
    int64_t exec_end_ns;
    {
      // The request context for the duration of Handle: the engine's spans,
      // counts and notes land in the trace, the service adds the batch
      // fan-out's worker spans, and every journal record inside (deadline
      // probes, batch tasks) attributes to this flight id without widening
      // any signature.
      obs::RequestScope scope(flight_id, trace);
      obs::Journal::Record(obs::JournalCode::kWorkerPop,
                           static_cast<uint64_t>(queue_ns), 0, start_ns);
      obs::Journal::Record(obs::JournalCode::kExecStart,
                           static_cast<uint64_t>(worker), 0, start_ns);
      resp = service_->Handle(item->req, worker, item->deadline_ns);
      exec_end_ns = NowNs();
      obs::Journal::Record(obs::JournalCode::kExecEnd,
                           static_cast<uint64_t>(exec_end_ns - start_ns), 0,
                           exec_end_ns);
    }
    const int64_t exec_ns = exec_end_ns - start_ns;
    recorder.ObservePhase(obs::Phase::kExec, exec_ns);
    // Echo the flight id to the client (X-Request-Id header / flags-gated
    // trace field) unless the service already set one.
    if (resp.trace_id == 0) resp.trace_id = flight_id;
    Completion c;
    c.conn_id = item->conn_id;
    c.seq = item->seq;
    c.close_after = item->is_http && !item->keep_alive;
    c.flight_id = flight_id;
    c.bytes = item->is_http ? RenderHttpResponse(resp, item->keep_alive)
                            : EncodeResponseFrame(resp);
    const int64_t encode_end_ns = NowNs();
    const int64_t encode_ns = encode_end_ns - exec_end_ns;
    recorder.ObservePhase(obs::Phase::kEncode, encode_ns);
    obs::Journal::Record(obs::JournalCode::kEncode, c.bytes.size(),
                         flight_id, encode_end_ns);
    if (trace != nullptr) {
      trace->phase_ns[static_cast<int>(obs::Phase::kExec)] = exec_ns;
      trace->phase_ns[static_cast<int>(obs::Phase::kEncode)] = encode_ns;
      trace->code = static_cast<uint8_t>(resp.code);
      c.trace = std::move(item->trace);
    }
    Metrics::Get().request_ns.Observe(encode_end_ns - item->admit_ns);
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(c));
    }
    WakeReactor();
  }
}

// ---------------------------------------------------------------------------
// Reactor side. Everything below runs on the reactor thread only.
// ---------------------------------------------------------------------------

void QueryServer::ReapDead() {
  for (uint64_t id : dead_conns_) conns_.erase(id);
  if (!dead_conns_.empty()) {
    Metrics::Get().conns.Set(static_cast<int64_t>(conns_.size()));
  }
  dead_conns_.clear();
}

void QueryServer::ReactorLoop() {
  std::vector<epoll_event> events(64);
  int64_t drain_start_ns = 0;

  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining) {
      if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      if (drain_start_ns == 0) drain_start_ns = NowNs();
      // Close every connection with nothing pending; drain completes when
      // none remain and no orphaned work is still executing.
      for (auto& [id, conn] : conns_) {
        if (conn->fd >= 0 && conn->inflight == 0 && conn->ready.empty() &&
            conn->output_off >= conn->output.size()) {
          CloseConnection(conn.get());
        }
      }
      ReapDead();
      if (conns_.empty() && total_inflight_ == 0) return;
      if (NowNs() - drain_start_ns >
          static_cast<int64_t>(options_.drain_timeout_ms) * 1'000'000) {
        for (auto& [id, conn] : conns_) {
          if (conn->fd >= 0) CloseConnection(conn.get());
        }
        ReapDead();
        return;
      }
    }

    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()),
                               draining ? 20 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd broken: unrecoverable
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t key = events[i].data.u64;
      if (key == kListenKey) {
        AcceptAll();
        continue;
      }
      if (key == kWakeKey) {
        uint64_t count = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &count, sizeof(count));
        continue;  // completions drain below
      }
      auto it = conns_.find(key);
      if (it == conns_.end() || it->second->fd < 0) continue;
      Connection* conn = it->second.get();
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        HandleWritable(conn);
      }
      if (conn->fd >= 0 && (events[i].events & EPOLLIN) != 0) {
        HandleReadable(conn);
      }
      if (conn->fd >= 0) UpdateInterest(conn);
    }
    DrainCompletions();
    ReapDead();
  }
}

void QueryServer::AcceptAll() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                             &peer_len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: try again on next event
    }
    if (static_cast<int>(conns_.size()) >= options_.max_conns) {
      // Refusal is immediate and costs nothing per refused peer — the
      // connection-count analogue of queue shedding.
      ::close(fd);
      Metrics::Get().conn_refused.Inc();
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->armed = EPOLLIN;
    char ip[INET_ADDRSTRLEN] = "?";
    if (peer.sin_family == AF_INET) {
      ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
    }
    conn->peer = std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    obs::Journal::Record(obs::JournalCode::kAccept, conn->id);
    conns_[conn->id] = std::move(conn);
    Metrics::Get().accepted.Inc();
    Metrics::Get().conns.Set(static_cast<int64_t>(conns_.size()));
  }
}

void QueryServer::CloseConnection(Connection* conn) {
  if (conn->fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->fd = -1;
  obs::Journal::Record(obs::JournalCode::kConnClose, conn->id);
  // Responses that never finished flushing still get their traces
  // recorded (flush phase truncated at close time) — a trace of a request
  // whose client hung up is exactly what the slow log is for.
  if (!conn->pending_flush.empty()) {
    const int64_t now = NowNs();
    obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
    for (auto& p : conn->pending_flush) {
      const int64_t flush_ns = now - p.flush_start_ns;
      recorder.ObservePhase(obs::Phase::kFlush, flush_ns);
      obs::Journal::Record(obs::JournalCode::kFlushEnd,
                           static_cast<uint64_t>(flush_ns), p.flight_id,
                           now);
      if (p.trace != nullptr) {
        p.trace->phase_ns[static_cast<int>(obs::Phase::kFlush)] = flush_ns;
        p.trace->total_ns = now - p.trace->start_ns;
        p.trace->root.notes.push_back(
            "connection closed before flush completed");
        recorder.Record(std::move(*p.trace));
      }
    }
    conn->pending_flush.clear();
  }
  // Orphaned in-flight work still executes; its completions decrement
  // total_inflight_ and are then dropped (no connection to write to).
  dead_conns_.push_back(conn->id);
}

void QueryServer::HandleReadable(Connection* conn) {
  char buf[64 << 10];
  for (;;) {
    if (conn->input.size() >= options_.input_watermark) break;
    const ssize_t r = ::read(conn->fd, buf, sizeof(buf));
    if (r > 0) {
      // Accept-phase stamp: first byte of a fresh message became readable.
      if (conn->input.empty()) conn->read_start_ns = NowNs();
      conn->input.append(buf, static_cast<size_t>(r));
      continue;
    }
    if (r == 0) {
      conn->peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn);
    return;
  }
  ParseLoop(conn);
  if (conn->fd >= 0 && conn->peer_closed) {
    if (conn->inflight == 0 && conn->ready.empty() &&
        conn->output_off >= conn->output.size()) {
      CloseConnection(conn);
      return;
    }
    conn->want_close = true;  // flush what is pending, then close
  }
}

void QueryServer::HandleWritable(Connection* conn) {
  while (conn->output_off < conn->output.size()) {
    const ssize_t w =
        ::write(conn->fd, conn->output.data() + conn->output_off,
                conn->output.size() - conn->output_off);
    if (w > 0) {
      conn->output_off += static_cast<size_t>(w);
      conn->total_flushed += static_cast<uint64_t>(w);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn);  // EPIPE/ECONNRESET and friends
    return;
  }
  FinalizeFlushed(conn);
  if (conn->output_off >= conn->output.size()) {
    conn->output.clear();
    conn->output_off = 0;
    if (conn->want_close && conn->inflight == 0 && conn->ready.empty()) {
      CloseConnection(conn);
      return;
    }
  } else if (conn->output_off > (64 << 10)) {
    conn->output.erase(0, conn->output_off);
    conn->output_off = 0;
  }
  MaybeResumeReading(conn);
}

void QueryServer::ParseLoop(Connection* conn) {
  while (conn->fd >= 0 && !conn->want_close) {
    if (conn->inflight >= options_.max_inflight_per_conn ||
        conn->output.size() - conn->output_off > options_.output_watermark) {
      // Backpressure: this connection has enough outstanding; stop
      // reading (and parsing) until responses flush.
      if (conn->reading) {
        conn->reading = false;
        Metrics::Get().read_pauses.Inc();
      }
      return;
    }
    if (conn->input.empty()) return;
    // Accept phase ends (and parse begins) the moment a parse of the
    // buffered bytes is attempted; on kNeedMore the stamp survives, so the
    // phase keeps accumulating until the message completes.
    const int64_t parse_start_ns = NowNs();
    const int64_t accept_ns = conn->read_start_ns != 0
                                  ? parse_start_ns - conn->read_start_ns
                                  : 0;
    // Protocol detection is per *message*, not per connection: the frame
    // magic 0xB7 can never begin an HTTP request line, so one connection
    // may freely interleave binary frames and HTTP requests.
    conn->proto = static_cast<uint8_t>(conn->input[0]) == kFrameMagic
                      ? Connection::Proto::kBinary
                      : Connection::Proto::kHttp;
    if (conn->proto == Connection::Proto::kHttp) {
      HttpRequest hreq;
      size_t consumed = 0;
      std::string error;
      const ParseStatus st =
          ParseHttpRequest(conn->input.data(), conn->input.size(),
                           options_.http_limits, &hreq, &consumed, &error);
      if (st == ParseStatus::kNeedMore) return;
      if (st == ParseStatus::kError) {
        Metrics::Get().parse_error.Inc();
        obs::Journal::Record(obs::JournalCode::kParseError, conn->id);
        ServiceResponse resp;
        resp.code = RespCode::kBadRequest;
        resp.payload = error;
        RespondInline(conn, RenderHttpResponse(resp, false),
                      /*close_after=*/true);
        return;
      }
      conn->input.erase(0, consumed);
      // A pipelined follow-up already buffered starts its accept phase
      // now (it only became parseable now); an empty buffer clears the
      // stamp so keep-alive idle time never counts as accept.
      conn->read_start_ns = conn->input.empty() ? 0 : parse_start_ns;
      Result<ServiceRequest> req = TranslateHttp(hreq);
      if (!req.ok()) {
        Metrics::Get().parse_error.Inc();
        obs::Journal::Record(obs::JournalCode::kParseError, conn->id);
        ServiceResponse resp;
        resp.code = req.status().IsOutOfRange() ? RespCode::kNotFound
                                                : RespCode::kBadRequest;
        resp.payload = req.status().ToString();
        RespondInline(conn, RenderHttpResponse(resp, hreq.keep_alive),
                      !hreq.keep_alive);
        continue;
      }
      Dispatch(conn, std::move(*req), /*is_http=*/true, hreq.keep_alive,
               accept_ns, parse_start_ns);
    } else {
      Frame frame;
      size_t consumed = 0;
      std::string error;
      const ParseStatus st =
          DecodeFrame(conn->input.data(), conn->input.size(),
                      options_.max_frame_payload, &frame, &consumed, &error);
      if (st == ParseStatus::kNeedMore) return;
      if (st == ParseStatus::kError) {
        // Framing is lost: answer once, then close.
        Metrics::Get().parse_error.Inc();
        obs::Journal::Record(obs::JournalCode::kParseError, conn->id);
        ServiceResponse resp;
        resp.code = RespCode::kBadRequest;
        resp.payload = error;
        RespondInline(conn, EncodeResponseFrame(resp), /*close_after=*/true);
        return;
      }
      conn->input.erase(0, consumed);
      conn->read_start_ns = conn->input.empty() ? 0 : parse_start_ns;
      Result<ServiceRequest> req = TranslateFrame(frame);
      if (!req.ok()) {
        // Malformed payload inside an intact frame: error frame, keep the
        // connection.
        Metrics::Get().parse_error.Inc();
        obs::Journal::Record(obs::JournalCode::kParseError, conn->id);
        ServiceResponse resp;
        resp.code = RespCode::kBadRequest;
        resp.payload = req.status().ToString();
        RespondInline(conn, EncodeResponseFrame(resp), false);
        continue;
      }
      Dispatch(conn, std::move(*req), /*is_http=*/false, true, accept_ns,
               parse_start_ns);
    }
  }
}

void QueryServer::Dispatch(Connection* conn, ServiceRequest req, bool is_http,
                           bool keep_alive, int64_t accept_ns,
                           int64_t parse_start_ns) {
  if (QueryService::IsInline(req.op)) {
    // Health, index, metrics, ping, /debug/*: answered on the reactor
    // thread so they stay responsive when the queue is full — these ops
    // touch only thread-safe state (the registry, the recorder's bounded
    // logs, the journal rings), never the engines. Worker id 0 is a
    // formality for the Handle contract. Not phase-attributed (they never
    // queue), but a client-supplied flight id is still echoed.
    obs::Journal::Record(obs::JournalCode::kInlineReply,
                         static_cast<uint64_t>(req.op), req.trace_id);
    ServiceResponse resp = service_->Handle(req, 0, 0);
    if (resp.trace_id == 0) resp.trace_id = req.trace_id;
    RespondInline(conn,
                  is_http ? RenderHttpResponse(resp, keep_alive)
                          : EncodeResponseFrame(resp),
                  is_http && !keep_alive);
    return;
  }

  // Admission mints the flight id when the client did not supply one
  // (X-Request-Id / binary trace field); from here on every journal
  // record, phase sample, and response echo carries it.
  obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
  if (req.trace_id == 0) req.trace_id = recorder.MintId();
  // One clock read serves the parse phase, the admission stamp, and every
  // journal record below.
  const int64_t admit_ns = NowNs();
  const int64_t parse_ns = admit_ns - parse_start_ns;
  recorder.ObservePhase(obs::Phase::kAccept, accept_ns);
  recorder.ObservePhase(obs::Phase::kParse, parse_ns);
  obs::Journal::Record(obs::JournalCode::kParse,
                       static_cast<uint64_t>(parse_ns), req.trace_id,
                       admit_ns);

  ServiceResponse err;
  err.op = req.op;
  err.mode = req.mode;
  err.request_id = req.request_id;
  err.trace_id = req.trace_id;
  if (draining_.load(std::memory_order_acquire)) {
    Metrics::Get().draining_reject.Inc();
    obs::Journal::Record(obs::JournalCode::kDrainingReject, 0, req.trace_id,
                         admit_ns);
    err.code = RespCode::kDraining;
    err.payload = "server is draining";
    RespondInline(conn,
                  is_http ? RenderHttpResponse(err, false)
                          : EncodeResponseFrame(err),
                  is_http);
    return;
  }

  WorkItem item;
  item.conn_id = conn->id;
  item.seq = conn->next_seq;  // claimed only if admission succeeds
  item.deadline_ns = DeadlineFor(req.deadline_ms);
  item.admit_ns = admit_ns;
  item.is_http = is_http;
  item.keep_alive = keep_alive;
  const bool sampled = recorder.Sampled(req.trace_id);
  if (sampled || recorder.completion_log_installed()) {
    auto trace = std::make_unique<obs::RequestTrace>();
    trace->id = req.trace_id;
    trace->wire_request_id = req.request_id;
    trace->sampled = sampled;
    trace->is_http = is_http;
    trace->op = OpName(req.op);
    trace->peer = conn->peer;
    if (!req.queries.empty()) {
      trace->query = req.queries[0].substr(0, kTraceQueryBytes);
    }
    trace->start_ns = item.admit_ns - accept_ns - parse_ns;
    trace->phase_ns[static_cast<int>(obs::Phase::kAccept)] = accept_ns;
    trace->phase_ns[static_cast<int>(obs::Phase::kParse)] = parse_ns;
    item.trace = std::move(trace);
  }
  const uint64_t flight_id = req.trace_id;
  item.req = std::move(req);
  if (!queue_->TryPush(std::move(item))) {
    Metrics::Get().shed.Inc();
    obs::Journal::Record(obs::JournalCode::kShed, queue_->size(), flight_id,
                         admit_ns);
    err.code = RespCode::kOverloaded;
    err.payload = "admission queue full";
    RespondInline(conn,
                  is_http ? RenderHttpResponse(err, keep_alive)
                          : EncodeResponseFrame(err),
                  is_http && !keep_alive);
    return;
  }
  conn->next_seq++;
  conn->inflight++;
  total_inflight_++;
  obs::Journal::Record(obs::JournalCode::kAdmit, queue_->size(), flight_id,
                       admit_ns);
  Metrics::Get().admitted.Inc();
  Metrics::Get().queue_depth.Set(static_cast<int64_t>(queue_->size()));
}

void QueryServer::RespondInline(Connection* conn, std::string bytes,
                                bool close_after) {
  Metrics::Get().inline_responses.Inc();
  const uint64_t seq = conn->next_seq++;
  conn->ready[seq] =
      Connection::Slot{std::move(bytes), close_after, 0, nullptr};
  FlushReady(conn);
}

void QueryServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& c : batch) {
    XPTC_CHECK(total_inflight_ > 0);
    total_inflight_--;
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end() || it->second->fd < 0) {
      // Connection died before the response could be written. The trace is
      // still worth keeping (it explains the work the server did for a
      // client that gave up) — finalise it without a flush phase.
      if (c.trace != nullptr) {
        c.trace->total_ns = NowNs() - c.trace->start_ns;
        c.trace->root.notes.push_back("connection died before response flush");
        obs::FlightRecorder::Get().Record(std::move(*c.trace));
      }
      continue;
    }
    Connection* conn = it->second.get();
    conn->inflight--;
    Connection::Slot slot;
    slot.bytes = std::move(c.bytes);
    slot.close_after = c.close_after;
    slot.flight_id = c.flight_id;
    slot.trace = std::move(c.trace);
    conn->ready[c.seq] = std::move(slot);
    FlushReady(conn);
  }
}

void QueryServer::FlushReady(Connection* conn) {
  for (;;) {
    auto it = conn->ready.find(conn->flush_seq);
    if (it == conn->ready.end()) break;
    conn->output += it->second.bytes;
    conn->total_queued += it->second.bytes.size();
    if (it->second.flight_id != 0) {
      // Flush phase opens as the response enters the output buffer and
      // closes when total_flushed catches up to this target.
      const int64_t flush_start_ns = NowNs();
      obs::Journal::Record(obs::JournalCode::kFlushStart,
                           it->second.bytes.size(), it->second.flight_id,
                           flush_start_ns);
      Connection::PendingFlush pending;
      pending.flush_target = conn->total_queued;
      pending.flush_start_ns = flush_start_ns;
      pending.flight_id = it->second.flight_id;
      pending.trace = std::move(it->second.trace);
      conn->pending_flush.push_back(std::move(pending));
    }
    if (it->second.close_after) conn->want_close = true;
    conn->ready.erase(it);
    conn->flush_seq++;
  }
  HandleWritable(conn);  // opportunistic synchronous write
  if (conn->fd >= 0) UpdateInterest(conn);
}

void QueryServer::FinalizeFlushed(Connection* conn) {
  if (conn->pending_flush.empty()) return;
  obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
  size_t done = 0;
  int64_t now = 0;
  while (done < conn->pending_flush.size() &&
         conn->total_flushed >= conn->pending_flush[done].flush_target) {
    Connection::PendingFlush& p = conn->pending_flush[done];
    if (now == 0) now = NowNs();
    const int64_t flush_ns = now - p.flush_start_ns;
    recorder.ObservePhase(obs::Phase::kFlush, flush_ns);
    obs::Journal::Record(obs::JournalCode::kFlushEnd,
                         static_cast<uint64_t>(flush_ns), p.flight_id, now);
    if (p.trace != nullptr) {
      p.trace->phase_ns[static_cast<int>(obs::Phase::kFlush)] = flush_ns;
      p.trace->total_ns = now - p.trace->start_ns;
      recorder.Record(std::move(*p.trace));
    }
    ++done;
  }
  if (done > 0) {
    conn->pending_flush.erase(conn->pending_flush.begin(),
                              conn->pending_flush.begin() +
                                  static_cast<long>(done));
  }
}

void QueryServer::UpdateInterest(Connection* conn) {
  if (conn->fd < 0) return;
  uint32_t want = 0;
  if (conn->output_off < conn->output.size()) want |= EPOLLOUT;
  if (conn->reading && !conn->want_close && !conn->peer_closed) {
    want |= EPOLLIN;
  }
  if (want == conn->armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->armed = want;
}

void QueryServer::MaybeResumeReading(Connection* conn) {
  if (conn->fd < 0 || conn->reading || conn->want_close ||
      conn->peer_closed) {
    return;
  }
  if (conn->inflight >= options_.max_inflight_per_conn) return;
  if (conn->output.size() - conn->output_off > options_.output_watermark) {
    return;
  }
  conn->reading = true;
  // Requests buffered while paused can now proceed.
  ParseLoop(conn);
  if (conn->fd >= 0) UpdateInterest(conn);
}

}  // namespace server
}  // namespace xptc
