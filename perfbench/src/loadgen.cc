#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "host.h"

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: load generator: %s\n", what.c_str());
  std::exit(1);
}

constexpr size_t kMaxResponsePayload = size_t{1} << 30;
constexpr int kMaxDumps = 3;
constexpr char kCaseDir[] = ".bench_build/cases";
// A closed loop that hears nothing for this long has a hung server.
constexpr int64_t kStallNs = int64_t{60} * 1000 * 1000 * 1000;

}  // namespace

struct LoadGen::Conn {
  int fd = -1;
  std::string in;       // unparsed response bytes
  int cell = -1;        // cell of the outstanding request, -1 when idle
  uint64_t trace_id = 0;
  int64_t sent_ns = 0;
};

void Window::Merge(const Window& other) {
  attempted += other.attempted;
  ok += other.ok;
  completed += other.completed;
  latency.Merge(other.latency);
  traced.insert(traced.end(), other.traced.begin(), other.traced.end());
  wall_s += other.wall_s;
  gen_cpu_s += other.gen_cpu_s;
  steal_ms += other.steal_ms;
}

LoadGen::LoadGen(const Workload* w, uint16_t port, int conns,
                 std::vector<int> steal_cpus)
    : w_(w), steal_cpus_(std::move(steal_cpus)) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) Fatal("epoll_create1 failed");
  for (int i = 0; i < conns; ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c->fd < 0) Fatal("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Fatal(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c.get();
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c->fd, &ev) != 0) {
      Fatal("epoll_ctl failed");
    }
    conns_.push_back(std::move(c));
  }
}

LoadGen::~LoadGen() {
  for (auto& c : conns_) close(c->fd);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

int LoadGen::NextCell(const std::vector<int>* list, size_t* list_pos) {
  if (list != nullptr) {
    return *list_pos < list->size() ? (*list)[(*list_pos)++] : -1;
  }
  return StreamCell(*w_, cursor_++);
}

void LoadGen::Send(Conn* c, int cell) {
  const uint64_t id = next_id_++;
  const std::string frame =
      EncodeRequest(*w_, cell, static_cast<uint32_t>(id), id);
  c->cell = cell;
  c->trace_id = id;
  c->sent_ns = NowNs();
  // One request per connection is outstanding and the previous response
  // was read in full, so the send buffer is empty: a blocking send of one
  // frame completes without waiting on the server.
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = send(c->fd, frame.data() + off, frame.size() - off,
                           MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      Fatal(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
}

void LoadGen::OnResponse(Conn* c, const xptc::server::Frame& frame,
                         int64_t now_ns, Window* window, bool record_ids) {
  const int64_t latency = now_ns - c->sent_ns;
  window->latency.Add(latency);
  if (record_ids) window->traced.emplace_back(c->trace_id, latency);
  auto resp = xptc::server::DecodeResponseFrame(frame);
  std::string why;
  int bad_cell = c->cell;
  bool good = false;
  if (!resp.ok()) {
    why = "undecodable response: " + resp.status().ToString();
  } else if (resp->trace_id != c->trace_id) {
    why = "response for another request";
  } else {
    good = CheckResponse(*w_, c->cell, *resp, &bad_cell, &why);
  }
  if (good) {
    ++window->ok;
  } else if (dumps_ < kMaxDumps) {
    ++dumps_;
    std::fprintf(stderr, "perfbench: wrong answer on cell %d: %s\n", bad_cell,
                 why.c_str());
    DumpCase(*w_, bad_cell, kCaseDir, why);
  }
  c->cell = -1;
}

Window LoadGen::RunList(const std::vector<int>& cells, int active) {
  std::vector<Window> windows =
      Run(active, 0, &cells, false, [](const std::vector<Window>&) { return false; });
  return windows.front();
}

std::vector<Window> LoadGen::RunStream(
    int active, double window_s, bool record_ids,
    const std::function<bool(const std::vector<Window>&)>& more) {
  return Run(active, window_s, nullptr, record_ids, more);
}

std::vector<Window> LoadGen::Run(
    int active, double window_s, const std::vector<int>* list,
    bool record_ids,
    const std::function<bool(const std::vector<Window>&)>& more) {
  if (active > static_cast<int>(conns_.size())) {
    active = static_cast<int>(conns_.size());
  }
  std::vector<Window> windows(1);
  const int64_t window_ns = static_cast<int64_t>(window_s * 1e9);
  int64_t window_start = NowNs();
  double cpu_start = ThreadCpuSeconds();
  double steal_start = StealMs(steal_cpus_);
  bool sending = true;
  size_t list_pos = 0;
  int outstanding = 0;
  auto send_next = [&](Conn* c) {
    if (!sending) return;
    const int cell = NextCell(list, &list_pos);
    if (cell < 0) return;
    Send(c, cell);
    ++windows.back().attempted;
    ++outstanding;
  };
  // Closes the current window at `now_ns`; opens the next one if `more`.
  auto close_window = [&](int64_t now_ns) {
    Window& cur = windows.back();
    cur.wall_s = static_cast<double>(now_ns - window_start) * 1e-9;
    const double cpu = ThreadCpuSeconds();
    const double steal = StealMs(steal_cpus_);
    cur.gen_cpu_s = cpu - cpu_start;
    cur.steal_ms = steal - steal_start;
    if (!more(windows)) {
      sending = false;
      return;
    }
    windows.emplace_back();
    window_start = now_ns;
    cpu_start = cpu;
    steal_start = steal;
  };
  for (int i = 0; i < active; ++i) send_next(conns_[i].get());

  int64_t last_ns = NowNs();
  epoll_event events[64];
  char buf[1 << 16];
  while (outstanding > 0) {
    const int n = epoll_wait(epoll_fd_, events, 64, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      Fatal("epoll_wait failed");
    }
    if (n == 0 && NowNs() - last_ns > kStallNs) Fatal("server stalled");
    for (int e = 0; e < n; ++e) {
      Conn* c = static_cast<Conn*>(events[e].data.ptr);
      for (;;) {
        const ssize_t got = recv(c->fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (got > 0) {
          c->in.append(buf, static_cast<size_t>(got));
          continue;
        }
        if (got == 0) Fatal("server closed a connection");
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        Fatal(std::string("recv: ") + std::strerror(errno));
      }
      for (;;) {
        xptc::server::Frame frame;
        size_t consumed = 0;
        std::string error;
        const auto status = xptc::server::DecodeFrame(
            c->in.data(), c->in.size(), kMaxResponsePayload, &frame,
            &consumed, &error);
        if (status == xptc::server::ParseStatus::kNeedMore) break;
        if (status == xptc::server::ParseStatus::kError) {
          Fatal("malformed response frame: " + error);
        }
        c->in.erase(0, consumed);
        if (c->cell < 0) Fatal("response without a request");
        const int64_t now_ns = NowNs();
        last_ns = now_ns;
        if (sending && window_ns > 0 && now_ns - window_start >= window_ns) {
          close_window(now_ns);
        }
        if (sending) ++windows.back().completed;
        OnResponse(c, frame, now_ns, &windows.back(), record_ids);
        --outstanding;
        send_next(c);
      }
    }
  }
  if (sending) {  // the list ran out: the open window ends with it
    windows.back().wall_s = static_cast<double>(last_ns - window_start) * 1e-9;
    windows.back().gen_cpu_s = ThreadCpuSeconds() - cpu_start;
    windows.back().steal_ms = StealMs(steal_cpus_) - steal_start;
  }
  return windows;
}

}  // namespace perfbench
