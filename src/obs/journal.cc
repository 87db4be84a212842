#include "obs/journal.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/trace.h"

namespace xptc {
namespace obs {

namespace {

// ---------------------------------------------------------------------------
// Ring storage.
//
// Rings live in a fixed global slot array so the crash handler can walk
// them without taking a lock: registration is a fetch_add on the slot
// count plus a release store of the pointer, and readers load the count
// with acquire. Rings are never freed. A thread that exits releases its
// ring back to a free pool (an atomic flag), and the next new recording
// thread reuses it with the head reset — so steady-state memory is
// bounded by the *concurrent* recording-thread high-water mark, not by
// the number of threads ever started (server tests start hundreds).
// ---------------------------------------------------------------------------

constexpr int kMaxRings = 256;

struct ThreadRing {
  std::atomic<uint64_t> head{0};  // total records ever written (mod 2^64)
  std::atomic<bool> in_use{false};
  uint64_t mask = 0;  // capacity - 1 (capacity is a power of two)
  JournalRecord* records = nullptr;
};

std::atomic<ThreadRing*> g_rings[kMaxRings];
std::atomic<int> g_ring_count{0};
std::atomic<bool> g_enabled{true};

constexpr size_t kRingCapacity = 65536;  // a power of two

ThreadRing* AcquireRing() {
  // Prefer recycling a ring whose owner thread has exited.
  const int n = g_ring_count.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    ThreadRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    bool expected = false;
    if (ring->in_use.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
      ring->head.store(0, std::memory_order_release);
      return ring;
    }
  }
  const int slot = g_ring_count.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= kMaxRings) {
    g_ring_count.store(kMaxRings, std::memory_order_release);
    return nullptr;
  }
  auto* ring = new ThreadRing();
  ring->mask = kRingCapacity - 1;
  ring->records = new JournalRecord[kRingCapacity]();
  ring->in_use.store(true, std::memory_order_relaxed);
  g_rings[slot].store(ring, std::memory_order_release);
  return ring;
}

// Releases the ring on thread exit so the next thread can recycle it.
struct RingHolder {
  ThreadRing* ring = nullptr;
  bool tried = false;
  ~RingHolder() {
    if (ring != nullptr) ring->in_use.store(false, std::memory_order_release);
  }
};

thread_local RingHolder t_ring;

ThreadRing* CurrentRing() {
  RingHolder& holder = t_ring;
  if (holder.ring == nullptr && !holder.tried) {
    holder.tried = true;  // a full slot table is not retried every event
    holder.ring = AcquireRing();
  }
  return holder.ring;
}

// ---------------------------------------------------------------------------
// Dump format (little-endian, same-machine decode):
//   u8  magic[8] = "XPTCJNL1"
//   u32 record_size (= sizeof(JournalRecord))
//   u32 num_threads
//   per thread:
//     u32 thread_index (registration slot)
//     u32 record_count
//     JournalRecord × record_count, oldest first (verbatim struct bytes)
// ---------------------------------------------------------------------------

constexpr char kDumpMagic[8] = {'X', 'P', 'T', 'C', 'J', 'N', 'L', '1'};

void PutU32Raw(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

// The two contiguous chunks of a ring, oldest records first. `head` is a
// snapshot: concurrent writers may tear records near the frontier, which
// the flight-recorder contract tolerates.
struct RingChunks {
  const JournalRecord* p1;
  uint64_t n1;
  const JournalRecord* p2;
  uint64_t n2;
};

RingChunks ChunksOf(const ThreadRing& ring, uint64_t head) {
  const uint64_t cap = ring.mask + 1;
  RingChunks c{nullptr, 0, nullptr, 0};
  if (head <= cap) {
    c.p1 = ring.records;
    c.n1 = head;
  } else {
    const uint64_t start = head & ring.mask;
    c.p1 = ring.records + start;
    c.n1 = cap - start;
    c.p2 = ring.records;
    c.n2 = start;
  }
  return c;
}

// write(2) until done; async-signal-safe.
int FullWrite(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t w = ::write(fd, p, len);
    if (w < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    p += w;
    len -= static_cast<size_t>(w);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Crash handler.
// ---------------------------------------------------------------------------

char g_crash_path[512] = {0};

void CrashHandler(int sig) {
  // Attribute the crash in the faulting thread's own ring when it already
  // has one (allocating a ring here would not be signal-safe).
  if (t_ring.ring != nullptr && g_enabled.load(std::memory_order_relaxed)) {
    ThreadRing* ring = t_ring.ring;
    const uint64_t h = ring->head.load(std::memory_order_relaxed);
    JournalRecord& rec = ring->records[h & ring->mask];
    rec.ts_ns = 0;  // NowNs() is not guaranteed signal-safe; 0 marks it
    rec.request_id = CurrentFlightId();
    rec.arg = static_cast<uint64_t>(sig);
    rec.code = static_cast<uint32_t>(JournalCode::kCrash);
    rec.seq = static_cast<uint32_t>(h);
    ring->head.store(h + 1, std::memory_order_release);
  }
  const int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    Journal::DumpToFd(fd);
    ::close(fd);
  }
  // SA_RESETHAND restored the default disposition; re-raise terminates
  // with the original signal so exit status and core behaviour survive.
  ::raise(sig);
}

}  // namespace

const char* JournalCodeName(uint32_t code) {
  switch (static_cast<JournalCode>(code)) {
    case JournalCode::kNone: return "none";
    case JournalCode::kAccept: return "accept";
    case JournalCode::kParse: return "parse";
    case JournalCode::kParseError: return "parse_error";
    case JournalCode::kAdmit: return "admit";
    case JournalCode::kShed: return "shed";
    case JournalCode::kDrainingReject: return "draining_reject";
    case JournalCode::kInlineReply: return "inline_reply";
    case JournalCode::kWorkerPop: return "worker_pop";
    case JournalCode::kExecStart: return "exec_start";
    case JournalCode::kExecEnd: return "exec_end";
    case JournalCode::kEncode: return "encode";
    case JournalCode::kFlushStart: return "flush_start";
    case JournalCode::kFlushEnd: return "flush_end";
    case JournalCode::kConnClose: return "conn_close";
    case JournalCode::kDeadlineQueue: return "deadline_queue";
    case JournalCode::kDeadlineExec: return "deadline_exec";
    case JournalCode::kBatchTask: return "batch_task";
    case JournalCode::kDrain: return "drain";
    case JournalCode::kCrash: return "crash";
    case JournalCode::kMark: return "mark";
  }
  return "?";
}

void Journal::Record(JournalCode code, uint64_t arg, uint64_t request_id,
                     int64_t ts_ns) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadRing* ring = CurrentRing();
  if (ring == nullptr) return;
  const uint64_t h = ring->head.load(std::memory_order_relaxed);
  JournalRecord& rec = ring->records[h & ring->mask];
  rec.ts_ns = ts_ns != 0 ? ts_ns : NowNs();
  rec.request_id = request_id == 0 ? CurrentFlightId()
                   : request_id == kNoRequest ? 0
                                              : request_id;
  rec.arg = arg;
  rec.code = static_cast<uint32_t>(code);
  rec.seq = static_cast<uint32_t>(h);
  ring->head.store(h + 1, std::memory_order_release);
}

void Journal::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Journal::enabled() { return g_enabled.load(std::memory_order_relaxed); }

size_t Journal::ring_capacity() { return kRingCapacity; }

std::string Journal::DumpBinary() {
  std::string out(kDumpMagic, sizeof(kDumpMagic));
  PutU32Raw(&out, sizeof(JournalRecord));
  const int n = g_ring_count.load(std::memory_order_acquire);
  const int usable = n > kMaxRings ? kMaxRings : n;
  int present = 0;
  for (int i = 0; i < usable; ++i) {
    if (g_rings[i].load(std::memory_order_acquire) != nullptr) ++present;
  }
  PutU32Raw(&out, static_cast<uint32_t>(present));
  for (int i = 0; i < usable; ++i) {
    const ThreadRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const RingChunks c = ChunksOf(*ring, head);
    PutU32Raw(&out, static_cast<uint32_t>(i));
    PutU32Raw(&out, static_cast<uint32_t>(c.n1 + c.n2));
    out.append(reinterpret_cast<const char*>(c.p1),
               c.n1 * sizeof(JournalRecord));
    if (c.n2 != 0) {
      out.append(reinterpret_cast<const char*>(c.p2),
                 c.n2 * sizeof(JournalRecord));
    }
  }
  return out;
}

int Journal::DumpToFd(int fd) {
  if (FullWrite(fd, kDumpMagic, sizeof(kDumpMagic)) != 0) return -1;
  uint32_t header[2] = {sizeof(JournalRecord), 0};
  const int n = g_ring_count.load(std::memory_order_acquire);
  const int usable = n > kMaxRings ? kMaxRings : n;
  uint32_t present = 0;
  for (int i = 0; i < usable; ++i) {
    if (g_rings[i].load(std::memory_order_acquire) != nullptr) ++present;
  }
  header[1] = present;
  if (FullWrite(fd, header, sizeof(header)) != 0) return -1;
  for (int i = 0; i < usable; ++i) {
    const ThreadRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const RingChunks c = ChunksOf(*ring, head);
    uint32_t thead[2] = {static_cast<uint32_t>(i),
                         static_cast<uint32_t>(c.n1 + c.n2)};
    if (FullWrite(fd, thead, sizeof(thead)) != 0) return -1;
    if (FullWrite(fd, c.p1, c.n1 * sizeof(JournalRecord)) != 0) return -1;
    if (c.n2 != 0 &&
        FullWrite(fd, c.p2, c.n2 * sizeof(JournalRecord)) != 0) {
      return -1;
    }
  }
  return 0;
}

void Journal::InstallCrashHandler(const std::string& path) {
  std::strncpy(g_crash_path, path.c_str(), sizeof(g_crash_path) - 1);
  g_crash_path[sizeof(g_crash_path) - 1] = '\0';
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = CrashHandler;
  // SA_RESETHAND: one shot — a second fault inside the handler terminates
  // instead of recursing. SA_NODEFER is deliberately absent.
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGBUS, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
}

void Journal::ResetForTesting() {
  const int n = g_ring_count.load(std::memory_order_acquire);
  const int usable = n > kMaxRings ? kMaxRings : n;
  for (int i = 0; i < usable; ++i) {
    ThreadRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring != nullptr) ring->head.store(0, std::memory_order_release);
  }
}

Result<JournalDump> ParseJournalDump(const std::string& bytes) {
  const char* p = bytes.data();
  size_t left = bytes.size();
  auto read_u32 = [&](uint32_t* out) {
    if (left < 4) return false;
    std::memcpy(out, p, 4);
    p += 4;
    left -= 4;
    return true;
  };
  if (left < sizeof(kDumpMagic) ||
      std::memcmp(p, kDumpMagic, sizeof(kDumpMagic)) != 0) {
    return Status::InvalidArgument("journal dump: bad magic");
  }
  p += sizeof(kDumpMagic);
  left -= sizeof(kDumpMagic);
  uint32_t record_size = 0, num_threads = 0;
  if (!read_u32(&record_size) || !read_u32(&num_threads)) {
    return Status::InvalidArgument("journal dump: truncated header");
  }
  if (record_size != sizeof(JournalRecord)) {
    return Status::InvalidArgument("journal dump: record size mismatch (" +
                                   std::to_string(record_size) + ")");
  }
  JournalDump dump;
  for (uint32_t t = 0; t < num_threads; ++t) {
    uint32_t index = 0, count = 0;
    if (!read_u32(&index) || !read_u32(&count)) break;  // crash mid-write
    const uint64_t need = uint64_t{count} * sizeof(JournalRecord);
    std::vector<JournalRecord> records;
    if (need > left) {
      // Truncated final block: keep the whole records that made it out.
      const size_t whole = left / sizeof(JournalRecord);
      records.resize(whole);
      // An empty vector's data() may be null, and memcpy to null is UB even
      // for zero bytes.
      if (whole != 0) {
        std::memcpy(records.data(), p, whole * sizeof(JournalRecord));
      }
      dump.threads.push_back(std::move(records));
      break;
    }
    records.resize(count);
    if (count != 0) std::memcpy(records.data(), p, need);
    p += need;
    left -= need;
    dump.threads.push_back(std::move(records));
  }
  return dump;
}

std::string JournalDumpToJson(const JournalDump& dump) {
  std::string out = "{\"ring_capacity\":" +
                    std::to_string(Journal::ring_capacity()) +
                    ",\"threads\":[";
  for (size_t t = 0; t < dump.threads.size(); ++t) {
    if (t > 0) out += ",";
    out += "{\"thread\":" + std::to_string(t) + ",\"events\":[";
    for (size_t i = 0; i < dump.threads[t].size(); ++i) {
      const JournalRecord& r = dump.threads[t][i];
      if (i > 0) out += ",";
      char id_hex[20];
      std::snprintf(id_hex, sizeof(id_hex), "%016llx",
                    static_cast<unsigned long long>(r.request_id));
      out += "{\"ts_ns\":" + std::to_string(r.ts_ns) + ",\"request_id\":\"" +
             id_hex + "\",\"code\":\"" + JournalCodeName(r.code) +
             "\",\"arg\":" + std::to_string(r.arg) +
             ",\"seq\":" + std::to_string(r.seq) + "}";
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

}  // namespace obs
}  // namespace xptc
