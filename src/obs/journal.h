#ifndef XPTC_OBS_JOURNAL_H_
#define XPTC_OBS_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace xptc {
namespace obs {

/// The serving path's post-mortem event journal: one fixed-size ring of
/// binary records per thread, written lock-free by the owning thread and
/// readable by anyone (including a crash-signal handler). It is cheap
/// enough to leave on everywhere — a record is one TLS load, one relaxed
/// branch, a 32-byte store, and a release head bump — so after a SIGSEGV,
/// a SIGABRT, or an overload collapse the last ~64k events of every thread
/// are still there, in per-thread program order.
///
/// Consistency model: each ring is single-writer (its owner thread).
/// Readers walk rings concurrently and may observe a torn record at the
/// write frontier; the decoder tolerates that (a flight recorder trades
/// the last instant for never perturbing the flight). Within one thread,
/// record order IS event order; across threads, `ts_ns` orders events on
/// one monotonic clock.

/// Event codes. The `arg` meaning is per-code (bytes, a seq, a count, …).
enum class JournalCode : uint32_t {
  kNone = 0,
  kAccept = 1,         // arg = connection id
  kParse = 2,          // arg = connection id
  kParseError = 3,     // arg = connection id
  kAdmit = 4,          // arg = queue depth after push
  kShed = 5,           // arg = connection id
  kDrainingReject = 6, // arg = connection id
  kInlineReply = 7,    // arg = response bytes
  kWorkerPop = 8,      // arg = queue wait ns
  kExecStart = 9,      // arg = worker id
  kExecEnd = 10,       // arg = exec ns
  kEncode = 11,        // arg = response bytes
  kFlushStart = 12,    // arg = connection id
  kFlushEnd = 13,      // arg = flush ns
  kConnClose = 14,     // arg = connection id
  kDeadlineQueue = 15, // arg = ns past deadline
  kDeadlineExec = 16,  // arg = star rounds used when abandoned
  kBatchTask = 17,     // arg = (tree_id << 16) | query index
  kDrain = 18,         // arg = connections still open
  kCrash = 19,         // arg = signal number (written by the crash handler)
  kMark = 20,          // arg = caller-defined (tests, tools)
};

/// Stable lowercase name for a code ("exec_start", …); "?" when unknown.
const char* JournalCodeName(uint32_t code);

/// One journal record: 32 bytes, plain data, written in place in the ring
/// and memcpy'd verbatim into dumps (same-machine decode; the dump header
/// carries the record size so foreign decoders can at least skip).
struct JournalRecord {
  int64_t ts_ns = 0;        // obs::NowNs clock
  uint64_t request_id = 0;  // flight id, 0 = not request-scoped
  uint64_t arg = 0;
  uint32_t code = 0;  // JournalCode
  uint32_t seq = 0;   // per-thread write counter (mod 2^32): order witness
};
static_assert(sizeof(JournalRecord) == 32, "journal records are 32 bytes");

class Journal {
 public:
  /// Appends one record to the calling thread's ring (allocating and
  /// registering the ring on the thread's first event). No-op while
  /// disabled. `request_id` 0 means "use the thread's current flight id"
  /// (the enclosing obs::RequestScope) — pass kNoRequest to force 0.
  /// `ts_ns` 0 reads the clock; call sites that just read it for phase
  /// timing pass their timestamp instead, so a hot-path event costs one
  /// clock read, not two.
  static void Record(JournalCode code, uint64_t arg, uint64_t request_id = 0,
                     int64_t ts_ns = 0);
  static constexpr uint64_t kNoRequest = ~uint64_t{0};

  /// Global on/off (default on). Toggling off stops new records; existing
  /// rings keep their contents.
  static void SetEnabled(bool on);
  static bool enabled();

  /// Records per thread ring: 65,536 (2 MiB of 32-byte records).
  static size_t ring_capacity();

  /// Serialises every ring, oldest record first per thread (see the dump
  /// format in journal.cc). Safe to call from any thread while writers run.
  static std::string DumpBinary();

  /// Async-signal-safe dump: only write(2), no allocation, no locks.
  /// Returns 0 on success, -1 on a write error.
  static int DumpToFd(int fd);

  /// Installs SIGSEGV/SIGBUS/SIGABRT handlers that append a kCrash record,
  /// dump every ring to `path` (O_TRUNC), and re-raise with the default
  /// disposition. `path` is copied into static storage (truncated at 511
  /// bytes). Idempotent; later calls just update the path.
  static void InstallCrashHandler(const std::string& path);

  /// Drops every registered ring's contents (heads reset to zero). Test
  /// and bench seam; not safe concurrently with writers on other threads.
  static void ResetForTesting();
};

/// A decoded journal dump: per-thread record vectors, oldest first, in the
/// order the threads registered.
struct JournalDump {
  std::vector<std::vector<JournalRecord>> threads;
};

/// Decodes `DumpBinary`/`DumpToFd` output. Bounds-checked; tolerates a
/// truncated final thread block (crash mid-write) by dropping it.
Result<JournalDump> ParseJournalDump(const std::string& bytes);

/// Renders a dump as JSON (the /debug/journal body): thread arrays of
/// {ts_ns, request_id (hex), code, arg, seq} objects, oldest first.
std::string JournalDumpToJson(const JournalDump& dump);

}  // namespace obs
}  // namespace xptc

#endif  // XPTC_OBS_JOURNAL_H_
