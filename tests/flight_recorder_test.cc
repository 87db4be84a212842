// The serving-path flight recorder (src/obs/journal.h, src/obs/recorder.h)
// and its BatchEngine bridge: flight-id formats, deterministic sampling,
// the bounded slow log, journal ring semantics (wrap, per-thread order,
// recycling, dump round-trip), and the trace-propagation guarantee across
// the batch pool's fan-out — a merged RequestTrace accounts for every
// (tree, query) cell exactly once while results stay bit-for-bit equal to
// per-tree singles. Also registered as `flight_recorder_tsan` so the
// clang-tsan CI leg runs the multi-threaded journal/sink paths under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/alphabet.h"
#include "common/bitset.h"
#include "exec/program.h"
#include "obs/journal.h"
#include "obs/recorder.h"
#include "tree/xml.h"
#include "workload/batch.h"
#include "workload/plan_cache.h"

namespace xptc {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Flight ids.

TEST(FlightIdTest, FormatParseRoundTrip) {
  for (uint64_t id : {uint64_t{1}, uint64_t{0xdeadbeef},
                      ~uint64_t{0}, uint64_t{0x0123456789abcdefULL}}) {
    uint64_t back = 0;
    ASSERT_TRUE(ParseFlightId(FormatFlightId(id), &back));
    EXPECT_EQ(back, id);
  }
}

TEST(FlightIdTest, ParseIsStrict) {
  uint64_t out = 0;
  EXPECT_TRUE(ParseFlightId("deadbeef", &out));
  EXPECT_EQ(out, 0xdeadbeefu);
  EXPECT_FALSE(ParseFlightId("", &out));
  EXPECT_FALSE(ParseFlightId("0x12", &out));
  EXPECT_FALSE(ParseFlightId("12 ", &out));
  EXPECT_FALSE(ParseFlightId("g", &out));
  EXPECT_FALSE(ParseFlightId("00112233445566778", &out));  // 17 digits
}

TEST(FlightIdTest, DeriveAcceptsHexVerbatimAndHashesTheRest) {
  EXPECT_EQ(DeriveFlightId("deadbeef"), 0xdeadbeefu);
  EXPECT_EQ(DeriveFlightId(""), 0u);
  // Arbitrary client strings map to stable nonzero ids.
  const uint64_t a = DeriveFlightId("req-2026-08-07-client-42");
  EXPECT_NE(a, 0u);
  EXPECT_EQ(a, DeriveFlightId("req-2026-08-07-client-42"));
  EXPECT_NE(a, DeriveFlightId("req-2026-08-07-client-43"));
}

// ---------------------------------------------------------------------------
// Sampling and the slow log.

TEST(FlightRecorderTest, SamplingIsDeterministicAndRoughlyOneInN) {
  FlightRecorder& rec = FlightRecorder::Get();
  const uint32_t saved = rec.sample_every_n();
  rec.SetSampleEveryN(8);
  int sampled = 0;
  for (uint64_t i = 1; i <= 4096; ++i) {
    const bool s = rec.Sampled(i);
    EXPECT_EQ(s, rec.Sampled(i));  // same id, same verdict
    if (s) ++sampled;
  }
  // Splitmix64 over sequential ids: expect 512 ± a wide margin.
  EXPECT_GT(sampled, 4096 / 8 / 2);
  EXPECT_LT(sampled, 4096 / 8 * 2);
  rec.SetSampleEveryN(0);
  EXPECT_FALSE(rec.Sampled(1));
  rec.SetSampleEveryN(1);
  EXPECT_TRUE(rec.Sampled(1));
  rec.SetSampleEveryN(saved);
}

RequestTrace MakeTrace(uint64_t id, int64_t total_ns) {
  RequestTrace trace;
  trace.id = id;
  trace.sampled = true;
  trace.op = "query";
  trace.total_ns = total_ns;
  return trace;
}

TEST(FlightRecorderTest, SlowLogKeepsTopKByTotalNs) {
  FlightRecorder& rec = FlightRecorder::Get();
  rec.Reset();
  const size_t n = FlightRecorder::kSlowLogSize;
  // 2K distinct traces; only the slowest K may survive.
  for (uint64_t i = 1; i <= 2 * n; ++i) {
    rec.Record(MakeTrace(i, static_cast<int64_t>(i) * 1000));
  }
  RequestTrace out;
  EXPECT_FALSE(rec.Lookup(99999, &out));
  // The slowest trace is retrievable; the fastest was evicted from the
  // slow log but may still sit in the recent ring — so probe one older
  // than the ring too.
  EXPECT_TRUE(rec.Lookup(2 * n, &out));
  EXPECT_EQ(out.total_ns, static_cast<int64_t>(2 * n) * 1000);
  const std::string json = rec.SlowJson();
  EXPECT_NE(json.find("\"slow\":["), std::string::npos);
  EXPECT_NE(json.find(FormatFlightId(2 * n)), std::string::npos);
  rec.Reset();
}

TEST(FlightRecorderTest, CompletionLogSeesEveryRecordedTrace) {
  FlightRecorder& rec = FlightRecorder::Get();
  rec.Reset();
  std::vector<uint64_t> seen;
  rec.SetCompletionLog(
      [&seen](const RequestTrace& t) { seen.push_back(t.id); });
  EXPECT_TRUE(rec.completion_log_installed());
  RequestTrace unsampled = MakeTrace(7, 100);
  unsampled.sampled = false;
  rec.Record(std::move(unsampled));
  rec.Record(MakeTrace(8, 200));
  rec.SetCompletionLog(nullptr);
  EXPECT_FALSE(rec.completion_log_installed());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 7u);
  EXPECT_EQ(seen[1], 8u);
  // Unsampled traces reach the log but not the slow log.
  RequestTrace out;
  EXPECT_FALSE(rec.Lookup(7, &out));
  EXPECT_TRUE(rec.Lookup(8, &out));
  rec.Reset();
}

TEST(RequestTraceTest, JsonCarriesPhasesSpansAndNotes) {
  RequestTrace trace = MakeTrace(0xabc, 6000);
  trace.phase_ns[static_cast<int>(Phase::kExec)] = 4000;
  trace.spans.push_back(WorkerSpan{2, 1, 0, 10, 500});
  trace.root.notes.push_back("dispatch: register_machine");
  const std::string json = RequestTraceJson(trace);
  EXPECT_NE(json.find("\"id\":\"" + FormatFlightId(0xabc) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"exec_ns\":4000"), std::string::npos);
  EXPECT_NE(json.find("\"tree\":1"), std::string::npos);
  EXPECT_NE(json.find("dispatch: register_machine"), std::string::npos);
  const std::string text = RequestTraceText(trace);
  EXPECT_NE(text.find("exec"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The event journal.

TEST(JournalTest, RecordsRoundTripThroughDump) {
  Journal::ResetForTesting();
  Journal::Record(JournalCode::kMark, 41, Journal::kNoRequest);
  Journal::Record(JournalCode::kMark, 42, 0x1234);
  {
    RequestScope scope(0x5678, nullptr);
    Journal::Record(JournalCode::kMark, 43);  // picks up the scoped id
  }
  Journal::Record(JournalCode::kMark, 44);  // scope restored: id 0
  auto dump = ParseJournalDump(Journal::DumpBinary());
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  // Find this thread's ring (the one holding arg 41..44 marks).
  const std::vector<JournalRecord>* mine = nullptr;
  for (const auto& t : dump->threads) {
    for (const auto& r : t) {
      if (r.code == static_cast<uint32_t>(JournalCode::kMark) &&
          r.arg == 41) {
        mine = &t;
      }
    }
  }
  ASSERT_NE(mine, nullptr);
  std::vector<const JournalRecord*> marks;
  for (const auto& r : *mine) {
    if (r.code == static_cast<uint32_t>(JournalCode::kMark) && r.arg >= 41 &&
        r.arg <= 44) {
      marks.push_back(&r);
    }
  }
  ASSERT_EQ(marks.size(), 4u);
  EXPECT_EQ(marks[0]->request_id, 0u);       // kNoRequest forces 0
  EXPECT_EQ(marks[1]->request_id, 0x1234u);  // explicit id
  EXPECT_EQ(marks[2]->request_id, 0x5678u);  // scoped id
  EXPECT_EQ(marks[3]->request_id, 0u);       // scope restored
  // Per-thread order: seq strictly increasing, timestamps non-decreasing.
  for (size_t i = 1; i < marks.size(); ++i) {
    EXPECT_EQ(marks[i]->seq, marks[i - 1]->seq + 1);
    EXPECT_GE(marks[i]->ts_ns, marks[i - 1]->ts_ns);
  }
}

TEST(JournalTest, RingWrapKeepsTheNewestRecordsInOrder) {
  Journal::ResetForTesting();
  const size_t cap = Journal::ring_capacity();
  const size_t total = cap + cap / 2;  // wraps half-way around
  for (size_t i = 0; i < total; ++i) {
    Journal::Record(JournalCode::kMark, i, Journal::kNoRequest);
  }
  auto dump = ParseJournalDump(Journal::DumpBinary());
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  const std::vector<JournalRecord>* mine = nullptr;
  for (const auto& t : dump->threads) {
    if (!t.empty() &&
        t.back().code == static_cast<uint32_t>(JournalCode::kMark) &&
        t.back().arg == total - 1) {
      mine = &t;
    }
  }
  ASSERT_NE(mine, nullptr);
  // Full ring, oldest first: the first `cap/2` records were overwritten.
  ASSERT_EQ(mine->size(), cap);
  EXPECT_EQ(mine->front().arg, total - cap);
  for (size_t i = 1; i < mine->size(); ++i) {
    EXPECT_EQ((*mine)[i].arg, (*mine)[i - 1].arg + 1);
    EXPECT_EQ((*mine)[i].seq, (*mine)[i - 1].seq + 1);
  }
}

TEST(JournalTest, ThreadsGetTheirOwnRingsAndOrderSurvivesConcurrency) {
  Journal::ResetForTesting();
  constexpr int kThreads = 8;
  constexpr uint64_t kEach = 5000;
  // Barrier at the end: a thread that exits releases its ring for reuse
  // (that is the recycling design), so every writer must stay alive until
  // all have finished recording for the rings to stay distinct.
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &done] {
      RequestScope scope(0x100 + static_cast<uint64_t>(t), nullptr);
      for (uint64_t i = 0; i < kEach; ++i) {
        Journal::Record(JournalCode::kMark, i);
      }
      done.fetch_add(1);
      while (done.load() < kThreads) std::this_thread::yield();
    });
  }
  for (auto& t : threads) t.join();
  auto dump = ParseJournalDump(Journal::DumpBinary());
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  // Each writer's records live in exactly one ring, in program order.
  std::map<uint64_t, int> rings_per_writer;
  for (const auto& ring : dump->threads) {
    std::map<uint64_t, uint64_t> last_arg;
    for (const auto& r : ring) {
      if (r.code != static_cast<uint32_t>(JournalCode::kMark)) continue;
      if (r.request_id < 0x100 || r.request_id >= 0x100 + kThreads) continue;
      auto it = last_arg.find(r.request_id);
      if (it != last_arg.end()) {
        EXPECT_EQ(r.arg, it->second + 1) << "order broken in a ring";
      } else {
        rings_per_writer[r.request_id]++;
      }
      last_arg[r.request_id] = r.arg;
    }
    for (const auto& [writer, last] : last_arg) {
      EXPECT_EQ(last, kEach - 1) << "writer " << writer << " truncated";
    }
  }
  ASSERT_EQ(rings_per_writer.size(), static_cast<size_t>(kThreads));
  for (const auto& [writer, rings] : rings_per_writer) {
    EXPECT_EQ(rings, 1) << "writer " << writer << " spread across rings";
  }
}

TEST(JournalTest, DisabledJournalRecordsNothing) {
  Journal::ResetForTesting();
  Journal::SetEnabled(false);
  Journal::Record(JournalCode::kMark, 777, Journal::kNoRequest);
  Journal::SetEnabled(true);
  auto dump = ParseJournalDump(Journal::DumpBinary());
  ASSERT_TRUE(dump.ok());
  for (const auto& t : dump->threads) {
    for (const auto& r : t) {
      EXPECT_FALSE(r.code == static_cast<uint32_t>(JournalCode::kMark) &&
                   r.arg == 777);
    }
  }
}

TEST(JournalTest, JsonRenderNamesCodesAndHexesIds) {
  Journal::ResetForTesting();
  Journal::Record(JournalCode::kExecStart, 3, 0xbeef);
  auto dump = ParseJournalDump(Journal::DumpBinary());
  ASSERT_TRUE(dump.ok());
  const std::string json = JournalDumpToJson(*dump);
  EXPECT_NE(json.find("\"exec_start\""), std::string::npos);
  EXPECT_NE(json.find(FormatFlightId(0xbeef)), std::string::npos);
  EXPECT_NE(json.find("\"ring_capacity\""), std::string::npos);
}

TEST(JournalTest, TruncatedDumpDropsOnlyTheTornTail) {
  Journal::ResetForTesting();
  Journal::Record(JournalCode::kMark, 1, Journal::kNoRequest);
  Journal::Record(JournalCode::kMark, 2, Journal::kNoRequest);
  const std::string full = Journal::DumpBinary();
  // A crash can truncate the file mid-record; the decoder keeps whole
  // records and drops the torn tail instead of failing.
  const std::string torn = full.substr(0, full.size() - 7);
  auto dump = ParseJournalDump(torn);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  size_t marks = 0;
  for (const auto& t : dump->threads) {
    for (const auto& r : t) {
      if (r.code == static_cast<uint32_t>(JournalCode::kMark)) ++marks;
    }
  }
  EXPECT_GE(marks, 1u);
  // Garbage up front is a hard error, not a silent empty dump.
  EXPECT_FALSE(ParseJournalDump("not a journal").ok());
}

// ---------------------------------------------------------------------------
// Trace propagation across the BatchEngine fan-out (the tentpole's
// multi-thread stitching): every (tree, query) cell appears in the merged
// span list exactly once, and traced results are bit-for-bit identical to
// untraced per-tree singles.

class BatchTracePropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* const xmls[] = {
        "<a><b><c/><b/></b><c><b/></c></a>",
        "<a><a><a/><b/></a><a><c/></a></a>",
        "<b><c><c><c/></c></c><a/></b>",
        "<c><a><b/><c/></a><b><a/></b></c>",
    };
    for (const char* xml : xmls) {
      auto tree = ParseXml(xml, &alphabet_);
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();
      engine_.AddTree(std::make_shared<const Tree>(std::move(*tree)));
    }
    PlanCache plans(64);
    for (const char* q :
         {"b", "<child[b]>", "<desc[c]>", "<(child|right)*[b]>", "not a"}) {
      auto compiled = plans.ParseCompiled(q, &alphabet_);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      programs_.push_back(compiled->program);
    }
  }

  Alphabet alphabet_;
  BatchEngine engine_{BatchOptions{/*num_workers=*/4}};
  std::vector<std::shared_ptr<const exec::Program>> programs_;
};

TEST_F(BatchTracePropagationTest, MergedSpansCoverEveryCellExactlyOnce) {
  const std::vector<int> trees = {0, 1, 2, 3};
  BatchTraceSink sink(/*request_id=*/0xf11e, engine_.num_workers());
  bool expired = false;
  const auto traced =
      engine_.RunCompiledOnTrees(programs_, trees, /*deadline_ns=*/0,
                                 &expired, &sink);
  EXPECT_FALSE(expired);
  std::vector<WorkerSpan> spans;
  sink.MergeInto(&spans);
  // Exactly one span per (tree, query) cell — no cell lost to a worker
  // buffer, none double-merged.
  ASSERT_EQ(spans.size(), trees.size() * programs_.size());
  std::set<std::pair<int, int>> cells;
  for (const WorkerSpan& s : spans) {
    EXPECT_GE(s.worker, 0);
    EXPECT_LT(s.worker, engine_.num_workers());
    EXPECT_GT(s.start_ns, 0);
    EXPECT_GE(s.elapsed_ns, 0);
    EXPECT_TRUE(cells.emplace(s.tree_id, s.query_index).second)
        << "duplicate span for tree " << s.tree_id << " query "
        << s.query_index;
  }
  for (int t : trees) {
    for (int q = 0; q < static_cast<int>(programs_.size()); ++q) {
      EXPECT_TRUE(cells.count({t, q})) << "missing span for tree " << t
                                       << " query " << q;
    }
  }
  // Bit-for-bit: the traced batch equals untraced per-tree singles.
  for (size_t ti = 0; ti < trees.size(); ++ti) {
    bool single_expired = false;
    const auto single = engine_.RunCompiledOnTrees(
        programs_, {trees[ti]}, 0, &single_expired, nullptr);
    ASSERT_EQ(single.size(), 1u);
    for (size_t q = 0; q < programs_.size(); ++q) {
      EXPECT_TRUE(traced[ti][q] == single[0][q])
          << "tracing changed the answer for tree " << trees[ti]
          << " query " << q;
    }
  }
}

TEST_F(BatchTracePropagationTest, RepeatedTracedRunsStayDeterministic) {
  // The sink path under concurrency: many traced runs, each accounting
  // for all cells (the TSan registration makes this a race hunt too).
  const std::vector<int> trees = {0, 1, 2, 3};
  for (int round = 0; round < 16; ++round) {
    BatchTraceSink sink(static_cast<uint64_t>(round + 1),
                        engine_.num_workers());
    bool expired = false;
    const auto results = engine_.RunCompiledOnTrees(programs_, trees, 0,
                                                    &expired, &sink);
    std::vector<WorkerSpan> spans;
    sink.MergeInto(&spans);
    ASSERT_EQ(spans.size(), trees.size() * programs_.size());
    ASSERT_EQ(results.size(), trees.size());
  }
}

}  // namespace
}  // namespace obs
}  // namespace xptc
