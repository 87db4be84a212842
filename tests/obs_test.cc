// The observability layer (src/obs/): sharded counters, log₂-bucketed
// histograms (boundary exactness + merge under concurrency — this suite is
// part of the clang-tsan surface via the registry/stress paths), the
// process-wide registry with per-instance collectors, snapshot deltas, the
// JSON/Prometheus exporters, and the trace/span facility the EXPLAIN dump
// is built on.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace xptc {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket boundaries.

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  // Bucket 0: everything ≤ 0. Bucket k ≥ 1: [2^(k-1), 2^k).
  EXPECT_EQ(Histogram::BucketFor(-5), 0);
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(7), 3);
  EXPECT_EQ(Histogram::BucketFor(8), 4);
  EXPECT_EQ(Histogram::BucketFor(INT64_MAX), 63);
}

TEST(HistogramTest, EveryBucketsBoundsRoundTripThroughBucketFor) {
  for (int k = 1; k < Histogram::kBuckets; ++k) {
    const int64_t lo = Histogram::BucketLowerBound(k);
    SCOPED_TRACE("bucket " + std::to_string(k));
    EXPECT_EQ(Histogram::BucketFor(lo), k);
    if (k > 1) {
      EXPECT_EQ(Histogram::BucketFor(lo - 1), k - 1);
    }
    const int64_t hi = Histogram::BucketUpperBound(k);
    if (k < 63) {
      EXPECT_EQ(Histogram::BucketFor(hi - 1), k);
      EXPECT_EQ(Histogram::BucketFor(hi), k + 1);
    } else {
      EXPECT_EQ(hi, INT64_MAX);
    }
  }
  // Bucket 0 holds exactly v ≤ 0.
  EXPECT_EQ(Histogram::BucketUpperBound(0), 1);
}

TEST(HistogramTest, ObserveFillsTheRightBucketAndTotals) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(3);
  h.Observe(3);
  h.Observe(1000);  // 2^9 = 512 ≤ 1000 < 1024 = 2^10 → bucket 10
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 1007);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(2), 2);
  EXPECT_EQ(h.bucket(10), 1);
}

TEST(HistogramTest, MergeAddsBucketsCountAndSum) {
  Histogram a, b;
  a.Observe(1);
  a.Observe(100);
  b.Observe(1);
  b.Observe(5);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4);
  EXPECT_EQ(a.sum(), 107);
  EXPECT_EQ(a.bucket(1), 2);
  EXPECT_EQ(a.bucket(3), 1);  // 5 → [4,8)
  EXPECT_EQ(a.bucket(7), 1);  // 100 → [64,128)
}

TEST(HistogramTest, MergeUnderConcurrencyLosesNothing) {
  // The stress harness's invariant, isolated: writer threads observe into
  // thread-local histograms and merge into one shared histogram while other
  // threads are still observing directly into it. After the join, the
  // shared totals must account for every observation exactly once.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  Histogram shared;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &shared] {
      if (t % 2 == 0) {
        // Direct writers: concurrent Observes on the shared histogram.
        for (int i = 0; i < kPerThread; ++i) shared.Observe(i % 97);
      } else {
        // Merge writers: local accumulation, then a merge that races with
        // the direct writers and the other merges.
        Histogram local;
        for (int i = 0; i < kPerThread; ++i) local.Observe(i % 97);
        shared.Merge(local);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(shared.count(), int64_t{kThreads} * kPerThread);
  int64_t bucket_sum = 0;
  int64_t expected_sum = 0;
  for (int k = 0; k < Histogram::kBuckets; ++k) bucket_sum += shared.bucket(k);
  for (int i = 0; i < kPerThread; ++i) expected_sum += i % 97;
  EXPECT_EQ(bucket_sum, shared.count());
  EXPECT_EQ(shared.sum(), expected_sum * kThreads);
}

// ---------------------------------------------------------------------------
// Counters and gauges.

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), int64_t{kThreads} * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.value(), 7);
}

// ---------------------------------------------------------------------------
// Registry, snapshots, exporters.

TEST(RegistryTest, SameNameReturnsSameMetric) {
  Registry registry;
  Counter& a = registry.counter("test.counter");
  Counter& b = registry.counter("test.counter");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &registry.counter("test.other"));
}

TEST(RegistryTest, CollectSeesMetricsAndCollectors) {
  Registry registry;
  registry.counter("c.one").Add(5);
  registry.gauge("g.depth").Set(3);
  registry.histogram("h.lat").Observe(9);
  {
    auto handle = registry.AddCollector([](Snapshot* snap) {
      snap->AddCounter("c.instance", 11);
      snap->SetGauge("g.instance", 4);
    });
    Snapshot snap = registry.Collect();
    EXPECT_EQ(snap.counters.at("c.one"), 5);
    EXPECT_EQ(snap.counters.at("c.instance"), 11);
    EXPECT_EQ(snap.gauges.at("g.depth"), 3);
    EXPECT_EQ(snap.gauges.at("g.instance"), 4);
    EXPECT_EQ(snap.histograms.at("h.lat").count, 1);
    EXPECT_EQ(snap.histograms.at("h.lat").buckets.at(4), 1);  // 9 → [8,16)
  }
  // Handle destruction retires the collector: its counter contribution
  // survives (process-lifetime totals stay monotonic after the instance
  // dies), while its gauge — a level of a dead instance — drops.
  Snapshot snap = registry.Collect();
  EXPECT_EQ(snap.counters.at("c.instance"), 11);
  EXPECT_EQ(snap.gauges.count("g.instance"), 0u);
}

TEST(RegistryTest, RetiredContributionsAccumulateAcrossInstances) {
  Registry registry;
  for (int i = 0; i < 3; ++i) {
    Histogram lat;
    lat.Observe(5);
    auto handle = registry.AddCollector([&lat](Snapshot* snap) {
      snap->AddCounter("inst.total", 2);
      snap->AddHistogram("inst.lat", lat);
    });
  }  // each instance retires on scope exit
  Snapshot snap = registry.Collect();
  EXPECT_EQ(snap.counters.at("inst.total"), 6);
  EXPECT_EQ(snap.histograms.at("inst.lat").count, 3);
  EXPECT_EQ(snap.histograms.at("inst.lat").buckets.at(3), 3);  // 5 → [4,8)
}

TEST(RegistryTest, CollectorsSumAcrossInstances) {
  // Two "instances" publishing under one registry-level name, the
  // PlanCache/BatchEngine pattern.
  Registry registry;
  auto h1 = registry.AddCollector(
      [](Snapshot* snap) { snap->AddCounter("x.total", 2); });
  auto h2 = registry.AddCollector(
      [](Snapshot* snap) { snap->AddCounter("x.total", 3); });
  EXPECT_EQ(registry.Collect().counters.at("x.total"), 5);
}

TEST(SnapshotTest, DeltaDropsZeroCountersAndIgnoresGauges) {
  Snapshot base, now;
  base.counters["a"] = 3;
  base.counters["b"] = 7;
  now.counters["a"] = 10;
  now.counters["b"] = 7;   // unchanged → dropped
  now.counters["c"] = 1;   // absent from base → counts from zero
  base.gauges["g"] = 5;
  now.gauges["g"] = 9;
  Snapshot delta = now.Delta(base);
  EXPECT_EQ(delta.counters.at("a"), 7);
  EXPECT_EQ(delta.counters.count("b"), 0u);
  EXPECT_EQ(delta.counters.at("c"), 1);
  EXPECT_TRUE(delta.gauges.empty());
}

TEST(SnapshotTest, DeltaSubtractsHistograms) {
  Histogram early, late;
  early.Observe(3);
  late.Observe(3);
  late.Observe(3);
  late.Observe(40);
  Snapshot base, now;
  base.AddHistogram("h", early);
  now.AddHistogram("h", late);
  Snapshot delta = now.Delta(base);
  EXPECT_EQ(delta.histograms.at("h").count, 2);
  EXPECT_EQ(delta.histograms.at("h").sum, 43);  // 46 − 3
  EXPECT_EQ(delta.histograms.at("h").buckets.at(2), 1);   // one extra 3
  EXPECT_EQ(delta.histograms.at("h").buckets.at(6), 1);   // 40 → [32,64)
}

TEST(SnapshotTest, JsonIsDeterministicAndSorted) {
  Registry registry;
  registry.counter("z.last").Inc();
  registry.counter("a.first").Add(2);
  registry.histogram("h.x").Observe(5);
  const std::string json = registry.Json();
  EXPECT_EQ(json, registry.Json());  // stable
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"a.first\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1, \"sum\": 5, \"buckets\": {\"3\": 1}"),
            std::string::npos);
}

TEST(SnapshotTest, PrometheusTextEmitsCumulativeBuckets) {
  Registry registry;
  registry.counter("plan.hits").Add(4);
  Histogram& h = registry.histogram("run.ns");
  h.Observe(1);
  h.Observe(3);
  h.Observe(3);
  const std::string text = registry.PrometheusText();
  // Counters carry the `_total` sample suffix scrapers expect, with a HELP
  // line ahead of the TYPE line.
  EXPECT_NE(text.find("# HELP xptc_plan_hits_total Monotonic counter "
                      "plan.hits\n# TYPE xptc_plan_hits_total counter\n"
                      "xptc_plan_hits_total 4\n"),
            std::string::npos);
  // Buckets are cumulative and le-labelled with inclusive upper bounds.
  EXPECT_NE(text.find("xptc_run_ns_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("xptc_run_ns_bucket{le=\"3\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("xptc_run_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("xptc_run_ns_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("xptc_run_ns_count 3\n"), std::string::npos);
}

TEST(SnapshotTest, PrometheusTextMatchesGolden) {
  // Full-text golden for a small registry: any drift in the exposition
  // format (suffixes, HELP/TYPE ordering, le boundaries) fails loudly
  // here before a scraper ever sees it.
  Registry registry;
  registry.counter("plan.hits").Add(4);
  registry.gauge("queue.depth").Set(2);
  Histogram& h = registry.histogram("run.ns");
  h.Observe(1);
  h.Observe(3);
  h.Observe(3);
  const std::string kGolden =
      "# HELP xptc_plan_hits_total Monotonic counter plan.hits\n"
      "# TYPE xptc_plan_hits_total counter\n"
      "xptc_plan_hits_total 4\n"
      "# HELP xptc_queue_depth Gauge queue.depth\n"
      "# TYPE xptc_queue_depth gauge\n"
      "xptc_queue_depth 2\n"
      "# HELP xptc_run_ns Log2-bucketed histogram run.ns\n"
      "# TYPE xptc_run_ns histogram\n"
      "xptc_run_ns_bucket{le=\"1\"} 1\n"
      "xptc_run_ns_bucket{le=\"3\"} 3\n"
      "xptc_run_ns_bucket{le=\"+Inf\"} 3\n"
      "xptc_run_ns_sum 7\n"
      "xptc_run_ns_count 3\n";
  EXPECT_EQ(registry.PrometheusText(), kGolden);
}

// Promtool-style line validator for text format 0.0.4: HELP before TYPE,
// contiguous families, counter samples suffixed `_total`, histogram
// buckets cumulative with strictly increasing `le` bounds, `+Inf` equal to
// `_count`, trailing newline. Returns every violation found.
std::vector<std::string> LintPrometheusText(const std::string& text) {
  std::vector<std::string> errors;
  if (!text.empty() && text.back() != '\n') {
    errors.push_back("output does not end with a newline");
  }
  auto base_family = [](const std::string& sample) {
    // Strip histogram sample suffixes so bucket/sum/count group with their
    // family; `_total` stays (it is the counter family's sample name).
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t n = std::string(suffix).size();
      if (sample.size() > n &&
          sample.compare(sample.size() - n, n, suffix) == 0) {
        return sample.substr(0, sample.size() - n);
      }
    }
    return sample;
  };
  std::vector<std::string> seen_families;
  std::string cur_family, cur_type;
  bool cur_has_help = false;
  int64_t last_bucket_cumulative = -1;
  int64_t inf_value = -1;
  int64_t count_value = -1;
  long double last_le = -1;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? eol : eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.empty()) continue;
    auto start_family = [&](const std::string& family) {
      if (family == cur_family) return;
      for (const auto& f : seen_families) {
        if (f == family) {
          errors.push_back("family not contiguous: " + family);
        }
      }
      seen_families.push_back(family);
      cur_family = family;
      cur_type.clear();
      cur_has_help = false;
      last_bucket_cumulative = -1;
      inf_value = -1;
      count_value = -1;
      last_le = -1;
    };
    if (line.rfind("# HELP ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      if (sp == std::string::npos) {
        errors.push_back("HELP without text: " + line);
        continue;
      }
      start_family(line.substr(7, sp - 7));
      cur_has_help = true;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      const std::string family = line.substr(7, sp - 7);
      start_family(family);
      if (!cur_has_help) {
        errors.push_back("TYPE before HELP for " + family);
      }
      cur_type = line.substr(sp + 1);
      if (cur_type == "counter" && family.size() >= 6 &&
          family.compare(family.size() - 6, 6, "_total") != 0) {
        errors.push_back("counter family lacks _total suffix: " + family);
      }
      continue;
    }
    if (line[0] == '#') continue;  // other comments are legal
    const size_t brace = line.find('{');
    const size_t sp = line.find(' ', brace == std::string::npos ? 0 : brace);
    if (sp == std::string::npos) {
      errors.push_back("sample line without value: " + line);
      continue;
    }
    const std::string sample =
        line.substr(0, brace == std::string::npos ? sp : brace);
    for (char c : sample) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          c != ':') {
        errors.push_back("bad metric name character in: " + sample);
        break;
      }
    }
    const std::string family = base_family(sample);
    if (family != cur_family) {
      errors.push_back("sample " + sample + " outside its family block");
      start_family(family);
    }
    if (cur_type.empty()) {
      errors.push_back("sample before TYPE: " + sample);
    }
    const int64_t value = std::strtoll(line.c_str() + sp + 1, nullptr, 10);
    if (cur_type == "histogram" && brace != std::string::npos &&
        sample.size() > 7 &&
        sample.compare(sample.size() - 7, 7, "_bucket") == 0) {
      const size_t le_pos = line.find("le=\"");
      if (le_pos == std::string::npos) {
        errors.push_back("bucket without le label: " + line);
        continue;
      }
      const std::string le =
          line.substr(le_pos + 4, line.find('"', le_pos + 4) - le_pos - 4);
      const long double bound =
          le == "+Inf" ? std::numeric_limits<long double>::infinity()
                       : std::strtold(le.c_str(), nullptr);
      if (bound <= last_le) {
        errors.push_back("le bounds not increasing at " + line);
      }
      last_le = bound;
      if (value < last_bucket_cumulative) {
        errors.push_back("buckets not cumulative at " + line);
      }
      last_bucket_cumulative = value;
      if (le == "+Inf") inf_value = value;
      continue;
    }
    if (sample.size() > 6 &&
        sample.compare(sample.size() - 6, 6, "_count") == 0 &&
        cur_type == "histogram") {
      count_value = value;
      if (inf_value < 0) {
        errors.push_back("histogram " + family + " missing +Inf bucket");
      } else if (inf_value != count_value) {
        errors.push_back("histogram " + family + " +Inf != _count");
      }
    }
  }
  return errors;
}

TEST(SnapshotTest, PrometheusTextPassesLint) {
  Registry registry;
  registry.counter("server.admitted").Add(12);
  registry.counter("exec.evals").Add(7);
  registry.gauge("server.conns").Set(3);
  Histogram& h = registry.histogram("server.phase.exec_ns");
  h.Observe(0);
  h.Observe(5);
  h.Observe(1'000'000);
  h.Observe(INT64_MAX);  // top bucket: le must still bound the value
  Histogram& empty = registry.histogram("server.phase.flush_ns");
  (void)empty;
  const std::string text = registry.PrometheusText();
  const std::vector<std::string> errors = LintPrometheusText(text);
  EXPECT_TRUE(errors.empty()) << "lint errors in:\n" << text << "\n--\n"
                              << ::testing::PrintToString(errors);
}

TEST(SnapshotTest, DefaultRegistryExportPassesLint) {
  // The real process-wide registry (every subsystem's metrics, whatever
  // this test binary has touched so far) must also lint clean — this is
  // the closest in-tree stand-in for pointing promtool at /metrics.
  const std::vector<std::string> errors =
      LintPrometheusText(Registry::Default().PrometheusText());
  EXPECT_TRUE(errors.empty()) << ::testing::PrintToString(errors);
}

// ---------------------------------------------------------------------------
// Traces and spans.

TEST(TraceTest, SpansRecordNothingWithoutAnActiveTrace) {
  TraceSpan span("orphan");
  EXPECT_FALSE(span.recording());
  span.Attr("ignored", 1);
  TraceAddCount("ignored", 1);
  TraceNote("ignored");
  EXPECT_EQ(CurrentRequestTrace(), nullptr);
}

TEST(TraceTest, NestedSpansBuildTheTree) {
  RequestTrace trace;
  trace.sampled = true;
  {
    RequestScope scope(1, &trace);
    {
      TraceSpan outer("parse");
      outer.Attr("instrs", 4);
      TraceSpan inner("lower");
      inner.Note("cold");
      TraceAddCount("steps", 2);
      TraceAddCount("steps", 3);
    }
    TraceSpan sibling("exec");
    sibling.Attr("rounds", 1);
  }
  EXPECT_EQ(CurrentRequestTrace(), nullptr);  // scope restored
  const TraceNode& root = trace.root;
  ASSERT_EQ(root.children.size(), 2u);
  const TraceNode& parse = root.children[0];
  EXPECT_EQ(parse.name, "parse");
  ASSERT_EQ(parse.children.size(), 1u);
  EXPECT_EQ(parse.children[0].name, "lower");
  ASSERT_EQ(parse.children[0].attrs.size(), 1u);
  EXPECT_EQ(parse.children[0].attrs[0].second, 5);  // 2 + 3 accumulated
  EXPECT_EQ(parse.children[0].notes.front(), "cold");
  EXPECT_EQ(root.children[1].name, "exec");
}

TEST(TraceTest, ScopesAreReentrant) {
  RequestTrace outer_trace, inner_trace;
  RequestScope outer(1, &outer_trace);
  EXPECT_EQ(CurrentRequestTrace(), &outer_trace);
  {
    RequestScope inner(2, &inner_trace);
    EXPECT_EQ(CurrentRequestTrace(), &inner_trace);
  }
  EXPECT_EQ(CurrentRequestTrace(), &outer_trace);
}

TEST(TraceTest, TextAndJsonRenderingsAreDeterministic) {
  RequestTrace trace;
  trace.sampled = true;
  {
    RequestScope scope(1, &trace);
    TraceSpan span("exec.eval");
    span.Attr("instrs_executed", 7);
    span.Note("dispatch: register_machine");
  }
  std::string text, json, line;
  NodeToText(trace.root, /*with_times=*/false, 0, &text);
  NodeToJson(trace.root, /*with_times=*/false, 0, &json);
  NodeToJson(trace.root, /*with_times=*/false, -1, &line);
  EXPECT_EQ(text,
            "query\n"
            "  exec.eval instrs_executed=7\n"
            "    - dispatch: register_machine\n");
  EXPECT_EQ(json + "\n",
            "{\"name\": \"query\", \"children\": [\n"
            "  {\"name\": \"exec.eval\", \"attrs\": {\"instrs_executed\": 7},"
            " \"notes\": [\"dispatch: register_machine\"]}\n"
            "]}\n");
  // The one-line form (/debug, structured log) is the same tree, compact.
  EXPECT_EQ(line,
            "{\"name\":\"query\",\"children\":[{\"name\":\"exec.eval\","
            "\"attrs\":{\"instrs_executed\":7},"
            "\"notes\":[\"dispatch: register_machine\"]}]}");
}

TEST(TraceTest, SpanCapKeepsTheFirstSpansAndCountsTheRest) {
  RequestTrace trace;
  trace.sampled = true;
  {
    RequestScope scope(1, &trace);
    TraceSpan a("a");
    for (int i = 0; i < kMaxTraceSpans - 2; ++i) TraceSpan filler("filler");
    {
      TraceSpan last("last");  // the cap-th node
      TraceSpan d("d");        // dropped with everything inside it
      TraceNote("lost");
      TraceAddCount("lost", 1);
      { TraceSpan e("e"); }
    }
    TraceNote("kept");  // back on `a` once the dropped span closed
  }
  EXPECT_EQ(trace.span_nodes, kMaxTraceSpans);
  EXPECT_EQ(trace.dropped_spans, 1);  // d; e went with it
  ASSERT_EQ(trace.root.children.size(), 1u);
  const TraceNode& a = trace.root.children[0];
  ASSERT_EQ(a.children.size(), static_cast<size_t>(kMaxTraceSpans - 1));
  EXPECT_EQ(a.children.back().name, "last");
  EXPECT_TRUE(a.children.back().empty());  // d's note and count discarded
  EXPECT_EQ(a.notes, std::vector<std::string>{"kept"});
}

TEST(TraceTest, ScopeCarriesTheFlightIdWithOrWithoutATrace) {
  EXPECT_EQ(CurrentFlightId(), 0u);
  {
    RequestScope untraced(0x77, nullptr);
    EXPECT_EQ(CurrentFlightId(), 0x77u);
    EXPECT_EQ(CurrentTraceNode(), nullptr);
    TraceSpan span("orphan");
    EXPECT_FALSE(span.recording());
  }
  EXPECT_EQ(CurrentFlightId(), 0u);
}

TEST(TraceTest, UnsampledTraceIsCurrentButRecordsNoSpans) {
  // A trace built only for the completion log: the service still finds it
  // (worker spans), but the engine's span sites stay off.
  RequestTrace trace;
  {
    RequestScope scope(0x78, &trace);
    EXPECT_EQ(CurrentRequestTrace(), &trace);
    EXPECT_EQ(CurrentTraceNode(), nullptr);
    TraceSpan span("exec.eval");
    EXPECT_FALSE(span.recording());
    TraceNote("ignored");
  }
  EXPECT_TRUE(trace.root.empty());
  EXPECT_EQ(trace.span_nodes, 0);
  EXPECT_EQ(trace.dropped_spans, 0);
}

TEST(TraceTest, FlameHistogramObservedEvenWithoutTrace) {
  Histogram flame;
  { TraceSpan span("timed", &flame); }
#if XPTC_OBS
  // Timing on: the span observed one (non-negative) elapsed value.
  EXPECT_EQ(flame.count(), 1);
#else
  // Timing compiled out: the flame path must cost nothing.
  EXPECT_EQ(flame.count(), 0);
#endif
}

}  // namespace
}  // namespace obs
}  // namespace xptc
