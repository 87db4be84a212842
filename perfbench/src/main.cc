// Serving benchmark: an in-process QueryServer over one QueryService,
// driven over loopback with the binary protocol by one load-generator
// thread. See METRICS.md for the workloads and every metric.
//
//   perfbench --workload hot_point|cold_compile|big_batch --seed N
//             --seconds S --trace 0|1 [--hash-only]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// --hash-only prints the input and reference hashes and exits. The last
// stdout line is the result object; the line before it holds the run
// context (and, with --trace 1, each metric's sample count).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/simd.h"
#include "host.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "replay.h"
#include "server/server.h"
#include "server/service.h"
#include "stats.h"
#include "workload.h"
#include "xpath/axis_kernels.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-ups per untraced run: at least kMinSetups and kSetupSeconds of them,
// at most kMaxSetups. setup_s is the median of those without host steal
// when there are kMinSetups of them, else of all.
constexpr int kMinSetups = 9;
constexpr int kMaxSetups = 41;
constexpr double kSetupSeconds = 2.0;
constexpr double kSoloShare = 0.3;   // of --seconds; the rest is loaded
// Steal filter: legs run in kWindowS windows, and a window in which the
// host stole any CPU time is set aside as long as clean windows can cover
// the leg; a leg runs at most its cap factor × its target length looking
// for them. One 10 ms steal tick in a 0.5 s window already marks a
// contended stretch: cold_compile's solo p50 read 813 µs over windows
// without steal, 1009 µs with one tick and 1256 µs with four or more. The
// short solo leg, the most sensitive, gets the longer search.
constexpr double kWindowS = 0.5;
constexpr double kCapFactor = 2.5;
constexpr double kSoloCapFactor = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool hash_only = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "hot_point|cold_compile|big_batch --seed N --seconds S "
               "--trace 0|1 [--hash-only]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--hash-only") {
      a.hash_only = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing flag value");
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v);
    else if (flag == "--trace") a.trace = std::atoi(v);
    else Usage("unknown flag");
  }
  if (a.seconds <= 0) Usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  return a;
}

/// Minimal JSON object writer; numbers keep all their digits.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  Json& Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The server under test and the service it serves.
struct Server {
  std::unique_ptr<xptc::server::QueryService> service;
  std::unique_ptr<xptc::server::QueryServer> server;
};

/// Drains the server, then drops the service it served.
void TearDown(Server* s) {
  s->server.reset();
  s->service.reset();
}

/// Corpus ingest plus server start — what `setup_s` times.
Server SetUp(const Workload& w, int workers) {
  Server s;
  xptc::server::ServiceOptions options;
  options.num_workers = workers;
  s.service = std::make_unique<xptc::server::QueryService>(options);
  for (const std::string& xml : w.xml) {
    auto id = s.service->AddTreeXml(xml);
    if (!id.ok()) {
      std::fprintf(stderr, "perfbench: AddTreeXml: %s\n",
                   id.status().ToString().c_str());
      std::exit(1);
    }
  }
  s.server = std::make_unique<xptc::server::QueryServer>(s.service.get());
  const xptc::Status started = s.server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: server Start: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }
  return s;
}

/// The phase record the completion log keeps of each traced request.
struct TraceRecord {
  uint64_t id = 0;
  int64_t phase_ns[xptc::obs::kNumPhases] = {};
};

int64_t Delta(const xptc::obs::Snapshot& d, const std::string& name) {
  auto it = d.counters.find(name);
  return it == d.counters.end() ? 0 : it->second;
}

/// Per-layer metrics from the traced legs: phase records matched to the
/// wire latencies of the kept windows by trace id, and the registry
/// counter delta `d` over the legs' `requests` requests.
void ServedLayers(const std::vector<TraceRecord>& records, const Window& kept,
                  int64_t requests, const xptc::obs::Snapshot& d,
                  Layers* out) {
  std::unordered_map<uint64_t, int64_t> wire;
  for (const auto& [id, ns] : kept.traced) wire[id] = ns;
  using xptc::obs::Phase;
  std::vector<double> phase_us[xptc::obs::kNumPhases];
  std::vector<double> coverage;
  for (const TraceRecord& r : records) {
    auto it = wire.find(r.id);
    if (it == wire.end()) continue;
    int64_t sum = 0;
    for (int p = 0; p < xptc::obs::kNumPhases; ++p) {
      phase_us[p].push_back(static_cast<double>(r.phase_ns[p]) / 1e3);
      sum += r.phase_ns[p];
    }
    coverage.push_back(static_cast<double>(sum) / static_cast<double>(it->second));
  }
  auto phase = [&](Phase p) { return phase_us[static_cast<int>(p)]; };
  PutQuantiles(out, "server.parse_us", phase(Phase::kParse), false);
  PutQuantiles(out, "server.queue_us", phase(Phase::kQueue), true);
  PutQuantiles(out, "server.exec_us", phase(Phase::kExec), true);
  PutQuantiles(out, "server.encode_us", phase(Phase::kEncode), false);
  PutQuantiles(out, "server.flush_us", phase(Phase::kFlush), false);
  PutQuantiles(out, "server.phase_coverage", coverage, true);
  const double reqs = static_cast<double>(requests);
  (*out)["server.shed_frac"] = Ratio(Delta(d, "server.shed"), reqs);

  const int64_t hits = Delta(d, "plan_cache.hits");
  const int64_t misses = Delta(d, "plan_cache.misses");
  const int64_t phits = Delta(d, "plan_cache.program_hits");
  const int64_t pmisses = Delta(d, "plan_cache.program_misses");
  (*out)["plan_cache.text_hit_ratio"] = Ratio(hits, hits + misses);
  (*out)["plan_cache.program_hit_ratio"] = Ratio(phits, phits + pmisses);
  (*out)["plan_cache.lowering_us_per_miss"] =
      Ratio(Delta(d, "plan_cache.lowering_ns") / 1e3, pmisses);
  (*out)["plan_cache.superopt_us_per_miss"] =
      Ratio(Delta(d, "plan_cache.superopt_ns") / 1e3, pmisses);
  (*out)["plan_cache.evictions_per_req"] =
      Ratio(Delta(d, "plan_cache.evictions"), reqs);

  const double evals = static_cast<double>(Delta(d, "exec.evals"));
  (*out)["exec.instrs_per_eval"] = Ratio(Delta(d, "exec.instrs_executed"), evals);
  (*out)["exec.star_rounds_per_eval"] = Ratio(Delta(d, "exec.star_rounds"), evals);
  (*out)["exec.fallback_ratio"] =
      Ratio(Delta(d, "exec.dispatch.downward_fallback"), evals);

  // Axis images: `dense_path` counts the streamed column kernels; the
  // interval-form axes (desc, dos, foll, prec) take their one-pass
  // interval kernels on either counter.
  int64_t images = 0, dense = 0, interval = 0;
  for (const auto& [name, v] : d.counters) {
    if (name.rfind("axis.", 0) != 0) continue;
    const std::string axis = name.substr(5, name.find('.', 5) - 5);
    images += v;
    if (name.size() > 11 && name.compare(name.size() - 11, 11, ".dense_path") == 0) {
      dense += v;
    }
    if (axis == "desc" || axis == "dos" || axis == "foll" || axis == "prec") {
      interval += v;
    }
  }
  (*out)["axis.dense_ratio"] = Ratio(dense, images);
  (*out)["axis.interval_ratio"] = Ratio(interval, images);

  // W memo lookups: an engine's own scratch (L1) answers repeats before
  // the shared TreeCache (L2) is asked, so both levels count as hits.
  const int64_t whits =
      Delta(d, "eval.within_l1_hits") + Delta(d, "eval.within_l2_hits");
  const int64_t wcomputed = Delta(d, "eval.within_computed");
  (*out)["tree_cache.within_hit_ratio"] = Ratio(whits, whits + wcomputed);
  (*out)["tree_cache.label_builds_per_req"] =
      Ratio(Delta(d, "tree_cache.label_builds"), reqs);
}

/// One measured leg of a run.
struct Leg {
  Window kept;  // the windows the metrics are computed from, merged
  Window all;   // every window, for correctness totals
  int windows = 0;
  int kept_windows = 0;
};

/// Whether the host stole no CPU time from the benchmark in the window.
bool Clean(const Window& w) { return w.steal_ms <= 0; }

/// Runs `active` connections in kWindowS windows until `target_s` of clean
/// windows are in hand or `cap_s` has passed. Keeps the clean windows when
/// they cover the target, else the cleanest windows (least steal per
/// second) that do.
Leg Measure(LoadGen* gen, int active, double target_s, double cap_s,
            bool record_ids) {
  const std::vector<Window> ws = gen->RunStream(
      active, kWindowS, record_ids, [&](const std::vector<Window>& sofar) {
        double clean = 0, total = 0;
        for (const Window& w : sofar) {
          total += w.wall_s;
          if (Clean(w)) clean += w.wall_s;
        }
        return clean < target_s && total < cap_s;
      });
  std::vector<size_t> order(ws.size());
  for (size_t i = 0; i < ws.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ws[a].steal_ms / ws[a].wall_s < ws[b].steal_ms / ws[b].wall_s;
  });
  Leg leg;
  leg.windows = static_cast<int>(ws.size());
  for (const Window& w : ws) leg.all.Merge(w);
  for (size_t i : order) {
    if (leg.kept.wall_s >= target_s && !Clean(ws[i])) break;
    leg.kept.Merge(ws[i]);
    ++leg.kept_windows;
  }
  return leg;
}

struct Metric {
  const char* name;
  const char* unit;
};

// The per-layer metric names, in BENCHMARK.json order.
const Metric kPerLayer[] = {
    {"server.parse_us.p50", "us"},
    {"server.queue_us.p50", "us"},
    {"server.queue_us.p90", "us"},
    {"server.exec_us.p50", "us"},
    {"server.exec_us.p90", "us"},
    {"server.encode_us.p50", "us"},
    {"server.flush_us.p50", "us"},
    {"server.phase_coverage.p50", "ratio"},
    {"server.phase_coverage.p90", "ratio"},
    {"server.shed_frac", "ratio"},
    {"protocol.decode_us.p50", "us"},
    {"protocol.encode_us.p50", "us"},
    {"protocol.resp_bytes.mean", "B"},
    {"plan_cache.text_hit_ratio", "ratio"},
    {"plan_cache.program_hit_ratio", "ratio"},
    {"plan_cache.hit_us.p50", "us"},
    {"plan_cache.miss_us.p50", "us"},
    {"plan_cache.miss_us.p90", "us"},
    {"plan_cache.lowering_us_per_miss", "us"},
    {"plan_cache.superopt_us_per_miss", "us"},
    {"plan_cache.evictions_per_req", "count"},
    {"xpath.parse_us.p50", "us"},
    {"xpath.plan_nodes.mean", "count"},
    {"exec.compile_us.p50", "us"},
    {"exec.eval_us.p50", "us"},
    {"exec.eval_us.p90", "us"},
    {"exec.ns_per_node", "ns"},
    {"exec.instrs_per_eval", "count"},
    {"exec.star_rounds_per_eval", "count"},
    {"exec.fallback_ratio", "ratio"},
    {"axis.dense_ratio", "ratio"},
    {"axis.interval_ratio", "ratio"},
    {"batch.task_us.p50", "us"},
    {"batch.task_us.p90", "us"},
    {"batch.utilization", "ratio"},
    {"batch.tasks_per_req", "count"},
    {"tree_cache.within_hit_ratio", "ratio"},
    {"tree_cache.label_builds_per_req", "count"},
    {"tree_cache.crossover_child.min", "count"},
    {"tree_cache.crossover_child.max", "count"},
    {"tree_cache.crossover_parent.min", "count"},
    {"tree_cache.crossover_parent.max", "count"},
    {"tree_cache.build_ms", "ms"},
    {"tree.parse_xml_ns_per_node", "ns"},
    {"obs.trace_overhead_frac", "ratio"},
    {"gen.busy_frac", "ratio"},
    {"host.steal_ms", "ms"},
};

int Run(const Args& args) {
  Kind kind;
  if (!ParseKind(args.workload, &kind)) Usage("unknown --workload");
  const CpuPlan cpus = PlanCpus();
  const int nproc = static_cast<int>(cpus.all_cpus.size());

  Workload w;
  BuildWorkload(kind, args.seed, &w);
  ComputeReferences(&w, nproc);
  const std::string stream_hash = Hex(StreamHash(w));
  const std::string reference_hash = Hex(ReferenceHash(w));
  if (args.hash_only) {
    std::printf("%s\n", Json()
                            .Str("workload", w.name)
                            .Int("seed", static_cast<int64_t>(args.seed))
                            .Str("stream_hash", stream_hash)
                            .Str("reference_hash", reference_hash)
                            .str()
                            .c_str());
    return 0;
  }

  // Set-up on the server CPUs: every thread the service and server spawn
  // (batch pool, reactor, workers) inherits that mask.
  PinCurrentThread(cpus.server_cpus);
  std::vector<double> setup_s, clean_setup_s;
  double setup_total_s = 0;
  Server server;
  const int min_setups = args.trace ? 1 : kMinSetups;
  while (static_cast<int>(setup_s.size()) < min_setups ||
         (!args.trace && setup_total_s < kSetupSeconds &&
          static_cast<int>(setup_s.size()) < kMaxSetups)) {
    TearDown(&server);
    const double steal0 = StealMs(cpus.all_cpus);
    const auto t0 = Clock::now();
    server = SetUp(w, cpus.server_workers);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    setup_s.push_back(s);
    setup_total_s += s;
    if (StealMs(cpus.all_cpus) - steal0 <= 0) clean_setup_s.push_back(s);
  }
  std::vector<double> setup_kept =
      static_cast<int>(clean_setup_s.size()) >= min_setups ? clean_setup_s
                                                           : setup_s;

  PinCurrentThread({cpus.gen_cpu});
  const int conns = nproc;
  LoadGen gen(&w, server.server->port(), conns, cpus.all_cpus);
  Window all = gen.RunList(w.warmup, conns);  // every request, for ok_frac
  if (w.warmup_seconds > 0) {
    for (const Window& win : gen.RunStream(conns, w.warmup_seconds, false,
                                           [](const auto&) { return false; })) {
      all.Merge(win);
    }
  }
  // Read before the timed legs: cold_compile's TreeCaches keep every W
  // result they compute, so later the peak would grow with the requests
  // a leg happens to serve.
  const double rss_mb = PeakRssMb();
  auto measure = [&](int active, double target_s, bool record_ids) {
    const double cap = (active == 1 ? kSoloCapFactor : kCapFactor) * target_s;
    Leg leg = Measure(&gen, active, target_s, cap, record_ids);
    all.Merge(leg.all);
    return leg;
  };

  Layers layers;
  Json result_metrics;
  std::vector<Leg> timed;
  if (args.trace == 0) {
    timed.push_back(measure(1, args.seconds * kSoloShare, false));
    timed.push_back(measure(conns, args.seconds * (1 - kSoloShare), false));
  } else {
    // Untraced, traced, traced, untraced: the traced legs feed the layer
    // metrics, the outer pair is the overhead baseline.
    std::mutex mu;
    std::vector<TraceRecord> records;
    const double quarter = args.seconds / 4;
    timed.push_back(measure(conns, quarter, false));
    xptc::obs::FlightRecorder::Get().SetCompletionLog(
        [&](const xptc::obs::RequestTrace& t) {
          TraceRecord r;
          r.id = t.id;
          std::memcpy(r.phase_ns, t.phase_ns, sizeof(r.phase_ns));
          std::lock_guard<std::mutex> lock(mu);
          records.push_back(r);
        });
    const xptc::obs::Snapshot before = xptc::obs::Registry::Default().Collect();
    timed.push_back(measure(conns, quarter, true));
    timed.push_back(measure(conns, quarter, true));
    const xptc::obs::Snapshot after = xptc::obs::Registry::Default().Collect();
    xptc::obs::FlightRecorder::Get().SetCompletionLog(nullptr);
    timed.push_back(measure(conns, quarter, false));
    Window traced = timed[1].kept;
    traced.Merge(timed[2].kept);
    {
      std::lock_guard<std::mutex> lock(mu);
      ServedLayers(records, traced,
                   timed[1].all.attempted + timed[2].all.attempted,
                   after.Delta(before), &layers);
    }
    Window untraced = timed[0].kept;
    untraced.Merge(timed[3].kept);
    layers["obs.trace_overhead_frac"] = {
        untraced.qps() > 0 ? 1 - traced.qps() / untraced.qps() : 0,
        untraced.completed + traced.completed};
  }
  Window kept;
  int windows = 0, kept_windows = 0;
  double all_steal = 0;
  for (const Leg& leg : timed) {
    kept.Merge(leg.kept);
    all_steal += leg.all.steal_ms;
    windows += leg.windows;
    kept_windows += leg.kept_windows;
  }
  const double busy = kept.wall_s > 0 ? kept.gen_cpu_s / kept.wall_s : 0;
  TearDown(&server);
  const int64_t attempted = all.attempted;
  const int64_t ok = all.ok;
  bool correct = ok == attempted;

  // Each tree's crossovers: the replay's TreeCache calibrations with
  // --trace 1; otherwise a fresh probe per tree, since the service's own
  // caches are private to it.
  std::vector<xptc::axis::Calibration> calibrations;
  bool replay_ok = true;
  if (args.trace) {
    PinCurrentThread(cpus.server_cpus);
    replay_ok = Replay(w, cpus.server_workers, std::max(0.5, args.seconds / 4),
                       &layers, &calibrations);
  } else {
    for (const auto& tree : w.trees) {
      calibrations.push_back(xptc::axis::CalibrateCrossover(*tree));
    }
  }
  std::string crossovers = "[";
  for (size_t t = 0; t < calibrations.size(); ++t) {
    crossovers += (t ? ",[" : "[") +
                  std::to_string(calibrations[t].child_dense_crossover) + "," +
                  std::to_string(calibrations[t].parent_dense_crossover) + "]";
  }
  crossovers += "]";

  Json context;
  context.Str("workload", w.name)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Int("trace", args.trace)
      .Num("seconds", args.seconds)
      .Int("nproc", nproc)
      .Str("server_cpus", CpuListString(cpus.server_cpus))
      .Int("gen_cpu", cpus.gen_cpu)
      .Raw("server_threads", Json()
                                 .Int("reactor", 1)
                                 .Int("workers", cpus.server_workers)
                                 .Int("batch_pool", cpus.server_workers)
                                 .str())
      .Int("generator_threads", 1)
      // Query requests run on the workers and never touch the batch pool;
      // a batch request's worker blocks while the pool runs its tasks. So
      // at most reactor + workers (or pool) + generator threads run.
      .Int("busy_threads_max", 1 + cpus.server_workers + 1)
      .Int("conns", conns)
      .Str("simd", xptc::simd::LevelName(xptc::simd::ActiveLevel()))
      .Num("host.steal_ms", kept.steal_ms)
      .Num("steal_ms_all_windows", all_steal)
      .Int("windows", windows)
      .Int("windows_kept", kept_windows)
      .Num("gen.busy_frac", busy)
      .Str("stream_hash", stream_hash)
      .Str("reference_hash", reference_hash)
      .Str("crossovers_from", args.trace ? "replay" : "probe")
      .Raw("crossovers", crossovers);

  if (args.trace == 0) {
    const Window& solo = timed[0].kept;
    const Window& loaded = timed[1].kept;
    result_metrics
        .Raw("setup_s",
             Json().Num("value", Quantile(&setup_kept, 0.5)).Str("unit", "s").str())
        .Raw("qps", Json().Num("value", loaded.qps()).Str("unit", "1/s").str())
        .Raw("p50_us", Json().Num("value", loaded.latency.QuantileUs(0.5)).Str("unit", "us").str())
        .Raw("p90_us", Json().Num("value", loaded.latency.QuantileUs(0.9)).Str("unit", "us").str())
        .Raw("solo_p50_us",
             Json().Num("value", solo.latency.QuantileUs(0.5)).Str("unit", "us").str())
        .Raw("ok_frac",
             Json().Num("value", attempted ? static_cast<double>(ok) / attempted : 0)
                 .Str("unit", "ratio")
                 .str())
        .Raw("rss_mb", Json().Num("value", rss_mb).Str("unit", "MB").str());
    std::string setup_list = "[";
    for (size_t i = 0; i < setup_s.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.6f", i ? "," : "", setup_s[i]);
      setup_list += buf;
    }
    context.Raw("setup_s", setup_list + "]")
        .Int("setups_clean", static_cast<int64_t>(clean_setup_s.size()))
        .Raw("samples", Json()
                            .Int("setup_s", static_cast<int64_t>(setup_kept.size()))
                            .Int("qps", loaded.completed)
                            .Int("p50_us", loaded.latency.count())
                            .Int("p90_us", loaded.latency.count())
                            .Int("solo_p50_us", solo.latency.count())
                            .Int("ok_frac", attempted)
                            .str());
  } else {
    correct = correct && replay_ok;
    layers["gen.busy_frac"] = {busy, static_cast<int64_t>(timed.size())};
    layers["host.steal_ms"] = {kept.steal_ms, kept_windows};
    Json samples;
    for (const Metric& m : kPerLayer) {
      auto it = layers.find(m.name);
      if (it == layers.end()) {
        std::fprintf(stderr, "perfbench: per-layer metric %s missing\n", m.name);
        return 1;
      }
      result_metrics.Raw(
          m.name, Json().Num("value", it->second.value).Str("unit", m.unit).str());
      samples.Int(m.name, it->second.samples);
    }
    context.Raw("samples", samples.str());
  }

  std::printf("%s\n", Json().Raw("context", context.str()).str().c_str());
  std::printf("%s\n", Json()
                          .Raw("correct", correct ? "true" : "false")
                          .Int("attempted", attempted)
                          .Int("failed", attempted - ok)
                          .Raw("metrics", result_metrics.str())
                          .str()
                          .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
