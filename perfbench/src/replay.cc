#include "replay.h"

#include <chrono>
#include <cstdio>
#include <memory>

#include "exec/engine.h"
#include "exec/program.h"
#include "obs/recorder.h"
#include "tree/xml.h"
#include "workload/batch.h"
#include "workload/plan_cache.h"
#include "workload/tree_cache.h"
#include "xpath/engine.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Per-layer samples gathered over the replayed requests.
struct Samples {
  std::vector<double> decode_us, encode_us, resp_bytes;
  std::vector<double> hit_us, miss_us, parse_us, plan_nodes, compile_us;
  std::vector<double> eval_us, task_us;
  double eval_ns_total = 0, eval_nodes_total = 0;
  double task_us_total = 0, batch_wall_us_total = 0;
  int64_t batch_calls = 0;
};

}  // namespace

bool Replay(const Workload& w, int pool_width, double seconds, Layers* out,
            std::vector<xptc::axis::Calibration>* calibrations) {
  // Ingest: XML parse and BatchEngine::AddTree (TreeCache construction
  // with its calibration), timed per tree. The engines use these caches.
  xptc::Alphabet alphabet;
  xptc::BatchEngine batch(xptc::BatchOptions{.num_workers = pool_width});
  double parse_ns = 0, parse_nodes = 0;
  std::vector<double> build_ms;
  std::vector<double> child_cross, parent_cross;
  for (const std::string& xml : w.xml) {
    auto t0 = Clock::now();
    auto tree = xptc::ParseXml(xml, &alphabet);
    parse_ns += 1e3 * UsSince(t0);
    if (!tree.ok()) {
      std::fprintf(stderr, "perfbench: replay ParseXml: %s\n",
                   tree.status().ToString().c_str());
      return false;
    }
    parse_nodes += tree->size();
    auto shared = std::make_shared<const xptc::Tree>(std::move(*tree));
    t0 = Clock::now();
    const int t = batch.AddTree(shared);
    build_ms.push_back(UsSince(t0) / 1e3);
    const xptc::axis::Calibration& cal = batch.tree_cache(t)->calibration();
    calibrations->push_back(cal);
    child_cross.push_back(cal.child_dense_crossover);
    parent_cross.push_back(cal.parent_dense_crossover);
  }
  std::vector<std::unique_ptr<xptc::exec::ExecEngine>> engines;
  for (int t = 0; t < batch.num_trees(); ++t) {
    engines.push_back(std::make_unique<xptc::exec::ExecEngine>(
        batch.tree_cache(t)->tree(), batch.tree_cache(t).get()));
  }

  xptc::PlanCache plan_cache;  // the service's default capacity
  xptc::Alphabet parse_alphabet;
  Samples s;
  bool correct = true;
  uint64_t id = 1;

  // One request through every layer; `timed` false during the warm-up.
  auto replay_one = [&](int cell, bool timed) {
    const std::string frame_bytes =
        EncodeRequest(w, cell, static_cast<uint32_t>(id), id);
    ++id;
    auto t0 = Clock::now();
    xptc::server::Frame frame;
    size_t consumed = 0;
    std::string error;
    const auto status = xptc::server::DecodeFrame(
        frame_bytes.data(), frame_bytes.size(), size_t{1} << 30, &frame,
        &consumed, &error);
    auto request = xptc::server::TranslateFrame(frame);
    const double decode_us = UsSince(t0);
    if (status != xptc::server::ParseStatus::kOk || !request.ok()) {
      std::fprintf(stderr, "perfbench: replay could not decode a request\n");
      correct = false;
      return;
    }

    std::vector<std::shared_ptr<const xptc::exec::Program>> programs;
    for (const std::string& text : request->queries) {
      const size_t misses = plan_cache.stats().misses;
      t0 = Clock::now();
      auto compiled = plan_cache.ParseCompiled(text, &alphabet);
      const double lookup_us = UsSince(t0);
      t0 = Clock::now();
      auto query = xptc::Query::Parse(text, &parse_alphabet);
      const double parse_us = UsSince(t0);
      if (!compiled.ok() || !query.ok()) {
        std::fprintf(stderr, "perfbench: replay could not parse %s\n",
                     text.c_str());
        correct = false;
        return;
      }
      t0 = Clock::now();
      auto program = xptc::exec::Program::Compile(query->plan());
      const double compile_us = UsSince(t0);
      programs.push_back(compiled->program);
      if (timed) {
        (plan_cache.stats().misses > misses ? s.miss_us : s.hit_us)
            .push_back(lookup_us);
        s.parse_us.push_back(parse_us);
        s.plan_nodes.push_back(xptc::NodeSize(*query->plan()));
        s.compile_us.push_back(compile_us);
      }
    }

    // The cells of this request, in response order, and their answers.
    std::vector<int> cells;
    if (w.batch) {
      for (size_t c = 0; c < w.cells.size(); ++c) cells.push_back(static_cast<int>(c));
    } else {
      cells.push_back(cell);
    }
    const int num_trees = static_cast<int>(request->tree_ids.size());
    xptc::server::ServiceResponse resp;
    resp.op = request->op;
    resp.mode = request->mode;
    resp.request_id = request->request_id;
    resp.trace_id = request->trace_id;
    resp.num_queries = static_cast<int>(programs.size());
    resp.results.resize(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell c = w.cells[static_cast<size_t>(cells[i])];
      const int q = w.batch ? static_cast<int>(i) / num_trees : 0;
      xptc::exec::ExecEngine* engine = engines[static_cast<size_t>(c.tree)].get();
      t0 = Clock::now();
      xptc::Bitset bits = engine->Eval(*programs[static_cast<size_t>(q)]);
      const double eval_us = UsSince(t0);
      if (timed) {
        s.eval_us.push_back(eval_us);
        s.eval_ns_total += 1e3 * eval_us;
        s.eval_nodes_total += bits.size();
      }
      const bool same = w.mode == xptc::server::EvalMode::kNodeSet
                            ? SameAsReference(w, cells[i], bits)
                            : bits.Count() == w.ref_count[static_cast<size_t>(cells[i])];
      if (!same) {
        std::fprintf(stderr, "perfbench: replay answer differs on cell %d\n",
                     cells[i]);
        correct = false;
      }
      auto& r = resp.results[i];
      r.tree_id = c.tree;
      r.count = bits.Count();
      if (w.mode == xptc::server::EvalMode::kNodeSet) r.bits = std::move(bits);
    }

    xptc::obs::BatchTraceSink sink(id, batch.num_workers());
    bool expired = false;
    t0 = Clock::now();
    batch.RunCompiledOnTrees(programs, request->tree_ids, 0, &expired, &sink);
    const double batch_us = UsSince(t0);
    std::vector<xptc::obs::WorkerSpan> spans;
    sink.MergeInto(&spans);

    t0 = Clock::now();
    const std::string encoded = xptc::server::EncodeResponseFrame(resp);
    const double encode_us = UsSince(t0);

    if (!timed) return;
    s.decode_us.push_back(decode_us);
    s.encode_us.push_back(encode_us);
    s.resp_bytes.push_back(static_cast<double>(encoded.size()));
    for (const auto& span : spans) {
      s.task_us.push_back(span.elapsed_ns / 1e3);
      s.task_us_total += span.elapsed_ns / 1e3;
    }
    s.batch_wall_us_total += batch_us;
    ++s.batch_calls;
  };

  for (int cell : w.warmup) replay_one(cell, false);
  const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds));
  for (size_t r = 0; Clock::now() < stop && correct; ++r) {
    replay_one(StreamCell(w, r), true);
  }

  PutQuantiles(out, "protocol.decode_us", s.decode_us, false);
  PutQuantiles(out, "protocol.encode_us", s.encode_us, false);
  double bytes = 0;
  for (double b : s.resp_bytes) bytes += b;
  (*out)["protocol.resp_bytes.mean"] =
      Ratio(bytes, static_cast<double>(s.resp_bytes.size()));
  PutQuantiles(out, "plan_cache.hit_us", s.hit_us, false);
  PutQuantiles(out, "plan_cache.miss_us", s.miss_us, true);
  PutQuantiles(out, "xpath.parse_us", s.parse_us, false);
  double nodes = 0;
  for (double n : s.plan_nodes) nodes += n;
  (*out)["xpath.plan_nodes.mean"] =
      Ratio(nodes, static_cast<double>(s.plan_nodes.size()));
  PutQuantiles(out, "exec.compile_us", s.compile_us, false);
  PutQuantiles(out, "exec.eval_us", s.eval_us, true);
  (*out)["exec.ns_per_node"] = {
      s.eval_nodes_total > 0 ? s.eval_ns_total / s.eval_nodes_total : 0,
      static_cast<int64_t>(s.eval_us.size())};
  PutQuantiles(out, "batch.task_us", s.task_us, true);
  (*out)["batch.utilization"] = {
      s.batch_wall_us_total > 0
          ? s.task_us_total / (s.batch_wall_us_total * batch.num_workers())
          : 0,
      s.batch_calls};
  (*out)["batch.tasks_per_req"] =
      Ratio(static_cast<double>(s.task_us.size()), static_cast<double>(s.batch_calls));
  const auto n_trees = static_cast<int64_t>(w.xml.size());
  (*out)["tree_cache.build_ms"] = {Quantile(&build_ms, 0.5), n_trees};
  auto [cmin, cmax] = std::minmax_element(child_cross.begin(), child_cross.end());
  auto [pmin, pmax] = std::minmax_element(parent_cross.begin(), parent_cross.end());
  const auto n_cal = static_cast<int64_t>(child_cross.size());
  (*out)["tree_cache.crossover_child.min"] = {*cmin, n_cal};
  (*out)["tree_cache.crossover_child.max"] = {*cmax, n_cal};
  (*out)["tree_cache.crossover_parent.min"] = {*pmin, n_cal};
  (*out)["tree_cache.crossover_parent.max"] = {*pmax, n_cal};
  (*out)["tree.parse_xml_ns_per_node"] = {parse_ns / parse_nodes, n_trees};
  return correct;
}

}  // namespace perfbench
