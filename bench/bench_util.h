#ifndef XPTC_BENCH_BENCH_UTIL_H_
#define XPTC_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "common/rng.h"
#include "tree/generate.h"
#include "tree/tree.h"
#include "xpath/ast.h"

namespace xptc {
namespace bench {

/// Prints the experiment banner: id, the paper claim being reproduced, and
/// the protocol, so `bench_output.txt` reads as a self-contained report.
/// Also calls `RequireOptimizedBuild()` — benches refuse to report numbers
/// from an unoptimized binary.
void PrintHeader(const std::string& id, const std::string& claim,
                 const std::string& protocol);

/// Fails loudly (exit 1) when this binary was compiled without NDEBUG:
/// Debug-build timings are meaningless and have been mistaken for
/// regressions before. Set XPTC_ALLOW_DEBUG_BENCH=1 to override when
/// debugging a bench itself.
void RequireOptimizedBuild();

/// Prints a table row of the form "  col1  col2 ..." from preformatted
/// cells (experiment reports are plain fixed-width text).
void PrintRow(const std::vector<std::string>& cells, int width = 14);

/// Wall-clock seconds for one invocation of `fn` (median of `reps` runs).
double MedianSeconds(const std::function<void()>& fn, int reps = 3);

/// Like `MedianSeconds`, but each sample times `inner` back-to-back calls
/// and reports per-call seconds — for sub-millisecond workloads.
double MedianSecondsN(const std::function<void()>& fn, int inner,
                      int reps = 3);

/// True iff XPTC_BENCH_SMOKE is set in the environment: runners shrink
/// problem sizes so CI can exercise the full pipeline in seconds.
bool SmokeMode();

/// One naive-reference-vs-optimized-engine measurement, serialized into
/// BENCH_eval.json so successive PRs accumulate a perf trajectory.
struct SpeedupCase {
  std::string name;   // stable case id, e.g. "w_heavy_uniform"
  std::string query;  // concrete syntax of the measured query
  int n = 0;          // tree size in nodes
  double naive_seconds = 0;
  double opt_seconds = 0;
  bool match = false;  // optimized result bit-identical to naive result
};

/// Renders cases as a JSON object: {"cases": [...], "smoke": bool}.
std::string SpeedupCasesJson(const std::vector<SpeedupCase>& cases);

/// Read-merge-writes `section_json` under top-level key `key` in the JSON
/// object file at `path` (other sections are preserved), so exp2 and exp3
/// can share one BENCH_eval.json. Returns false on I/O failure.
///
/// BENCH_*.json schema: every file is one top-level JSON object mapping an
/// experiment id ("exp2_eval_scaling", "exp11_throughput", ...) to that
/// experiment's section object. Each section carries at least
/// {"smoke": bool} so readers can discard CI smoke numbers; the remaining
/// fields are experiment-specific and documented where the section is
/// built (see SpeedupCasesJson here and bench/exp11_throughput.cc).
/// Sections are replaced wholesale on rerun; unrelated sections survive.
///
/// Thread-safety: the read-merge-write cycle is serialised by a
/// process-wide mutex, so concurrent writers (e.g. multi-threaded benches
/// whose workers each report a section, or google-benchmark running
/// registered benchmarks on threads) cannot interleave and corrupt the
/// file. Cross-process writers are NOT serialised — CI runs benches
/// sequentially for that reason.
///
/// Crash-safety: the merged object is written to `<path>.tmp` and renamed
/// over `path` (atomic on POSIX), so a bench that dies mid-write leaves
/// the previous file intact instead of a truncated one.
///
/// Provenance: since the obs layer (DESIGN.md §11), the counter-valued
/// fields in these sections (cache hits/misses, lowering totals, dispatch
/// counts) are read from `obs::Registry::Default()` — component `stats()`
/// accessors are point-in-time views over the same registry counters — so
/// a BENCH section is a thin, named slice of the registry's JSON export.
bool UpdateBenchJson(const std::string& path, const std::string& key,
                     const std::string& section_json);

/// Path of the shared benchmark JSON (XPTC_BENCH_JSON or BENCH_eval.json).
std::string BenchJsonPath();

/// Path of the throughput benchmark JSON (XPTC_BENCH_THROUGHPUT_JSON or
/// BENCH_throughput.json). Kept separate from BENCH_eval.json: throughput
/// numbers depend on the host's core count, eval numbers do not.
std::string ThroughputJsonPath();

/// Path of the compiled-engine benchmark JSON (XPTC_BENCH_COMPILED_JSON or
/// BENCH_compiled.json): interpreter-vs-compiled comparisons from
/// bench/exp12_compiled.cc.
std::string CompiledJsonPath();

/// Path of the SIMD-kernel benchmark JSON (XPTC_BENCH_KERNELS_JSON or
/// BENCH_kernels.json): scalar-vs-vector kernel microbenches from
/// bench/exp13_kernels.cc. Separate file because the numbers depend on
/// the host's vector ISA.
std::string KernelsJsonPath();

/// Path of the axis-streaming benchmark JSON (XPTC_BENCH_AXIS_JSON or
/// BENCH_axis.json): sparse-vs-dense axis kernel dispatch measurements
/// from bench/exp14_axis_streaming.cc. Separate file because the dense-path
/// numbers depend on the host's gather throughput.
std::string AxisJsonPath();

/// Path of the serving benchmark JSON (XPTC_BENCH_SERVING_JSON or
/// BENCH_serving.json): the flight-recorder gates from
/// bench/exp17_flight_recorder.cc. Separate file because the numbers
/// depend on core count and the loopback stack.
std::string ServingJsonPath();

/// Deterministic tree for benchmarks.
Tree BenchTree(Alphabet* alphabet, int num_nodes, TreeShape shape,
               uint64_t seed, int num_labels = 3);

/// Serialises a (tree, query) pair that failed a bit-for-bit check as a
/// replayable `.case` file (src/testing/corpus.h format, written to the
/// working directory) and returns its path, so bench-found mismatches
/// enter the same replay workflow as fuzzer findings
/// (`xptc_fuzz --replay .`). Returns "" on I/O failure.
std::string DumpMismatchCase(const Tree& tree, const Alphabet& alphabet,
                             const std::string& query_text,
                             const std::string& comment);

/// Formats a double with fixed precision.
std::string Fmt(double value, int precision = 2);

}  // namespace bench
}  // namespace xptc

#endif  // XPTC_BENCH_BENCH_UTIL_H_
