#ifndef XPTC_OBS_EXPLAIN_H_
#define XPTC_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace xptc {
namespace obs {

/// What `tools/xptc_explain` runs: one query, one document, the full
/// pipeline (PlanCache parse + lowering, hybrid compiled execution,
/// interpreter cross-check), all under one traced `RequestScope`.
struct ExplainOptions {
  std::string query;

  /// Document: an XML string, or (when empty) a generated tree.
  std::string xml;
  int gen_nodes = 64;
  std::string gen_shape = "uniform";  // TreeShapeToString name
  uint64_t gen_seed = 1;
  int gen_labels = 4;

  /// Include timings (elapsed_ns span fields, *_ns counters, histograms).
  /// Off by default so the rendered dump is deterministic — the golden
  /// test and the registry-consistency check depend on that.
  bool with_times = false;

  /// Render the machine-readable JSON object instead of the text dump.
  bool json = false;
};

struct ExplainOutput {
  /// What the CLI prints: annotated text dump, or one JSON object when
  /// `options.json` is set.
  std::string rendered;

  /// Always-populated machine views (deterministic: no timings):
  std::string trace_json;     // the RequestTrace span tree
  std::string registry_json;  // this query's registry delta (counters)

  /// True iff every number the trace reports (star rounds, instruction
  /// executions, dispatch decision, cache provenance) matches the
  /// registry's delta bit for bit.
  bool consistent = false;

  /// True iff the compiled engine and the interpreter cross-check agreed
  /// bit for bit on the selected set.
  bool match = false;
};

/// Evaluates `options.query` with full tracing and renders the EXPLAIN
/// dump. Errors: bad query/XML/shape, or a query outside Regular XPath(W).
Result<ExplainOutput> ExplainQuery(const ExplainOptions& options);

}  // namespace obs
}  // namespace xptc

#endif  // XPTC_OBS_EXPLAIN_H_
