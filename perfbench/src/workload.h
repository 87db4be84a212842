#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "common/bitset.h"
#include "server/protocol.h"
#include "tree/tree.h"

namespace perfbench {

enum class Kind { kHotPoint, kColdCompile, kBigBatch };

/// "hot_point" | "cold_compile" | "big_batch"; false on anything else.
bool ParseKind(const std::string& name, Kind* out);

/// One checked answer: a query text evaluated on one tree.
struct Cell {
  int text = 0;
  int tree = 0;
};

/// Everything a run sends and checks, generated from (kind, seed) alone.
///
/// Query workloads send one single-tree kQuery frame per request; request
/// i asks for cell `StreamCell(w, i)`. The batch workload sends the same
/// kBatch frame (every text over every tree) on every request, and its
/// cells are the frame's answers in response order (query-major).
///
/// Every tree of a workload has the same size, so each cell's reference
/// node set takes `ref_words_per_cell` words of `ref_words`.
struct Workload {
  Kind kind = Kind::kHotPoint;
  std::string name;
  uint64_t seed = 0;
  xptc::server::EvalMode mode = xptc::server::EvalMode::kNodeSet;
  bool batch = false;

  xptc::Alphabet alphabet;  // the 8 generator labels, interned first
  std::vector<std::shared_ptr<const xptc::Tree>> trees;
  std::vector<std::string> xml;  // one-line XML per tree: what is ingested
  std::vector<std::string> texts;
  std::vector<Cell> cells;
  std::vector<double> zipf_cdf;  // hot_point: cumulative text weights

  /// Cells sent once before the timed legs (every plan and memo the
  /// steady state relies on), then `warmup_seconds` of the stream.
  std::vector<int> warmup;
  double warmup_seconds = 0;

  /// Reference answers per cell from the `sets` interpreter
  /// (`Query::Select`): node sets in kNodeSet mode, counts always.
  std::vector<uint64_t> ref_words;
  size_t ref_words_per_cell = 0;
  std::vector<int64_t> ref_count;
};

/// Generates trees, texts and the request stream (no references yet).
void BuildWorkload(Kind kind, uint64_t seed, Workload* w);

/// The cell request `i` asks for. Streams never end: hot_point's draws
/// are a pure function of (seed, i), cold_compile's stream cycles through
/// its cells, and big_batch always asks for cell 0.
int StreamCell(const Workload& w, size_t i);

/// Fills `ref_words`/`ref_count` for every cell on `threads` threads.
void ComputeReferences(Workload* w, int threads);

/// Whether `bits` is the reference node set of `cell` (kNodeSet mode).
bool SameAsReference(const Workload& w, int cell, const xptc::Bitset& bits);

/// Wire bytes of one request frame. For the batch workload `cell` is
/// ignored. `trace_id` rides the frame's flags-gated trace field.
std::string EncodeRequest(const Workload& w, int cell, uint32_t request_id,
                          uint64_t trace_id);

/// Checks a decoded response against the references: OK code, shape,
/// tree ids, and every answer bit for bit (or by count in kCount mode).
/// On mismatch returns false with the first differing cell in `*bad_cell`.
bool CheckResponse(const Workload& w, int cell,
                   const xptc::server::ServiceResponse& resp, int* bad_cell,
                   std::string* why);

/// Writes `dir/<workload>-<seed>-<cell>.case` (tests/corpus format) so a
/// wrong answer can be replayed with `xptc_fuzz --replay`.
void DumpCase(const Workload& w, int cell, const std::string& dir,
              const std::string& why);

/// FNV-1a over the generated inputs (trees, texts, cells, the first 64Ki
/// stream entries) and over the reference answers: the determinism
/// self-check compares these.
uint64_t StreamHash(const Workload& w);
uint64_t ReferenceHash(const Workload& w);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
