#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <unordered_set>

#include "common/rng.h"
#include "testing/corpus.h"
#include "tree/generate.h"
#include "xpath/engine.h"
#include "xpath/generator.h"

namespace perfbench {

using xptc::server::EvalMode;
using xptc::server::RespCode;
using xptc::server::ServiceResponse;

namespace {

constexpr int kLabels = 8;
constexpr int kSmallTrees = 64;
constexpr int kHotNodes = 4096;
constexpr int kHotTexts = 32;
// The hot pool is fixed across seeds (the seed varies the trees and the
// request draws): exec cost differs by 100x between generated texts, so a
// per-seed pool would make the Zipf head, not the serving path, set qps.
constexpr uint64_t kHotPoolSeed = 1;
// cold_compile keeps exec small so that compilation dominates: its trees
// have 64 nodes, where a W text evaluates in tens of µs (on 4096-node
// trees W alone took 460-820 µs at p50, ten times a plan-cache miss),
// and its texts are generated to twice the default depth (8, about 50
// characters), where parse, lowering and the superoptimizer cost about
// twice what exec does.
constexpr int kColdNodes = 64;
constexpr int kColdDepth = 8;
// 16x the service's default plan-cache capacity (1024), so an LRU text is
// always evicted before it comes round again.
constexpr int kColdTexts = 16384;
// Each text is paired with this many distinct trees, one per pass over the
// texts, so no (text, tree) pair repeats — and no request finds a W memo
// its own pair filled — for the first kColdTexts × kColdPasses (524,288)
// requests, more than a run sends. The stream then starts over.
constexpr int kColdPasses = 32;
constexpr size_t kHashedRequests = size_t{1} << 16;
constexpr int kBigNodes = 262144;

// Fixed big_batch texts: closure stars on child, parent and sibling (bare
// ones collapse to the one-pass closure ops, filtered ones run star
// rounds; the second text blows the star-round budget on the deep comb and
// caterpillar and falls back to the downward sweep), desc/anc, foll/prec,
// and a W body. W is O(sum of subtree sizes) to compute: a body with a
// downward step inside measured 27 s per 262k-node caterpillar, so the
// body here keeps each subtree pass to word-level kernels; after the
// first request every W is a TreeCache memo hit.
const char* const kBigTexts[] = {
    "<(child[not a])*[b]>",
    "<(child[not (a and <child[b and <child[c]>]>)])*[d and <child[e and <child[f]>]>]>",
    "<(parent)*[c]> and <(child)*[d]>",
    "<(parent[not e])*[f]>",
    "<(fsib)*[e]> or <(psib[f])*[g]>",
    "<desc[a and <child[b]>]> and not <anc[c]>",
    "<foll[g and <child[h]>]> or <prec[h]>",
    "W(a or <prec[b]>) and <(child/child)*[g]>",
};

/// splitmix64 of (seed, salt): independent sub-seeds per input component.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::shared_ptr<const xptc::Tree> MakeTree(const std::vector<xptc::Symbol>& labels,
                                           xptc::TreeShape shape, int nodes,
                                           uint64_t seed) {
  xptc::TreeGenOptions options;
  options.num_nodes = nodes;
  options.shape = shape;
  options.arity = 4;
  xptc::Rng rng(seed);
  return std::make_shared<const xptc::Tree>(
      xptc::GenerateTree(options, labels, &rng));
}

/// Draws distinct generated texts of at most `depth` levels from
/// `fragments` (cycled) until `count`.
std::vector<std::string> DistinctTexts(
    const std::vector<xptc::QueryFragment>& fragments, int depth, int count,
    const std::vector<xptc::Symbol>& labels, const xptc::Alphabet& alphabet,
    uint64_t seed) {
  std::vector<std::string> texts;
  std::unordered_set<std::string> seen;
  for (uint64_t draw = 0; static_cast<int>(texts.size()) < count; ++draw) {
    const xptc::QueryFragment fragment = fragments[draw % fragments.size()];
    const xptc::NodePtr expr = xptc::GenerateNodeSeeded(
        xptc::OptionsForFragment(fragment, depth), labels, Mix(seed, draw));
    std::string text = xptc::NodeToString(*expr, alphabet);
    if (seen.insert(text).second) texts.push_back(std::move(text));
  }
  return texts;
}

void Fnv(uint64_t* h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= 0x100000001B3ULL;
  }
}
void FnvString(uint64_t* h, const std::string& s) {
  const uint64_t len = s.size();
  Fnv(h, &len, sizeof(len));
  Fnv(h, s.data(), s.size());
}

}  // namespace

bool ParseKind(const std::string& name, Kind* out) {
  if (name == "hot_point") *out = Kind::kHotPoint;
  else if (name == "cold_compile") *out = Kind::kColdCompile;
  else if (name == "big_batch") *out = Kind::kBigBatch;
  else return false;
  return true;
}

void BuildWorkload(Kind kind, uint64_t seed, Workload* w) {
  w->kind = kind;
  w->seed = seed;
  const std::vector<xptc::Symbol> labels =
      xptc::DefaultLabels(&w->alphabet, kLabels);
  xptc::Rng rng(Mix(seed, 0xC0FFEE));

  if (kind == Kind::kBigBatch) {
    w->name = "big_batch";
    w->batch = true;
    w->mode = EvalMode::kCount;
    const xptc::TreeShape shapes[] = {
        xptc::TreeShape::kUniformRecursive, xptc::TreeShape::kCaterpillar,
        xptc::TreeShape::kFullKAry, xptc::TreeShape::kComb};
    for (int t = 0; t < 4; ++t) {
      w->trees.push_back(MakeTree(labels, shapes[t], kBigNodes, Mix(seed, t)));
    }
    for (const char* text : kBigTexts) w->texts.push_back(text);
    for (int q = 0; q < static_cast<int>(w->texts.size()); ++q) {
      for (int t = 0; t < 4; ++t) w->cells.push_back({q, t});
    }
    w->warmup = {0, 0};  // the first request computes every W memo
  } else {
    const bool hot = kind == Kind::kHotPoint;
    for (int t = 0; t < kSmallTrees; ++t) {
      w->trees.push_back(MakeTree(labels, xptc::TreeShape::kUniformRecursive,
                                  hot ? kHotNodes : kColdNodes, Mix(seed, t)));
    }
    w->mode = EvalMode::kNodeSet;
    w->warmup_seconds = 0.5;
    if (hot) {
      w->name = "hot_point";
      w->texts = DistinctTexts({xptc::QueryFragment::kCore,
                                xptc::QueryFragment::kRegular,
                                xptc::QueryFragment::kRegularW},
                               4, kHotTexts, labels, w->alphabet,
                               Mix(kHotPoolSeed, 1));
      for (int q = 0; q < kHotTexts; ++q) {
        for (int t = 0; t < kSmallTrees; ++t) w->cells.push_back({q, t});
      }
      // Zipf (s = 1) over the pool's generation order; see StreamCell.
      double total = 0;
      for (int r = 0; r < kHotTexts; ++r) {
        w->zipf_cdf.push_back(total += 1.0 / (r + 1));
      }
      for (int c = 0; c < static_cast<int>(w->cells.size()); ++c) {
        w->warmup.push_back(c);
      }
    } else {
      w->name = "cold_compile";
      w->texts = DistinctTexts({xptc::QueryFragment::kRegularW}, kColdDepth,
                               kColdTexts, labels, w->alphabet, Mix(seed, 2));
      // Pass p sends text q to tree first[q] + p: the trees of one text
      // are distinct because kColdPasses <= kSmallTrees.
      std::vector<int> first(kColdTexts);
      for (int& t : first) t = rng.NextInt(0, kSmallTrees - 1);
      for (int p = 0; p < kColdPasses; ++p) {
        for (int q = 0; q < kColdTexts; ++q) {
          w->cells.push_back({q, (first[q] + p) % kSmallTrees});
        }
      }
    }
  }
  for (const auto& tree : w->trees) {
    w->xml.push_back(xptc::testing::CompactXml(*tree, w->alphabet));
  }
}

int StreamCell(const Workload& w, size_t i) {
  switch (w.kind) {
    case Kind::kHotPoint: {
      const uint64_t draw = Mix(Mix(w.seed, 0xD1CE), i);
      const double u = static_cast<double>(draw >> 11) * 0x1.0p-53 *
                       w.zipf_cdf.back();
      const int q = std::min<int>(
          kHotTexts - 1,
          static_cast<int>(std::upper_bound(w.zipf_cdf.begin(),
                                            w.zipf_cdf.end(), u) -
                           w.zipf_cdf.begin()));
      const int t = static_cast<int>(Mix(draw, 1) % kSmallTrees);
      return q * kSmallTrees + t;
    }
    case Kind::kColdCompile:  // cells are in stream order
      return static_cast<int>(i % w.cells.size());
    case Kind::kBigBatch:
      return 0;
  }
  return -1;
}

void ComputeReferences(Workload* w, int threads) {
  const size_t n = w->cells.size();
  const bool nodeset = w->mode == EvalMode::kNodeSet;
  w->ref_count.assign(n, 0);
  w->ref_words_per_cell =
      nodeset ? (static_cast<size_t>(w->trees[0]->size()) + 63) / 64 : 0;
  w->ref_words.assign(n * w->ref_words_per_cell, 0);
  // Work is handed out per text, so each text is parsed once.
  std::vector<std::vector<int>> by_text(w->texts.size());
  for (size_t c = 0; c < n; ++c) {
    by_text[static_cast<size_t>(w->cells[c].text)].push_back(static_cast<int>(c));
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  auto work = [&] {
    // Each thread parses into its own alphabet; interning the same labels
    // in the same order gives the same symbols the trees carry.
    xptc::Alphabet alphabet;
    xptc::DefaultLabels(&alphabet, kLabels);
    for (size_t q = next++; q < by_text.size(); q = next++) {
      auto query = xptc::Query::Parse(w->texts[q], &alphabet);
      if (!query.ok()) {
        std::fprintf(stderr, "perfbench: text %zu does not parse: %s\n", q,
                     query.status().ToString().c_str());
        failed = true;
        return;
      }
      for (int c : by_text[q]) {
        const auto cell = static_cast<size_t>(c);
        const xptc::Bitset bits = query->Select(*w->trees[w->cells[cell].tree]);
        w->ref_count[cell] = bits.Count();
        if (nodeset) {
          std::copy_n(bits.words(), w->ref_words_per_cell,
                      w->ref_words.begin() + cell * w->ref_words_per_cell);
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (int i = 0; i < std::max(1, threads); ++i) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  if (failed) std::exit(1);
}

bool SameAsReference(const Workload& w, int cell, const xptc::Bitset& bits) {
  const size_t c = static_cast<size_t>(cell);
  return bits.size() == w.trees[static_cast<size_t>(w.cells[c].tree)]->size() &&
         std::equal(bits.words(), bits.words() + w.ref_words_per_cell,
                    w.ref_words.begin() + c * w.ref_words_per_cell);
}

std::string EncodeRequest(const Workload& w, int cell, uint32_t request_id,
                          uint64_t trace_id) {
  if (w.batch) {
    std::vector<int> trees(w.trees.size());
    for (size_t t = 0; t < trees.size(); ++t) trees[t] = static_cast<int>(t);
    return xptc::server::EncodeFrame(
        xptc::server::FrameType::kBatch,
        xptc::server::EncodeBatchPayload(request_id, xptc::server::kDialectXPath,
                                         w.mode, 0, trees, w.texts, trace_id));
  }
  const Cell c = w.cells[static_cast<size_t>(cell)];
  return xptc::server::EncodeFrame(
      xptc::server::FrameType::kQuery,
      xptc::server::EncodeQueryPayload(request_id, xptc::server::kDialectXPath,
                                       w.mode, 0, {c.tree},
                                       w.texts[static_cast<size_t>(c.text)],
                                       trace_id));
}

bool CheckResponse(const Workload& w, int cell, const ServiceResponse& resp,
                   int* bad_cell, std::string* why) {
  *bad_cell = w.batch ? 0 : cell;
  if (resp.code != RespCode::kOk) {
    *why = std::string("response code ") + xptc::server::RespCodeName(resp.code) +
           ": " + resp.payload;
    return false;
  }
  std::vector<int> expected;
  if (w.batch) {
    for (size_t c = 0; c < w.cells.size(); ++c) expected.push_back(static_cast<int>(c));
  } else {
    expected.push_back(cell);
  }
  if (resp.results.size() != expected.size()) {
    *why = "wrong result count " + std::to_string(resp.results.size());
    return false;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const int c = expected[i];
    const auto& got = resp.results[i];
    *bad_cell = c;
    if (got.tree_id != w.cells[static_cast<size_t>(c)].tree) {
      *why = "wrong tree id " + std::to_string(got.tree_id);
      return false;
    }
    if (got.count != w.ref_count[static_cast<size_t>(c)]) {
      *why = "count " + std::to_string(got.count) + " != reference " +
             std::to_string(w.ref_count[static_cast<size_t>(c)]);
      return false;
    }
    if (w.mode == EvalMode::kNodeSet && !SameAsReference(w, c, got.bits)) {
      *why = "node set differs from reference";
      return false;
    }
  }
  return true;
}

void DumpCase(const Workload& w, int cell, const std::string& dir,
              const std::string& why) {
  const Cell c = w.cells[static_cast<size_t>(cell)];
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + w.name + "-" + std::to_string(w.seed) +
                           "-" + std::to_string(cell) + ".case";
  xptc::testing::CorpusCase corpus_case;
  corpus_case.seed = w.seed;
  corpus_case.xml = w.xml[static_cast<size_t>(c.tree)];
  corpus_case.query = w.texts[static_cast<size_t>(c.text)];
  const xptc::Status status = xptc::testing::WriteCaseFile(
      path, corpus_case,
      "perfbench " + w.name + " seed " + std::to_string(w.seed) + " cell " +
          std::to_string(cell) + " (tree " + std::to_string(c.tree) +
          "): " + why);
  std::fprintf(stderr, "perfbench: mismatch dumped to %s%s\n", path.c_str(),
               status.ok() ? "" : " (write failed)");
}

uint64_t StreamHash(const Workload& w) {
  uint64_t h = 0xCBF29CE484222325ULL;
  FnvString(&h, w.name);
  for (const std::string& x : w.xml) FnvString(&h, x);
  for (const std::string& t : w.texts) FnvString(&h, t);
  for (const Cell& c : w.cells) Fnv(&h, &c, sizeof(c));
  for (size_t i = 0; i < kHashedRequests; ++i) {
    const int cell = StreamCell(w, i);
    Fnv(&h, &cell, sizeof(cell));
  }
  Fnv(&h, w.warmup.data(), w.warmup.size() * sizeof(int));
  return h;
}

uint64_t ReferenceHash(const Workload& w) {
  uint64_t h = 0xCBF29CE484222325ULL;
  Fnv(&h, w.ref_count.data(), w.ref_count.size() * sizeof(int64_t));
  Fnv(&h, w.ref_words.data(), w.ref_words.size() * sizeof(uint64_t));
  return h;
}

}  // namespace perfbench
