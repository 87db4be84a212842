// Differential fuzzing campaign driver over the oracle registry
// (src/testing/): cross-checks all seven evaluation pipelines on random
// (tree, query) cases, shrinks disagreements, and replays the checked-in
// corpus. See DESIGN.md §9 and README for usage.
//
// Exit codes: 0 = clean campaign, 1 = findings (or a failed self-check /
// stress run), 2 = usage error.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "exec/engine.h"
#include "obs/metrics.h"
#include "server/protocol.h"
#include "testing/corpus.h"
#include "testing/fuzzer.h"
#include "testing/oracle.h"
#include "testing/stress.h"

namespace {

using xptc::Alphabet;
using xptc::testing::CampaignResult;
using xptc::testing::CorpusCase;
using xptc::testing::DefaultRegistryOptions;
using xptc::testing::Finding;
using xptc::testing::FuzzFragment;
using xptc::testing::FuzzFragmentFromString;
using xptc::testing::FuzzFragmentToString;
using xptc::testing::Fuzzer;
using xptc::testing::FuzzOptions;
using xptc::testing::MakeDefaultRegistry;
using xptc::testing::MutationToString;
using xptc::testing::OracleRegistry;
using xptc::testing::ReplayCase;
using xptc::testing::RunConcurrencyStress;
using xptc::testing::RunSelfCheck;
using xptc::testing::SelfCheckReport;
using xptc::testing::StressOptions;
using xptc::testing::StressReport;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [mode] [options]\n"
      "\n"
      "modes (default: fuzz campaign)\n"
      "  --replay DIR        replay every *.case file in DIR, then exit\n"
      "  --self-check        mutation-test the harness itself: inject\n"
      "                      synthetic one-line evaluator bugs and require\n"
      "                      each to be found and shrunk small\n"
      "  --stress            multi-threaded differential stress of the\n"
      "                      throughput layer (PlanCache/TreeCache/Batch)\n"
      "  --wire              fuzz the server wire parsers in-process:\n"
      "                      mutated/truncated binary frames and random\n"
      "                      HTTP bytes through DecodeFrame/TranslateFrame/\n"
      "                      ParseHttpRequest (src/server/protocol.h)\n"
      "\n"
      "campaign options\n"
      "  --cases N           stop after N cases\n"
      "  --seconds S         stop after S wall-clock seconds\n"
      "  --seed N            campaign seed (default 1)\n"
      "  --fragment F        core|regular|regularw|downward|compilable|all\n"
      "                      (default all)\n"
      "  --max-tree-nodes N  per-case tree size cap (default 24)\n"
      "  --deep-trees        bias half the cases to chain/caterpillar\n"
      "                      shapes at up to 8x the size cap (worst shapes\n"
      "                      for the closure axis kernels)\n"
      "  --corpus DIR        write shrunk findings to DIR as .case files\n"
      "  --no-heavy          drop the FO/NTWA/DFTA oracles (fast smoke)\n"
      "  --oracle NAME       targeted mode: run only NAME as candidate\n"
      "                      against the reference chain (e.g. exec)\n"
      "\n"
      "stress options\n"
      "  --threads N         client threads (default 4)\n"
      "  --iterations N      evaluations per client thread (default 120)\n",
      argv0);
  return 2;
}

bool ParseInt64(const char* text, int64_t* out) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) return false;
  *out = value;
  return true;
}

void PrintFinding(const Finding& finding, const Alphabet&) {
  std::printf("FINDING (case seed %" PRIu64 "): %s vs %s\n", finding.case_seed,
              finding.reference.c_str(), finding.other.c_str());
  std::printf("  %s\n", finding.description.c_str());
  std::printf("  original: %s\n",
              xptc::testing::FormatCaseLine(finding.original).c_str());
  std::printf("  shrunk  : %s\n",
              xptc::testing::FormatCaseLine(finding.shrunk).c_str());
  std::printf("  shrink  : tree %d -> %d nodes, query %d -> %d AST nodes, "
              "%d steps\n",
              finding.shrink.tree_nodes_before, finding.shrink.tree_nodes_after,
              finding.shrink.query_size_before,
              finding.shrink.query_size_after, finding.shrink.steps);
}

int RunReplayMode(const std::string& dir) {
  Alphabet alphabet;
  auto registry = MakeDefaultRegistry(&alphabet);
  auto corpus = xptc::testing::LoadCorpusDir(dir);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error: %s\n", corpus.status().ToString().c_str());
    return 2;
  }
  int failures = 0;
  for (const auto& [path, corpus_case] : corpus.ValueOrDie()) {
    auto outcome = ReplayCase(registry.get(), &alphabet, corpus_case);
    if (!outcome.ok()) {
      std::printf("ERROR %s: %s\n", path.c_str(),
                  outcome.status().ToString().c_str());
      ++failures;
    } else if (outcome.ValueOrDie().has_value()) {
      std::printf("DISAGREE %s: %s\n", path.c_str(),
                  outcome.ValueOrDie()->Describe().c_str());
      ++failures;
    } else {
      std::printf("ok %s\n", path.c_str());
    }
  }
  std::printf("replayed %zu cases, %d failures\n",
              corpus.ValueOrDie().size(), failures);
  return failures == 0 ? 0 : 1;
}

int RunSelfCheckMode(uint64_t seed) {
  Alphabet alphabet;
  const std::vector<SelfCheckReport> reports = RunSelfCheck(&alphabet, seed);
  int failures = 0;
  for (const SelfCheckReport& report : reports) {
    if (!report.found) {
      std::printf("self-check %-12s: NOT FOUND in %" PRId64 " cases\n",
                  MutationToString(report.mutation), report.cases);
      ++failures;
      continue;
    }
    const auto& shrink = report.finding.shrink;
    // The acceptance bar: an injected one-line bug must shrink to a tiny
    // reproducible case.
    const bool small = shrink.tree_nodes_after <= 8 &&
                       shrink.query_size_after <= 6;
    std::printf("self-check %-12s: found after %" PRId64
                " cases, shrunk to %d tree nodes / %d AST nodes%s\n",
                MutationToString(report.mutation), report.cases,
                shrink.tree_nodes_after, shrink.query_size_after,
                small ? "" : "  [TOO BIG]");
    std::printf("  repro: %s\n",
                xptc::testing::FormatCaseLine(report.finding.shrunk).c_str());
    if (!small) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int RunStressMode(const StressOptions& options) {
  const StressReport report = RunConcurrencyStress(options);
  std::printf("stress: %" PRId64 " evaluations across %d threads, "
              "%" PRId64 " plan-cache hits, %" PRId64 " evictions\n",
              report.evaluations, options.num_threads, report.plan_cache_hits,
              report.plan_cache_evictions);
  if (!report.ok()) {
    std::printf("MISMATCHES: %d (first: %s)\n", report.mismatches,
                report.first_mismatch.c_str());
    return 1;
  }
  std::printf("all concurrent results matched the sequential baseline\n");
  return 0;
}

// ---------------------------------------------------------------------------
// --wire: in-process fuzzing of the server's request parsers.
//
// The parsers in src/server/protocol.h are pure functions over byte
// buffers, so the whole attack surface a remote client can reach —
// DecodeFrame, TranslateFrame, ParseHttpRequest, TranslateHttp — runs here
// without a socket. Each case feeds one byte string through the same
// incremental loop the reactor uses (random chunk boundaries included);
// the pass criterion is "no crash, no sanitizer report, and the
// incremental-parsing contract holds". Valid inputs double as oracles:
// unmutated frames must decode and translate, and response frames must
// survive an encode→decode round trip bit-for-bit.
// ---------------------------------------------------------------------------

namespace wire {

using xptc::Bitset;
using namespace xptc::server;  // NOLINT: the whole surface under test

/// splitmix64 — deterministic, seedable, no global state.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  bool Chance(uint64_t num, uint64_t den) { return Below(den) < num; }
};

struct WireStats {
  int64_t cases = 0;
  int64_t frames_ok = 0;
  int64_t frames_rejected = 0;
  int64_t translate_ok = 0;
  int64_t translate_rejected = 0;
  int64_t http_ok = 0;
  int64_t http_rejected = 0;
  int64_t roundtrips = 0;
  int64_t violations = 0;  // incremental-contract / oracle failures
};

void Violation(WireStats* stats, uint64_t case_seed, const char* what) {
  std::fprintf(stderr, "WIRE VIOLATION (case seed %" PRIu64 "): %s\n",
               case_seed, what);
  ++stats->violations;
}

std::string RandomQuery(Rng* rng) {
  // The library's compact algebraic dialect (src/xpath/parser.h).
  static const char* kQueries[] = {
      "a", "<child[b]>", "<desc[d]>", "b or c", "not a",
      "<child[<child[c]>]>", "<child>", "leaf", "root and a",
      "<(child|right)*[b]>",
  };
  if (rng->Chance(1, 8)) {
    // Garbage query text: the translator must pass it through unharmed
    // (query *parsing* happens later, in the service layer). Non-empty:
    // empty queries are a translate-level rejection by design.
    std::string junk;
    const size_t n = 1 + rng->Below(23);
    for (size_t i = 0; i < n; ++i) {
      junk.push_back(static_cast<char>(rng->Next() & 0xff));
    }
    return junk;
  }
  return kQueries[rng->Below(sizeof(kQueries) / sizeof(kQueries[0]))];
}

std::vector<int> RandomTreeIds(Rng* rng) {
  std::vector<int> ids;
  const size_t n = rng->Below(4);
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<int>(rng->Below(8)));
  }
  return ids;
}

/// A structurally valid request frame from the client-side encoders — the
/// seed corpus every mutator starts from.
std::string ValidFrame(Rng* rng) {
  const uint32_t id = static_cast<uint32_t>(rng->Next());
  const EvalMode mode = static_cast<EvalMode>(rng->Below(3));
  const uint32_t deadline = static_cast<uint32_t>(rng->Below(100000));
  // Half the seeds carry the flags-gated flight-recorder trace field, so
  // mutations hit the flags word, the optional u64, and the code that
  // skips it when absent.
  const uint64_t trace_id = rng->Chance(1, 2) ? rng->Next() : 0;
  switch (rng->Below(3)) {
    case 0:
      return EncodeFrame(FrameType::kQuery,
                         EncodeQueryPayload(id, kDialectXPath, mode, deadline,
                                            RandomTreeIds(rng),
                                            RandomQuery(rng), trace_id));
    case 1: {
      std::vector<std::string> queries;
      const size_t n = 1 + rng->Below(4);
      for (size_t i = 0; i < n; ++i) queries.push_back(RandomQuery(rng));
      return EncodeFrame(FrameType::kBatch,
                         EncodeBatchPayload(id, kDialectXPath, mode, deadline,
                                            RandomTreeIds(rng), queries,
                                            trace_id));
    }
    default:
      return EncodeFrame(FrameType::kPing, EncodePingPayload(id));
  }
}

/// A structurally valid query/batch frame whose payload `flags` word has a
/// bit other than bit 0 (the trace-field gate) set. The frame must decode
/// (the header is intact) and TranslateFrame must reject it — unknown
/// flags are a forward-compat error, never silently ignored.
std::string UnknownFlagsFrame(Rng* rng) {
  std::string bytes = ValidFrame(rng);
  while (static_cast<uint8_t>(bytes[1]) ==
         static_cast<uint8_t>(FrameType::kPing)) {
    bytes = ValidFrame(rng);  // ping payloads carry no flags word
  }
  // Frame header is 8 bytes; the request prefix is u32 request_id,
  // u8 dialect, u8 mode, u16 flags — so flags live at bytes 14..15
  // (little-endian).
  const uint16_t mask =
      static_cast<uint16_t>(1u << (1 + rng->Below(15)));  // never bit 0
  bytes[14] = static_cast<char>(static_cast<uint8_t>(bytes[14]) |
                                static_cast<uint8_t>(mask & 0xff));
  bytes[15] = static_cast<char>(static_cast<uint8_t>(bytes[15]) |
                                static_cast<uint8_t>(mask >> 8));
  return bytes;
}

std::string ValidHttp(Rng* rng) {
  static const char* kTargets[] = {
      "/", "/healthz", "/metrics", "/query", "/query?trees=0,1&mode=count",
      "/batch?mode=boolean&deadline_ms=50", "/explain?query=a&json=1",
      "/explain?query=a%5Bb%5D&nodes=32&shape=chain&seed=7", "/nosuch",
  };
  const bool post = rng->Chance(1, 2);
  std::string body;
  if (post) {
    body = RandomQuery(rng);
    if (rng->Chance(1, 4)) body += "\n" + RandomQuery(rng);
  }
  std::string req = std::string(post ? "POST" : "GET") + " " +
                    kTargets[rng->Below(sizeof(kTargets) / sizeof(char*))] +
                    " HTTP/1.1\r\nHost: fuzz\r\n";
  if (post || !body.empty()) {
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  if (rng->Chance(1, 4)) req += "Connection: close\r\n";
  if (rng->Chance(1, 2)) {
    // X-Request-Id in all three wire shapes the server must absorb: a
    // strict hex flight id (parsed verbatim), an arbitrary opaque token
    // (hashed to a stable id), and an oversized one (ignored past the
    // server's length cap). All are legal HTTP; none may break parsing
    // or translation.
    std::string id;
    switch (rng->Below(3)) {
      case 0: {
        const size_t n = 1 + rng->Below(16);
        for (size_t i = 0; i < n; ++i) {
          id.push_back("0123456789abcdef"[rng->Below(16)]);
        }
        break;
      }
      case 1: {
        const size_t n = 1 + rng->Below(32);
        for (size_t i = 0; i < n; ++i) {
          id.push_back(static_cast<char>('!' + rng->Below(94)));  // printable
        }
        break;
      }
      default:
        id.assign(150 + rng->Below(100), 'x');
        break;
    }
    req += "X-Request-Id: " + id + "\r\n";
  }
  req += "\r\n" + body;
  return req;
}

/// Structure-aware mutations: bit flips, truncation, growth, length-field
/// corruption, and splices — the classic framing-bug provocations.
void Mutate(Rng* rng, std::string* bytes) {
  const int rounds = 1 + static_cast<int>(rng->Below(4));
  for (int i = 0; i < rounds; ++i) {
    if (bytes->empty()) {
      bytes->push_back(static_cast<char>(rng->Next() & 0xff));
      continue;
    }
    switch (rng->Below(6)) {
      case 0: {  // flip one bit
        const size_t pos = rng->Below(bytes->size());
        (*bytes)[pos] ^= static_cast<char>(1 << rng->Below(8));
        break;
      }
      case 1:  // truncate
        bytes->resize(rng->Below(bytes->size() + 1));
        break;
      case 2: {  // append junk
        const size_t n = 1 + rng->Below(16);
        for (size_t k = 0; k < n; ++k) {
          bytes->push_back(static_cast<char>(rng->Next() & 0xff));
        }
        break;
      }
      case 3: {  // corrupt a 32-bit field in place (length fields included)
        if (bytes->size() < 4) break;
        const size_t pos = rng->Below(bytes->size() - 3);
        const uint32_t v = static_cast<uint32_t>(
            rng->Chance(1, 2) ? rng->Below(1 << 30) : rng->Next());
        std::memcpy(&(*bytes)[pos], &v, 4);
        break;
      }
      case 4: {  // insert a byte
        const size_t pos = rng->Below(bytes->size() + 1);
        bytes->insert(pos, 1, static_cast<char>(rng->Next() & 0xff));
        break;
      }
      default: {  // splice: duplicate a random slice elsewhere
        const size_t from = rng->Below(bytes->size());
        const size_t n = rng->Below(bytes->size() - from + 1);
        const size_t to = rng->Below(bytes->size() + 1);
        bytes->insert(to, bytes->substr(from, n));
        break;
      }
    }
  }
}

/// Drives the binary decoder exactly like the reactor: bytes arrive in
/// random-sized chunks, complete frames are consumed from the front, and
/// kError ends the connection. Returns false on kError.
bool FeedBinary(const std::string& bytes, Rng* rng, WireStats* stats,
                uint64_t case_seed) {
  std::string buffer;
  size_t offset = 0;
  constexpr size_t kMaxPayload = 1 << 20;
  while (true) {
    // Deliver the next chunk (possibly empty only when input is exhausted).
    if (offset < bytes.size()) {
      const size_t n = 1 + rng->Below(bytes.size() - offset);
      buffer.append(bytes, offset, n);
      offset += n;
    }
    for (;;) {
      Frame frame;
      size_t consumed = 0;
      std::string error;
      const ParseStatus st = DecodeFrame(buffer.data(), buffer.size(),
                                         kMaxPayload, &frame, &consumed,
                                         &error);
      if (st == ParseStatus::kOk) {
        ++stats->frames_ok;
        if (consumed == 0 || consumed > buffer.size()) {
          Violation(stats, case_seed, "DecodeFrame kOk with bad consumed");
          return false;
        }
        buffer.erase(0, consumed);
        auto req = TranslateFrame(frame);
        if (req.ok()) {
          ++stats->translate_ok;
          const ServiceRequest& r = req.ValueOrDie();
          const bool shaped =
              (r.op == RequestOp::kPing && r.queries.empty()) ||
              ((r.op == RequestOp::kQuery || r.op == RequestOp::kBatch) &&
               !r.queries.empty());
          if (!shaped) {
            Violation(stats, case_seed, "TranslateFrame produced a request "
                                        "with an impossible shape");
          }
        } else {
          ++stats->translate_rejected;
        }
        continue;
      }
      if (st == ParseStatus::kError) {
        ++stats->frames_rejected;
        if (error.empty()) {
          Violation(stats, case_seed, "DecodeFrame kError without a message");
        }
        return false;
      }
      break;  // kNeedMore: deliver another chunk
    }
    if (offset >= bytes.size()) return true;  // input exhausted mid-message
  }
}

/// Same incremental discipline for the HTTP parser.
void FeedHttp(const std::string& bytes, Rng* rng, WireStats* stats,
              uint64_t case_seed) {
  HttpLimits limits;
  std::string buffer;
  size_t offset = 0;
  while (true) {
    if (offset < bytes.size()) {
      const size_t n = 1 + rng->Below(bytes.size() - offset);
      buffer.append(bytes, offset, n);
      offset += n;
    }
    for (;;) {
      HttpRequest req;
      size_t consumed = 0;
      std::string error;
      const ParseStatus st = ParseHttpRequest(buffer.data(), buffer.size(),
                                              limits, &req, &consumed,
                                              &error);
      if (st == ParseStatus::kOk) {
        ++stats->http_ok;
        if (consumed == 0 || consumed > buffer.size()) {
          Violation(stats, case_seed,
                    "ParseHttpRequest kOk with bad consumed");
          return;
        }
        buffer.erase(0, consumed);
        auto translated = TranslateHttp(req);  // must not crash either way
        if (translated.ok()) {
          // Rendering the would-be response exercises the serializer too.
          ServiceResponse resp;
          resp.op = translated.ValueOrDie().op;
          (void)RenderHttpResponse(resp, req.keep_alive);
        }
        continue;
      }
      if (st == ParseStatus::kError) {
        ++stats->http_rejected;
        if (error.empty()) {
          Violation(stats, case_seed,
                    "ParseHttpRequest kError without a message");
        }
        return;
      }
      break;
    }
    if (offset >= bytes.size()) return;
  }
}

/// Oracle: a response full of random bitsets must survive
/// EncodeResponseFrame → DecodeFrame → DecodeResponseFrame bit-for-bit.
void ResponseRoundTrip(Rng* rng, WireStats* stats, uint64_t case_seed) {
  ServiceResponse resp;
  const bool batch = rng->Chance(1, 2);
  resp.op = batch ? RequestOp::kBatch : RequestOp::kQuery;
  resp.mode = static_cast<EvalMode>(rng->Below(3));
  resp.request_id = static_cast<uint32_t>(rng->Next());
  resp.trace_id = rng->Chance(1, 2) ? rng->Next() : 0;
  resp.num_queries = batch ? static_cast<int>(1 + rng->Below(3)) : 1;
  const size_t num_trees = 1 + rng->Below(3);
  resp.results.resize(static_cast<size_t>(resp.num_queries) * num_trees);
  for (TreeResult& r : resp.results) {
    r.tree_id = static_cast<int>(rng->Below(8));
    const int bits = static_cast<int>(rng->Below(200));
    Bitset set(bits);
    for (int b = 0; b < bits; ++b) {
      if (rng->Chance(1, 3)) set.Set(b);
    }
    switch (resp.mode) {
      case EvalMode::kNodeSet:
        r.count = set.Count();
        r.bits = std::move(set);
        break;
      case EvalMode::kBoolean:
        r.boolean = set.Any();
        break;
      case EvalMode::kCount:
        r.count = set.Count();
        break;
    }
  }
  const std::string encoded = EncodeResponseFrame(resp);
  Frame frame;
  size_t consumed = 0;
  std::string error;
  if (DecodeFrame(encoded.data(), encoded.size(), 64 << 20, &frame, &consumed,
                  &error) != ParseStatus::kOk ||
      consumed != encoded.size()) {
    Violation(stats, case_seed, "encoded response frame did not decode");
    return;
  }
  auto decoded = DecodeResponseFrame(frame);
  if (!decoded.ok()) {
    Violation(stats, case_seed, "DecodeResponseFrame rejected a valid frame");
    return;
  }
  const ServiceResponse& got = decoded.ValueOrDie();
  bool same = got.request_id == resp.request_id && got.mode == resp.mode &&
              got.trace_id == resp.trace_id &&
              got.results.size() == resp.results.size();
  for (size_t i = 0; same && i < got.results.size(); ++i) {
    const TreeResult& a = resp.results[i];
    const TreeResult& b = got.results[i];
    same = a.tree_id == b.tree_id;
    switch (resp.mode) {
      case EvalMode::kNodeSet:
        same = same && a.bits == b.bits && a.count == b.count;
        break;
      case EvalMode::kBoolean:
        same = same && a.boolean == b.boolean;
        break;
      case EvalMode::kCount:
        same = same && a.count == b.count;
        break;
    }
  }
  if (!same) {
    Violation(stats, case_seed, "response round trip not bit-for-bit");
    return;
  }
  ++stats->roundtrips;
}

int Run(uint64_t seed, int64_t max_cases, double max_seconds) {
  if (max_cases <= 0 && max_seconds <= 0) max_cases = 20000;
  const auto start = std::chrono::steady_clock::now();
  const auto out_of_budget = [&](int64_t c) {
    if (max_cases > 0 && c >= max_cases) return true;
    if (max_seconds > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
                .count() >= max_seconds) {
      return true;
    }
    return false;
  };
  Rng campaign(seed);
  WireStats stats;
  for (int64_t c = 0; !out_of_budget(c); ++c) {
    const uint64_t case_seed = campaign.Next();
    Rng rng(case_seed);
    ++stats.cases;
    switch (rng.Below(11)) {
      case 0:   // unmutated frame: must decode and translate
      case 1: {
        const std::string bytes = ValidFrame(&rng);
        const int64_t ok_before = stats.translate_ok;
        if (!FeedBinary(bytes, &rng, &stats, case_seed) ||
            stats.translate_ok != ok_before + 1) {
          Violation(&stats, case_seed, "valid frame failed to parse");
        }
        break;
      }
      case 2:
      case 3:
      case 4: {  // mutated frame
        std::string bytes = ValidFrame(&rng);
        Mutate(&rng, &bytes);
        FeedBinary(bytes, &rng, &stats, case_seed);
        break;
      }
      case 5: {  // unmutated HTTP: must parse
        const std::string bytes = ValidHttp(&rng);
        const int64_t ok_before = stats.http_ok;
        FeedHttp(bytes, &rng, &stats, case_seed);
        if (stats.http_ok != ok_before + 1) {
          Violation(&stats, case_seed, "valid HTTP request failed to parse");
        }
        break;
      }
      case 6:
      case 7: {  // mutated HTTP
        std::string bytes = ValidHttp(&rng);
        Mutate(&rng, &bytes);
        FeedHttp(bytes, &rng, &stats, case_seed);
        break;
      }
      case 8: {  // pure noise through both parsers
        std::string bytes;
        const size_t n = rng.Below(256);
        for (size_t i = 0; i < n; ++i) {
          bytes.push_back(static_cast<char>(rng.Next() & 0xff));
        }
        FeedBinary(bytes, &rng, &stats, case_seed);
        FeedHttp(bytes, &rng, &stats, case_seed);
        break;
      }
      case 9: {  // unknown flag bits: frame decodes, translate must reject
        const std::string bytes = UnknownFlagsFrame(&rng);
        const int64_t ok_before = stats.translate_ok;
        const int64_t rejected_before = stats.translate_rejected;
        FeedBinary(bytes, &rng, &stats, case_seed);
        if (stats.translate_ok != ok_before ||
            stats.translate_rejected != rejected_before + 1) {
          Violation(&stats, case_seed,
                    "frame with unknown flag bits was not rejected at "
                    "translate");
        }
        break;
      }
      default:  // response-frame encode/decode oracle
        ResponseRoundTrip(&rng, &stats, case_seed);
        break;
    }
  }
  std::printf("wire: %" PRId64 " cases, seed %" PRIu64 "\n", stats.cases,
              seed);
  std::printf("  frames : %" PRId64 " ok, %" PRId64 " rejected; translate "
              "%" PRId64 " ok, %" PRId64 " rejected\n",
              stats.frames_ok, stats.frames_rejected, stats.translate_ok,
              stats.translate_rejected);
  std::printf("  http   : %" PRId64 " ok, %" PRId64 " rejected\n",
              stats.http_ok, stats.http_rejected);
  std::printf("  oracle : %" PRId64 " response round trips bit-for-bit\n",
              stats.roundtrips);
  if (stats.violations > 0) {
    std::printf("%" PRId64 " VIOLATIONS\n", stats.violations);
    return 1;
  }
  std::printf("no violations\n");
  return 0;
}

}  // namespace wire

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions options;
  StressOptions stress_options;
  DefaultRegistryOptions registry_options;
  std::string replay_dir;
  bool self_check = false;
  bool stress = false;
  bool wire = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    int64_t value = 0;
    if (arg == "--replay") {
      const char* dir = next();
      if (dir == nullptr) return Usage(argv[0]);
      replay_dir = dir;
    } else if (arg == "--self-check") {
      self_check = true;
    } else if (arg == "--stress") {
      stress = true;
    } else if (arg == "--wire") {
      wire = true;
    } else if (arg == "--cases") {
      const char* text = next();
      if (text == nullptr || !ParseInt64(text, &value)) return Usage(argv[0]);
      options.max_cases = value;
    } else if (arg == "--seconds") {
      const char* text = next();
      if (text == nullptr || !ParseInt64(text, &value)) return Usage(argv[0]);
      options.max_seconds = static_cast<double>(value);
    } else if (arg == "--seed") {
      const char* text = next();
      if (text == nullptr || !ParseInt64(text, &value)) return Usage(argv[0]);
      options.seed = static_cast<uint64_t>(value);
      stress_options.seed = static_cast<uint64_t>(value);
    } else if (arg == "--fragment") {
      const char* text = next();
      if (text == nullptr) return Usage(argv[0]);
      const std::optional<FuzzFragment> fragment =
          FuzzFragmentFromString(text);
      if (!fragment.has_value()) return Usage(argv[0]);
      options.fragment = *fragment;
    } else if (arg == "--max-tree-nodes") {
      const char* text = next();
      if (text == nullptr || !ParseInt64(text, &value) || value <= 0) {
        return Usage(argv[0]);
      }
      options.max_tree_nodes = static_cast<int>(value);
    } else if (arg == "--deep-trees") {
      options.deep_tree_bias = true;
    } else if (arg == "--corpus") {
      const char* dir = next();
      if (dir == nullptr) return Usage(argv[0]);
      options.corpus_dir = dir;
    } else if (arg == "--oracle") {
      const char* name = next();
      if (name == nullptr) return Usage(argv[0]);
      options.candidate = name;
    } else if (arg == "--no-heavy") {
      registry_options.include_heavy = false;
    } else if (arg == "--threads") {
      const char* text = next();
      if (text == nullptr || !ParseInt64(text, &value) || value <= 0) {
        return Usage(argv[0]);
      }
      stress_options.num_threads = static_cast<int>(value);
    } else if (arg == "--iterations") {
      const char* text = next();
      if (text == nullptr || !ParseInt64(text, &value) || value <= 0) {
        return Usage(argv[0]);
      }
      stress_options.iterations_per_thread = static_cast<int>(value);
    } else {
      return Usage(argv[0]);
    }
  }

  if (!replay_dir.empty()) return RunReplayMode(replay_dir);
  if (self_check) return RunSelfCheckMode(options.seed);
  if (stress) return RunStressMode(stress_options);
  if (wire) {
    return wire::Run(options.seed, options.max_cases, options.max_seconds);
  }

  if (options.max_cases == 0 && options.max_seconds == 0) {
    options.max_cases = 10000;  // a default smoke budget
  }

  Alphabet alphabet;
  auto registry = MakeDefaultRegistry(&alphabet, registry_options);
  if (!options.candidate.empty() &&
      registry->Find(options.candidate) == nullptr) {
    std::string valid;
    for (const auto& oracle : registry->oracles()) {
      if (!valid.empty()) valid += ", ";
      valid += oracle->name();
    }
    std::fprintf(stderr,
                 "error: unknown oracle '%s' (valid with these flags: %s)\n",
                 options.candidate.c_str(), valid.c_str());
    return 2;
  }
  Fuzzer fuzzer(registry.get(), &alphabet, options);
  const CampaignResult result = fuzzer.Run();

  std::printf("campaign: %" PRId64 " cases in %.2fs (%.0f cases/s), "
              "fragment %s, seed %" PRIu64 "\n",
              result.cases, result.seconds,
              result.seconds > 0 ? result.cases / result.seconds : 0.0,
              FuzzFragmentToString(options.fragment), options.seed);
  const OracleRegistry::Stats& stats = registry->stats();
  std::printf("oracles: %" PRId64 " comparisons, %" PRId64 " soft skips;",
              stats.comparisons, stats.soft_skips);
  for (const auto& [name, runs] : stats.runs) {
    std::printf(" %s=%" PRId64, name.c_str(), runs);
  }
  std::printf("\n");
  // Which engine Eval picked, over every oracle's runs: how much of the
  // campaign reached each branch of the height dispatch (DESIGN §10.4).
  using Dispatch = xptc::exec::ExecEngine::RunInfo::Dispatch;
  std::printf("exec dispatch:");
  for (Dispatch d : {Dispatch::kRegisterMachine, Dispatch::kDownwardSweep,
                     Dispatch::kDownwardDirect, Dispatch::kGeneral}) {
    const char* name = xptc::exec::ExecEngine::DispatchCounterName(d);
    std::printf(" %s=%" PRId64, name,
                xptc::obs::Registry::Default().counter(name).value());
  }
  std::printf("\n");
  for (const Finding& finding : result.findings) {
    PrintFinding(finding, alphabet);
  }
  if (result.findings.empty()) {
    std::printf("no disagreements\n");
    return 0;
  }
  std::printf("%zu findings\n", result.findings.size());
  return 1;
}
