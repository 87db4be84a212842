#include "bench_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "testing/corpus.h"

namespace xptc {
namespace bench {

void RequireOptimizedBuild() {
#ifndef NDEBUG
  const char* allow = std::getenv("XPTC_ALLOW_DEBUG_BENCH");
  if (allow != nullptr && allow[0] != '\0' && allow[0] != '0') {
    std::fprintf(stderr,
                 "WARNING: benchmark built without NDEBUG; numbers are not "
                 "comparable (XPTC_ALLOW_DEBUG_BENCH set, continuing).\n");
    return;
  }
  std::fprintf(stderr,
               "FATAL: benchmark binary was built without NDEBUG (Debug "
               "build?). Rebuild with -DCMAKE_BUILD_TYPE=RelWithDebInfo or "
               "Release, or set XPTC_ALLOW_DEBUG_BENCH=1 to override.\n");
  std::exit(1);
#endif
}

void PrintHeader(const std::string& id, const std::string& claim,
                 const std::string& protocol) {
  RequireOptimizedBuild();
  std::printf("\n================================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("Claim reproduced : %s\n", claim.c_str());
  std::printf("Protocol         : %s\n", protocol.c_str());
  std::printf("================================================================\n");
}

void PrintRow(const std::vector<std::string>& cells, int width) {
  for (const std::string& cell : cells) {
    std::printf("%*s", width, cell.c_str());
  }
  std::printf("\n");
}

double MedianSeconds(const std::function<void()>& fn, int reps) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    times.push_back(std::chrono::duration<double>(end - start).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

Tree BenchTree(Alphabet* alphabet, int num_nodes, TreeShape shape,
               uint64_t seed, int num_labels) {
  Rng rng(seed);
  const std::vector<Symbol> labels = DefaultLabels(alphabet, num_labels);
  TreeGenOptions options;
  options.num_nodes = num_nodes;
  options.shape = shape;
  return GenerateTree(options, labels, &rng);
}

std::string Fmt(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string DumpMismatchCase(const Tree& tree, const Alphabet& alphabet,
                             const std::string& query_text,
                             const std::string& comment) {
  testing::CorpusCase c;
  c.xml = testing::CompactXml(tree, alphabet);
  c.query = query_text;
  const std::string path = "bench-mismatch.case";
  const Status status = testing::WriteCaseFile(path, c, comment);
  return status.ok() ? path : std::string();
}

double MedianSecondsN(const std::function<void()>& fn, int inner, int reps) {
  if (inner < 1) inner = 1;
  return MedianSeconds([&] { for (int i = 0; i < inner; ++i) fn(); }, reps) /
         inner;
}

bool SmokeMode() {
  const char* value = std::getenv("XPTC_BENCH_SMOKE");
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

std::string BenchJsonPath() {
  const char* value = std::getenv("XPTC_BENCH_JSON");
  return (value != nullptr && value[0] != '\0') ? value : "BENCH_eval.json";
}

std::string ThroughputJsonPath() {
  const char* value = std::getenv("XPTC_BENCH_THROUGHPUT_JSON");
  return (value != nullptr && value[0] != '\0') ? value
                                                : "BENCH_throughput.json";
}

std::string CompiledJsonPath() {
  const char* value = std::getenv("XPTC_BENCH_COMPILED_JSON");
  return (value != nullptr && value[0] != '\0') ? value
                                                : "BENCH_compiled.json";
}

std::string KernelsJsonPath() {
  const char* value = std::getenv("XPTC_BENCH_KERNELS_JSON");
  return (value != nullptr && value[0] != '\0') ? value
                                                : "BENCH_kernels.json";
}

std::string AxisJsonPath() {
  const char* value = std::getenv("XPTC_BENCH_AXIS_JSON");
  return (value != nullptr && value[0] != '\0') ? value : "BENCH_axis.json";
}

std::string ServingJsonPath() {
  const char* value = std::getenv("XPTC_BENCH_SERVING_JSON");
  return (value != nullptr && value[0] != '\0') ? value
                                                : "BENCH_serving.json";
}

namespace {

// Splits the body of a top-level JSON object into (key, raw-value) pairs.
// Only has to understand JSON that this module itself wrote, but tracks
// strings and brace/bracket depth so nested objects pass through intact.
std::vector<std::pair<std::string, std::string>> ParseTopLevel(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> sections;
  size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '{') return sections;
  ++i;
  for (;;) {
    skip_ws();
    if (i >= text.size() || text[i] == '}') break;
    if (text[i] == ',') { ++i; continue; }
    if (text[i] != '"') break;  // malformed: stop, keep what we have
    ++i;
    std::string key;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) ++i;
      key.push_back(text[i++]);
    }
    ++i;  // closing quote
    skip_ws();
    if (i >= text.size() || text[i] != ':') break;
    ++i;
    skip_ws();
    const size_t start = i;
    int depth = 0;
    bool in_string = false;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) break;  // end of enclosing object
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
    }
    std::string value = text.substr(start, i - start);
    while (!value.empty() &&
           std::isspace(static_cast<unsigned char>(value.back()))) {
      value.pop_back();
    }
    // A truncated file ({"key": <EOF>) parses to an empty value; keeping
    // it would re-serialize as invalid JSON. Drop it — the caller's merge
    // treats the section as absent and writes a fresh one.
    if (value.empty()) continue;
    sections.emplace_back(std::move(key), std::move(value));
  }
  return sections;
}

}  // namespace

std::string SpeedupCasesJson(const std::vector<SpeedupCase>& cases) {
  std::ostringstream out;
  out << "{\"smoke\": " << (SmokeMode() ? "true" : "false") << ", \"cases\": [";
  for (size_t i = 0; i < cases.size(); ++i) {
    const SpeedupCase& c = cases[i];
    const double speedup =
        c.opt_seconds > 0 ? c.naive_seconds / c.opt_seconds : 0;
    if (i > 0) out << ", ";
    out << "{\"name\": " << JsonString(c.name)
        << ", \"query\": " << JsonString(c.query) << ", \"n\": " << c.n
        << ", \"naive_seconds\": " << Fmt(c.naive_seconds, 6)
        << ", \"opt_seconds\": " << Fmt(c.opt_seconds, 6)
        << ", \"speedup\": " << Fmt(speedup, 2)
        << ", \"match\": " << (c.match ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

bool UpdateBenchJson(const std::string& path, const std::string& key,
                     const std::string& section_json) {
  // Serialise the whole read-merge-write cycle: concurrent in-process
  // writers (multi-threaded benches) must not interleave file I/O.
  static std::mutex* mu = new std::mutex;  // leaked: safe at any exit order
  std::lock_guard<std::mutex> lock(*mu);
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      existing = buffer.str();
    }
  }
  auto sections = ParseTopLevel(existing);
  bool replaced = false;
  for (auto& [k, v] : sections) {
    if (k == key) {
      v = section_json;
      replaced = true;
    }
  }
  if (!replaced) sections.emplace_back(key, section_json);
  // Write-to-temp + rename: a bench that crashes (or is killed) mid-write
  // must never leave a truncated BENCH_*.json behind — the old file stays
  // intact until the new one is durably complete, and rename(2) swaps them
  // atomically on POSIX filesystems.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) return false;
    out << "{\n";
    for (size_t i = 0; i < sections.size(); ++i) {
      out << "  " << JsonString(sections[i].first) << ": "
          << sections[i].second;
      if (i + 1 < sections.size()) out << ",";
      out << "\n";
    }
    out << "}\n";
    out.flush();
    if (!out.good()) {
      std::remove(tmp_path.c_str());
      return false;
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

}  // namespace bench
}  // namespace xptc
