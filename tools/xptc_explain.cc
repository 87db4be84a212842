// EXPLAIN driver over the observability layer (src/obs/): runs one Regular
// XPath(W) query through the full serving pipeline — PlanCache parse +
// lowering, hybrid compiled execution, interpreter cross-check — under one
// traced RequestScope, and renders the annotated plan dump: per-instruction
// execution counts, the dispatch decision (register machine vs. one-pass
// downward sweep, with the tree height and R(H) against the budget),
// star fixpoint rounds, per-axis-kernel node touches, and cache-hit
// provenance, all reconciled bit for bit against the metrics registry's
// delta for the query. See DESIGN.md §11 and README for usage.
//
// Exit codes: 0 = explained, trace consistent with the registry and the
// interpreter cross-check matched; 1 = inconsistent or mismatched;
// 2 = usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/explain.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --query QUERY [options]\n"
      "\n"
      "document (default: a generated tree)\n"
      "  --xml FILE          evaluate over the XML document in FILE\n"
      "                      ('-' reads stdin)\n"
      "  --gen-nodes N       generated tree size (default 64)\n"
      "  --gen-shape S       uniform|chain|star|binary|kary|comb|caterpillar\n"
      "                      (default uniform)\n"
      "  --gen-seed N        generator seed (default 1)\n"
      "  --gen-labels N      label universe size (default 4)\n"
      "\n"
      "output\n"
      "  --json              emit one machine-readable JSON object\n"
      "  --with-times        include elapsed_ns timings (nondeterministic;\n"
      "                      off by default so output is golden-testable)\n",
      argv0);
  return 2;
}

bool ParseInt(const char* text, int64_t* out) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  xptc::obs::ExplainOptions options;
  std::string xml_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    int64_t value = 0;
    if (arg == "--query") {
      const char* text = next();
      if (text == nullptr) return Usage(argv[0]);
      options.query = text;
    } else if (arg == "--xml") {
      const char* path = next();
      if (path == nullptr) return Usage(argv[0]);
      xml_path = path;
    } else if (arg == "--gen-nodes") {
      const char* text = next();
      if (text == nullptr || !ParseInt(text, &value) || value <= 0) {
        return Usage(argv[0]);
      }
      options.gen_nodes = static_cast<int>(value);
    } else if (arg == "--gen-shape") {
      const char* text = next();
      if (text == nullptr) return Usage(argv[0]);
      options.gen_shape = text;
    } else if (arg == "--gen-seed") {
      const char* text = next();
      if (text == nullptr || !ParseInt(text, &value)) return Usage(argv[0]);
      options.gen_seed = static_cast<uint64_t>(value);
    } else if (arg == "--gen-labels") {
      const char* text = next();
      if (text == nullptr || !ParseInt(text, &value) || value <= 0) {
        return Usage(argv[0]);
      }
      options.gen_labels = static_cast<int>(value);
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--with-times") {
      options.with_times = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.query.empty()) return Usage(argv[0]);

  if (!xml_path.empty()) {
    std::ostringstream buffer;
    if (xml_path == "-") {
      buffer << std::cin.rdbuf();
    } else {
      std::ifstream in(xml_path);
      if (!in) {
        std::fprintf(stderr, "error: cannot read %s\n", xml_path.c_str());
        return 2;
      }
      buffer << in.rdbuf();
    }
    options.xml = buffer.str();
  }

  const auto output = xptc::obs::ExplainQuery(options);
  if (!output.ok()) {
    std::fprintf(stderr, "error: %s\n", output.status().ToString().c_str());
    return 2;
  }
  const xptc::obs::ExplainOutput& explained = output.ValueOrDie();
  std::fputs(explained.rendered.c_str(), stdout);
  return explained.consistent && explained.match ? 0 : 1;
}
