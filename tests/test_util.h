#ifndef XPTC_TESTS_TEST_UTIL_H_
#define XPTC_TESTS_TEST_UTIL_H_

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/alphabet.h"
#include "common/rng.h"
#include "tree/generate.h"
#include "tree/tree.h"
#include "xpath/ast.h"
#include "xpath/parser.h"

namespace xptc {
namespace testing_util {

/// Parses a term tree, aborting on failure (test fixtures only).
inline Tree T(const std::string& term, Alphabet* alphabet) {
  return Tree::FromTerm(term, alphabet).ValueOrDie();
}

/// Parses a path expression, aborting on failure.
inline PathPtr P(const std::string& text, Alphabet* alphabet) {
  return ParsePath(text, alphabet).ValueOrDie();
}

/// Parses a node expression, aborting on failure.
inline NodePtr N(const std::string& text, Alphabet* alphabet) {
  return ParseNode(text, alphabet).ValueOrDie();
}

/// A deterministic mixed-shape corpus of trees for property tests.
inline std::vector<Tree> CorpusTrees(Alphabet* alphabet, int num_labels,
                                     int max_nodes, uint64_t seed) {
  Rng rng(seed);
  const std::vector<Symbol> labels = DefaultLabels(alphabet, num_labels);
  std::vector<Tree> trees;
  const TreeShape shapes[] = {
      TreeShape::kUniformRecursive, TreeShape::kChain,
      TreeShape::kStar,             TreeShape::kFullBinary,
      TreeShape::kComb,             TreeShape::kCaterpillar,
  };
  for (TreeShape shape : shapes) {
    for (int n : {1, 2, 3, 5, 8, max_nodes}) {
      TreeGenOptions options;
      options.num_nodes = n;
      options.shape = shape;
      trees.push_back(GenerateTree(options, labels, &rng));
    }
  }
  return trees;
}

/// Strict RFC 8259 check: exactly one JSON value plus surrounding
/// whitespace. Rejects what lenient parsers let through — raw control
/// characters inside strings, bad escapes, trailing commas, leading zeros.
class JsonChecker {
 public:
  static bool Valid(std::string_view text) {
    JsonChecker c(text);
    c.SkipWs();
    if (!c.Value(0)) return false;
    c.SkipWs();
    return c.pos_ == text.size();
  }

 private:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool At(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  bool Eat(char c) {
    if (!At(c)) return false;
    ++pos_;
    return true;
  }
  bool Digit() const {
    return pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9';
  }
  void Digits() {
    while (Digit()) ++pos_;
  }
  void SkipWs() {
    while (At(' ') || At('\t') || At('\n') || At('\r')) ++pos_;
  }
  bool Value(int depth) {
    if (depth > 512 || pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Container('}', depth, /*keyed=*/true);
      case '[': return Container(']', depth, /*keyed=*/false);
      case '"': return String();
      case 't': return Word("true");
      case 'f': return Word("false");
      case 'n': return Word("null");
      default: return Number();
    }
  }
  bool Container(char close, int depth, bool keyed) {
    ++pos_;
    SkipWs();
    if (Eat(close)) return true;
    for (;;) {
      if (keyed) {
        if (!String()) return false;
        SkipWs();
        if (!Eat(':')) return false;
        SkipWs();
      }
      if (!Value(depth + 1)) return false;
      SkipWs();
      if (Eat(close)) return true;
      if (!Eat(',')) return false;
      SkipWs();
    }
  }
  bool String() {
    if (!Eat('"')) return false;
    while (pos_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      if (e == 'u') {
        for (int i = 0; i < 4; ++i, ++pos_) {
          if (pos_ >= s_.size() || std::strchr("0123456789abcdefABCDEF",
                                               s_[pos_]) == nullptr) {
            return false;
          }
        }
      } else if (std::strchr("\"\\/bfnrt", e) == nullptr || e == '\0') {
        return false;
      }
    }
    return false;
  }
  bool Word(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool Number() {
    Eat('-');
    if (Eat('0')) {
      if (Digit()) return false;
    } else if (Digit()) {
      Digits();
    } else {
      return false;
    }
    if (Eat('.')) {
      if (!Digit()) return false;
      Digits();
    }
    if (Eat('e') || Eat('E')) {
      if (!Eat('+')) Eat('-');
      if (!Digit()) return false;
      Digits();
    }
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace testing_util
}  // namespace xptc

#endif  // XPTC_TESTS_TEST_UTIL_H_
