#ifndef XPTC_COMMON_JSON_H_
#define XPTC_COMMON_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace xptc {

/// Appends `s` as a JSON string literal, quotes included. Escapes `"` and
/// `\`, spells \n \r \t, and writes every other control character as
/// \u00XX, so any byte string (query texts, peers, notes) renders valid
/// JSON. Bytes >= 0x80 pass through unchanged.
inline void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

/// `s` as a JSON string literal, quotes included.
inline std::string JsonString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendJsonString(&out, s);
  return out;
}

}  // namespace xptc

#endif  // XPTC_COMMON_JSON_H_
