#ifndef EDGE_OBS_JSON_UTIL_H_
#define EDGE_OBS_JSON_UTIL_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

/// \file
/// Tiny append-style JSON writers shared by the metrics snapshot and the
/// Chrome-trace exporter. Strings are escaped per RFC 8259; non-finite
/// doubles are clamped to +/-1e308 (JSON has no inf/nan) so every document
/// we emit parses.

namespace edge::obs::internal {

inline void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

/// Writes the bytes of printf's "%.17g" in the C locale, which is how the
/// standard defines this to_chars overload — at a fraction of snprintf's
/// cost, which matters at about 57 doubles per served answer.
inline void AppendJsonDouble(std::string* out, double v) {
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v)) v = v > 0 ? 1e308 : -1e308;
  char buf[40];
  const std::to_chars_result written = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out->append(buf, written.ptr);
}

}  // namespace edge::obs::internal

#endif  // EDGE_OBS_JSON_UTIL_H_
