#include "edge/serve/json_codec.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "edge/obs/json_util.h"

namespace edge::serve {

namespace {

using obs::internal::AppendJsonDouble;
using obs::internal::AppendJsonString;

/// Cursor over a flat JSON object. Only the subset edge_serve speaks:
/// one object of string/number/bool/null values, no nesting.
struct JsonCursor {
  const std::string& line;
  size_t pos = 0;
  std::string* error;

  bool Fail(const std::string& message) {
    *error = message + " at offset " + std::to_string(pos);
    return false;
  }

  void SkipSpace() {
    while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
  }

  bool Expect(char c) {
    SkipSpace();
    if (pos >= line.size() || line[pos] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }

  /// Four hex digits of a \u escape -> code unit in [0, 0xFFFF].
  bool ParseHex4(unsigned* code) {
    if (pos + 4 > line.size()) return Fail("truncated \\u escape");
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = line[pos++];
      *code <<= 4;
      if (h >= '0' && h <= '9') *code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') *code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') *code |= static_cast<unsigned>(h - 'A' + 10);
      else return Fail("bad \\u escape");
    }
    return true;
  }

  /// Appends one Unicode code point (<= U+10FFFF) as UTF-8.
  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  /// Length of the well-formed UTF-8 sequence (RFC 3629) whose lead byte,
  /// >= 0x80, is line[at]; 0 when it is malformed: a stray continuation
  /// byte, an overlong form, an encoded surrogate, a code point above
  /// U+10FFFF or a sequence cut short.
  size_t Utf8SequenceLength(size_t at) const {
    auto byte = [this](size_t i) -> unsigned {
      return i < line.size() ? static_cast<unsigned char>(line[i]) : 0u;
    };
    const unsigned lead = byte(at);
    size_t length = 0;
    // Bounds of the second byte; every later byte is 80..BF.
    unsigned low = 0x80;
    unsigned high = 0xBF;
    if (lead >= 0xC2 && lead <= 0xDF) {
      length = 2;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
      length = 3;
      if (lead == 0xE0) low = 0xA0;   // Overlong below U+0800.
      if (lead == 0xED) high = 0x9F;  // U+D800..DFFF are surrogates.
    } else if (lead >= 0xF0 && lead <= 0xF4) {
      length = 4;
      if (lead == 0xF0) low = 0x90;   // Overlong below U+10000.
      if (lead == 0xF4) high = 0x8F;  // Above U+10FFFF.
    } else {
      return 0;  // Continuation byte, C0/C1 overlong lead, or F5..FF.
    }
    for (size_t k = 1; k < length; ++k) {
      const unsigned b = byte(at + k);
      if (b < (k == 1 ? low : 0x80u) || b > (k == 1 ? high : 0xBFu)) return 0;
    }
    return length;
  }

  bool ParseString(std::string* out) {
    SkipSpace();
    if (pos >= line.size() || line[pos] != '"') return Fail("expected string");
    ++pos;
    out->clear();
    while (pos < line.size()) {
      char c = line[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) >= 0x80) {
        // Strings are echoed into answers (the id, a failed reload's path),
        // and an answer must stay JSON, so only well-formed UTF-8 gets in.
        --pos;  // Back to the lead byte: the offset Fail reports.
        const size_t length = Utf8SequenceLength(pos);
        if (length == 0) return Fail("invalid UTF-8 in string");
        out->append(line, pos, length);
        pos += length;
        continue;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= line.size()) break;
      char esc = line[pos++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          unsigned code = 0;
          if (!ParseHex4(&code)) return false;
          // UTF-16 surrogate halves are not code points. A high surrogate
          // must pair with an immediately following \u-escaped low half
          // (emoji tweets arrive exactly this way: "😀" is 😀);
          // either half alone has no valid UTF-8 encoding.
          if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("unpaired low surrogate");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos + 2 > line.size() || line[pos] != '\\' ||
                line[pos + 1] != 'u') {
              return Fail("unpaired high surrogate");
            }
            pos += 2;
            unsigned low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("unpaired high surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(out, code);
          break;
        }
        default: return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  /// Strict JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
  /// strtod would also accept "nan", "inf", hex floats and leading zeros —
  /// and a NaN deadline slips past every "< 0" validation gate downstream, so
  /// the wire grammar is validated before any conversion and the converted
  /// value must be finite.
  bool ParseNumber(double* out) {
    SkipSpace();
    const size_t start = pos;
    size_t p = pos;
    auto is_digit = [this](size_t i) {
      return i < line.size() && line[i] >= '0' && line[i] <= '9';
    };
    if (p < line.size() && line[p] == '-') ++p;
    if (!is_digit(p)) return Fail("expected number");
    if (line[p] == '0') {
      ++p;  // JSON forbids leading zeros: "0123" is not a number.
    } else {
      while (is_digit(p)) ++p;
    }
    if (p < line.size() && line[p] == '.') {
      ++p;
      if (!is_digit(p)) return Fail("missing fraction digits");
      while (is_digit(p)) ++p;
    }
    if (p < line.size() && (line[p] == 'e' || line[p] == 'E')) {
      ++p;
      if (p < line.size() && (line[p] == '+' || line[p] == '-')) ++p;
      if (!is_digit(p)) return Fail("missing exponent digits");
      while (is_digit(p)) ++p;
    }
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(line.data() + start, line.data() + p, v);
    if (ec == std::errc::result_out_of_range) {
      // e.g. "1e999": syntactically JSON, but there is no finite double and
      // non-finite values poison every arithmetic gate downstream.
      pos = p;
      return Fail("number out of range");
    }
    if (ec != std::errc() || ptr != line.data() + p) return Fail("expected number");
    pos = p;
    *out = v;
    return true;
  }

  bool ParseBool(bool* out) {
    SkipSpace();
    if (line.compare(pos, 4, "true") == 0) {
      pos += 4;
      *out = true;
      return true;
    }
    if (line.compare(pos, 5, "false") == 0) {
      pos += 5;
      *out = false;
      return true;
    }
    return Fail("expected true or false");
  }

  /// Skips a scalar value we don't care about. The skipped token must still
  /// be a valid JSON scalar (string/number/true/false/null): the old
  /// skip-to-delimiter loop advanced zero characters over {"x":} and happily
  /// swallowed bare garbage, reporting success for lines that were never
  /// JSON.
  bool SkipScalar() {
    SkipSpace();
    if (pos >= line.size()) return Fail("expected value");
    char c = line[pos];
    if (c == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    if (c == '{' || c == '[') return Fail("nested values are not supported");
    if (c == 't' || c == 'f') {
      bool ignored;
      return ParseBool(&ignored);
    }
    if (c == 'n') {
      if (line.compare(pos, 4, "null") == 0) {
        pos += 4;
        return true;
      }
      return Fail("expected value");
    }
    double ignored;
    return ParseNumber(&ignored);
  }
};

void AppendLatLonObject(std::string* out, const geo::LatLon& p) {
  *out += "{\"lat\":";
  AppendJsonDouble(out, p.lat);
  *out += ",\"lon\":";
  AppendJsonDouble(out, p.lon);
  out->push_back('}');
}

}  // namespace

bool ParseRequestLine(const std::string& line, ServeRequest* request,
                      std::string* error) {
  *request = ServeRequest();
  size_t first = line.find_first_not_of(" \t\r\n");
  if (first == std::string::npos || line[first] != '{') {
    // Raw text line (possibly empty): the whole line is the tweet.
    request->text = line;
    return true;
  }

  JsonCursor cursor{line, first, error};
  if (!cursor.Expect('{')) return false;
  // A JSON object must end up carrying text or a control verb: "{}" and
  // objects of only unknown keys (e.g. a typo'd verb) used to parse as an
  // empty-text prediction, silently answering the fallback prior.
  auto check_payload = [&]() {
    if (request->has_text || !request->reload_path.empty() || request->stats ||
        request->health) {
      return true;
    }
    return cursor.Fail(
        "request object needs \"text\" or a control verb "
        "(reload/stats/health)");
  };
  // One object per line is the whole grammar: anything but whitespace after
  // the closing '}' (a second object, stray bytes) is a framing error, not a
  // request.
  auto check_end = [&]() {
    cursor.SkipSpace();
    if (cursor.pos < line.size()) {
      return cursor.Fail("trailing characters after object");
    }
    return check_payload();
  };
  cursor.SkipSpace();
  if (cursor.pos < line.size() && line[cursor.pos] == '}') {
    ++cursor.pos;
    return check_end();
  }
  for (;;) {
    std::string key;
    if (!cursor.ParseString(&key)) return false;
    if (!cursor.Expect(':')) return false;
    if (key == "text") {
      if (!cursor.ParseString(&request->text)) return false;
      request->has_text = true;
    } else if (key == "id") {
      if (!cursor.ParseString(&request->id)) return false;
    } else if (key == "deadline_ms") {
      if (!cursor.ParseNumber(&request->deadline_ms)) return false;
      if (request->deadline_ms < 0.0) {
        return cursor.Fail("deadline_ms must be >= 0");
      }
    } else if (key == "reload") {
      if (!cursor.ParseString(&request->reload_path)) return false;
      if (request->reload_path.empty()) {
        return cursor.Fail("reload path must be non-empty");
      }
    } else if (key == "stats") {
      if (!cursor.ParseBool(&request->stats)) return false;
      if (!request->stats) return cursor.Fail("stats must be true");
    } else if (key == "health") {
      if (!cursor.ParseBool(&request->health)) return false;
      if (!request->health) return cursor.Fail("health must be true");
    } else {
      if (!cursor.SkipScalar()) return false;
    }
    cursor.SkipSpace();
    if (cursor.pos >= line.size()) return cursor.Fail("unterminated object");
    if (line[cursor.pos] == ',') {
      ++cursor.pos;
      continue;
    }
    if (line[cursor.pos] == '}') {
      ++cursor.pos;
      return check_end();
    }
    return cursor.Fail("expected ',' or '}'");
  }
}

std::string ResponseToJsonLine(const ServeResponse& response,
                               const core::EdgeModel& model,
                               const std::string& id,
                               bool include_latency) {
  const geo::LocalProjection& projection = model.projection();
  const core::EdgePrediction& prediction = response.prediction;

  std::string out;
  out.reserve(512);
  out.push_back('{');
  if (!id.empty()) {
    out += "\"id\":";
    AppendJsonString(&out, id);
    out.push_back(',');
  }
  out += "\"point\":";
  AppendLatLonObject(&out, prediction.point);

  out += ",\"components\":[";
  for (size_t m = 0; m < prediction.mixture.num_components(); ++m) {
    if (m > 0) out.push_back(',');
    const geo::Gaussian2d& g = prediction.mixture.component(m);
    geo::ConfidenceEllipse ellipse = g.EllipseAt(0.95);
    out += "{\"weight\":";
    AppendJsonDouble(&out, prediction.mixture.weight(m));
    out += ",\"center\":";
    AppendLatLonObject(&out, projection.ToLatLon(g.mean()));
    out += ",\"sigma_x_km\":";
    AppendJsonDouble(&out, g.sigma_x());
    out += ",\"sigma_y_km\":";
    AppendJsonDouble(&out, g.sigma_y());
    out += ",\"rho\":";
    AppendJsonDouble(&out, g.rho());
    out += ",\"ellipse95\":{\"center\":";
    AppendLatLonObject(&out, projection.ToLatLon(ellipse.center));
    out += ",\"semi_major_km\":";
    AppendJsonDouble(&out, ellipse.semi_major);
    out += ",\"semi_minor_km\":";
    AppendJsonDouble(&out, ellipse.semi_minor);
    out += ",\"angle_rad\":";
    AppendJsonDouble(&out, ellipse.angle_rad);
    out += "}}";
  }
  out.push_back(']');

  out += ",\"attention\":[";
  for (size_t i = 0; i < prediction.attention.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"entity\":";
    AppendJsonString(&out, prediction.attention[i].entity);
    out += ",\"weight\":";
    AppendJsonDouble(&out, prediction.attention[i].weight);
    out.push_back('}');
  }
  out.push_back(']');

  out += ",\"used_fallback\":";
  out += prediction.used_fallback ? "true" : "false";
  out += ",\"from_cache\":";
  out += response.from_cache ? "true" : "false";
  out += ",\"degraded\":";
  out += response.degraded ? "true" : "false";
  out += ",\"degrade_reason\":\"";
  out += DegradeReasonName(response.degrade_reason);
  out.push_back('"');
  if (include_latency) {
    out += ",\"latency_ms\":";
    AppendJsonDouble(&out, response.latency_ms);
    // The waterfall rides with latency_ms: both are wall-clock measurements
    // excluded from the canonical (digested) form of a response.
    if (response.telemetry.request_id != 0) {
      const RequestTelemetry& t = response.telemetry;
      out += ",\"telemetry\":{\"request_id\":" + std::to_string(t.request_id);
      out += ",\"generation\":" + std::to_string(t.model_generation);
      out += ",\"batch_size\":" + std::to_string(t.batch_size);
      out += ",\"stages\":{\"ner_ms\":";
      AppendJsonDouble(&out, t.ner_ms);
      out += ",\"cache_ms\":";
      AppendJsonDouble(&out, t.cache_ms);
      out += ",\"queue_ms\":";
      AppendJsonDouble(&out, t.queue_ms);
      out += ",\"batch_ms\":";
      AppendJsonDouble(&out, t.batch_ms);
      out += ",\"predict_ms\":";
      AppendJsonDouble(&out, t.predict_ms);
      out += ",\"total_ms\":";
      AppendJsonDouble(&out, t.total_ms);
      out += "}}";
    }
  }
  out.push_back('}');
  return out;
}

}  // namespace edge::serve
