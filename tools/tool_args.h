#ifndef EDGE_TOOLS_TOOL_ARGS_H_
#define EDGE_TOOLS_TOOL_ARGS_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "edge/common/status.h"
#include "edge/data/io.h"
#include "edge/obs/exporter.h"
#include "edge/obs/log.h"
#include "edge/obs/metrics.h"
#include "edge/obs/trace.h"
#include "edge/text/ner.h"

/// \file
/// Flag parsing and the shared observability flags (--log-level,
/// --metrics-out, --trace-out, --metrics-export) for the command-line tools.
/// Header-only so a tool is still a single .cc file.

namespace edge::tools {

/// Minimal --flag value parser; arguments without '--' are rejected. `first`
/// is the index of the first flag (2 for subcommand tools like edge_cli, 1
/// for flat tools like edge_serve). Every accessor records the flag it looked
/// up, so a tool can reject the flags it never read (Unread()).
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
        ok_ = false;
        return;
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
    // A trailing no-value flag is also an error, except boolean switches
    // handled by Has() with an explicit "true".
    if (argc > first && (argc - first) % 2 != 0) {
      const char* last = argv[argc - 1];
      if (std::strncmp(last, "--", 2) == 0) {
        values_[last + 2] = "true";
      } else {
        std::fprintf(stderr, "dangling argument: %s\n", last);
        ok_ = false;
      }
    }
  }

  bool ok() const { return ok_; }
  bool Has(const std::string& key) const {
    read_.insert(key);
    return values_.count(key) > 0;
  }
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    read_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// Strict integer flag: the whole value must parse (from_chars), so
  /// "--epochs=ten" or "--epochs 10x" is a hard error (stderr + ok() false)
  /// rather than atol's silent 0. Tools re-check ok() after reading flags.
  long GetInt(const std::string& key, long fallback) const {
    read_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    long value = 0;
    auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size()) {
      std::fprintf(stderr, "--%s: '%s' is not an integer\n", key.c_str(),
                   text.c_str());
      ok_ = false;
      return fallback;
    }
    return value;
  }

  /// Strict double flag: whole-value parse plus a finiteness check ("inf"
  /// and "nan" are valid from_chars doubles but never valid tool flags).
  double GetDouble(const std::string& key, double fallback) const {
    read_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    double value = 0.0;
    auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size() ||
        !std::isfinite(value)) {
      std::fprintf(stderr, "--%s: '%s' is not a finite number\n", key.c_str(),
                   text.c_str());
      ok_ = false;
      return fallback;
    }
    return value;
  }

  /// Flags given on the command line that no accessor has read, in name
  /// order. Meaningful once the tool has read every flag it supports.
  std::vector<std::string> Unread() const {
    std::vector<std::string> unread;
    for (const auto& [key, value] : values_) {
      if (read_.count(key) == 0) unread.push_back(key);
    }
    return unread;
  }

 private:
  std::map<std::string, std::string> values_;
  /// Strict accessors flag malformed values on a const Args — mutable keeps
  /// the call sites (`const Args&` everywhere) unchanged.
  mutable bool ok_ = true;
  mutable std::set<std::string> read_;
};

/// Reports every unread flag on stderr; true when there is none. Call after
/// the last read so a misspelled or removed flag fails loudly instead of
/// being ignored.
inline bool NoUnreadFlags(const Args& args) {
  std::vector<std::string> unread = args.Unread();
  for (const std::string& key : unread) {
    std::fprintf(stderr, "unknown or unused flag --%s\n", key.c_str());
  }
  return unread.empty();
}

/// Applies the observability flags before the tool runs; returns false on a
/// malformed value. It reads all three flags, --metrics-out too (written by
/// FlushObservability at exit), so NoUnreadFlags counts them as known.
inline bool SetupObservability(const Args& args) {
  args.Has("metrics-out");
  std::string level_text = args.Get("log-level");
  if (!level_text.empty()) {
    obs::LogLevel level;
    if (!obs::ParseLogLevel(level_text, &level)) {
      std::fprintf(stderr, "unknown --log-level '%s'\n", level_text.c_str());
      return false;
    }
    obs::SetLogLevel(level);
  }
  if (args.Has("trace-out")) obs::StartTracing();
  return true;
}

/// Writes the --metrics-out snapshot and --trace-out export, if requested.
inline void FlushObservability(const Args& args) {
  std::string metrics_path = args.Get("metrics-out");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    out << obs::Registry::Global().ToJson();
    if (out.good()) {
      std::fprintf(stderr, "wrote metrics snapshot to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "metrics write failed: %s\n", metrics_path.c_str());
    }
  }
  std::string trace_path = args.Get("trace-out");
  if (!trace_path.empty() && obs::WriteTrace(trace_path)) {
    std::fprintf(stderr, "wrote Chrome trace to %s (open at chrome://tracing)\n",
                 trace_path.c_str());
  }
}

/// Builds the periodic --metrics-export exporter when the flag is present
/// (null otherwise). The period comes from --metrics-export-every, overridden
/// by the EDGE_METRICS_EXPORT_EVERY environment variable; default 10 s.
/// `payload` overrides the default whole-registry snapshot (edge_serve wraps
/// it with a health section). Destroying the returned exporter performs a
/// final export, so tools just let it fall out of scope at exit.
inline std::unique_ptr<obs::MetricsExporter> MakeMetricsExporter(
    const Args& args, std::function<std::string()> payload = nullptr) {
  std::string path = args.Get("metrics-export");
  if (path.empty()) return nullptr;
  obs::MetricsExporter::Options options;
  options.path = std::move(path);
  options.period_seconds = obs::MetricsExporter::PeriodFromEnv(
      args.GetDouble("metrics-export-every", 10.0));
  options.payload = std::move(payload);
  if (!args.ok()) return nullptr;
  return std::make_unique<obs::MetricsExporter>(std::move(options));
}

/// Reads a gazetteer TSV (see edge/data/io.h).
inline Result<text::Gazetteer> LoadGazetteer(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return Status::NotFound("cannot open " + path);
  return data::ReadGazetteerTsv(&in);
}

}  // namespace edge::tools

#endif  // EDGE_TOOLS_TOOL_ARGS_H_
