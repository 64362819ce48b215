#ifndef EDGE_OBS_LOG_H_
#define EDGE_OBS_LOG_H_

#include <sstream>
#include <string>

/// \file
/// Leveled, thread-safe structured logging for the EDGE stack.
///
///   EDGE_LOG(INFO) << "epoch done" << edge::obs::Kv("nll", 1.23)
///                  << edge::obs::Kv("epoch", 7);
///
/// renders one line — `2026-08-05T12:34:56.789 I edge_model.cc:215 tid=0]
/// epoch done nll=1.23 epoch=7` — atomically (whole line under one lock) to
/// stderr and/or a file sink, so concurrent writers never interleave.
///
/// The threshold defaults to INFO, is settable via SetLogLevel(), and is
/// seeded from the EDGE_LOG_LEVEL environment variable
/// (trace|debug|info|warn|error|off) on first use. A disabled statement costs
/// one relaxed atomic load and never evaluates its stream operands.

namespace edge::obs {

enum class LogLevel {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Parses "trace"/"debug"/"info"/"warn"/"error"/"off" (case-insensitive);
/// returns false (and leaves *out alone) for anything else.
bool ParseLogLevel(const std::string& text, LogLevel* out);

/// The short display name ("INFO", "WARN", ...).
const char* LogLevelName(LogLevel level);

/// Sets the process-wide threshold: statements below it are dropped.
void SetLogLevel(LogLevel level);

/// Current threshold (reads EDGE_LOG_LEVEL the first time it is consulted).
LogLevel GetLogLevel();

/// True when a statement at `level` would be emitted.
bool LogEnabled(LogLevel level);

/// Mirrors log lines to a file (append). An empty path closes the file sink.
/// Returns false (and logs nothing to the file) when the path cannot be
/// opened. The stderr sink is independent — see SetLogToStderr().
bool SetLogFile(const std::string& path);

/// Enables/disables the stderr sink (on by default).
void SetLogToStderr(bool enabled);

/// A small dense thread id (0 for the first logging thread, 1 for the next,
/// ...) — stable for the thread's lifetime and far more readable than
/// std::thread::id. Shared with the trace-span exporter.
int DenseThreadId();

/// A key=value structured field. Build with Kv() so any streamable value
/// works; fields render as ` key=value` appended to the message. Values may
/// carry client bytes (a reload path), so they render escaped: `\\`, `\n`,
/// `\r`, `\t`, and `\xHH` for any other byte below 0x20 and for 0x7f. One
/// statement stays one line.
struct LogField {
  std::string key;
  std::string value;
};

template <typename T>
LogField Kv(const std::string& key, const T& value) {
  std::ostringstream os;
  os << value;
  return LogField{key, os.str()};
}

/// One log statement: collects the streamed message and writes it to the
/// sinks on destruction (end of the full expression).
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  LogMessage& operator<<(const LogField& field);

  template <typename T>
  LogMessage& operator<<(const T& value) {
    message_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream message_;
  std::ostringstream fields_;
};

namespace internal {
inline constexpr LogLevel kSeverity_TRACE = LogLevel::kTrace;
inline constexpr LogLevel kSeverity_DEBUG = LogLevel::kDebug;
inline constexpr LogLevel kSeverity_INFO = LogLevel::kInfo;
inline constexpr LogLevel kSeverity_WARN = LogLevel::kWarn;
inline constexpr LogLevel kSeverity_ERROR = LogLevel::kError;
}  // namespace internal

}  // namespace edge::obs

/// `EDGE_LOG(INFO) << ...` — operands are not evaluated when filtered out.
/// The `if/else` shape keeps the macro safe under a dangling `else`.
#define EDGE_LOG(severity)                                                  \
  if (!::edge::obs::LogEnabled(::edge::obs::internal::kSeverity_##severity)) { \
  } else                                                                    \
    ::edge::obs::LogMessage(::edge::obs::internal::kSeverity_##severity,    \
                            __FILE__, __LINE__)

#endif  // EDGE_OBS_LOG_H_
