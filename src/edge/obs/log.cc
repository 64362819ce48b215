#include "edge/obs/log.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>

#include "edge/common/check.h"

namespace edge::obs {

namespace {

constexpr int kUnsetLevel = -1;

/// Threshold storage: kUnsetLevel until the first query, which resolves the
/// EDGE_LOG_LEVEL environment variable exactly once.
std::atomic<int> g_level{kUnsetLevel};

std::mutex g_sink_mu;
std::FILE* g_file_sink = nullptr;     // Guarded by g_sink_mu.
std::atomic<bool> g_stderr_sink{true};

LogLevel ResolveInitialLevel() {
  const char* env = std::getenv("EDGE_LOG_LEVEL");
  LogLevel level = LogLevel::kInfo;
  if (env != nullptr && !ParseLogLevel(env, &level)) {
    std::fprintf(stderr, "edge::obs: ignoring unknown EDGE_LOG_LEVEL '%s'\n", env);
  }
  return level;
}

/// Writes one already-rendered line to every active sink, atomically with
/// respect to other loggers (single lock spans both sinks).
void WriteLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  if (g_stderr_sink.load(std::memory_order_relaxed)) {
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
  }
  if (g_file_sink != nullptr) {
    std::fwrite(line.data(), 1, line.size(), g_file_sink);
    std::fflush(g_file_sink);
  }
}

/// EDGE_CHECK failures route through the same sinks so fatal diagnostics land
/// next to the structured log they interrupt (the process still aborts).
void CheckFailureToSinks(const char* message) {
  std::string line(message);
  line += '\n';
  WriteLine(line);
}

/// Installs the EDGE_CHECK hook for every binary that links edge_obs.
const bool g_check_hook_installed = [] {
  edge::internal::SetCheckFailureHandler(&CheckFailureToSinks);
  return true;
}();

const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

}  // namespace

bool ParseLogLevel(const std::string& text, LogLevel* out) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) lower.push_back(static_cast<char>(std::tolower(c)));
  if (lower == "trace") {
    *out = LogLevel::kTrace;
  } else if (lower == "debug") {
    *out = LogLevel::kDebug;
  } else if (lower == "info") {
    *out = LogLevel::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    *out = LogLevel::kWarn;
  } else if (lower == "error") {
    *out = LogLevel::kError;
  } else if (lower == "off" || lower == "none") {
    *out = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level != kUnsetLevel) return static_cast<LogLevel>(level);
  LogLevel resolved = ResolveInitialLevel();
  // Racing first queries resolve the same env value; last store wins benignly
  // unless SetLogLevel() intervened, which compare_exchange respects.
  int expected = kUnsetLevel;
  g_level.compare_exchange_strong(expected, static_cast<int>(resolved),
                                  std::memory_order_relaxed);
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

bool LogEnabled(LogLevel level) { return level >= GetLogLevel(); }

bool SetLogFile(const std::string& path) {
  std::FILE* next = nullptr;
  if (!path.empty()) {
    next = std::fopen(path.c_str(), "a");
    if (next == nullptr) return false;
  }
  std::lock_guard<std::mutex> lock(g_sink_mu);
  if (g_file_sink != nullptr) std::fclose(g_file_sink);
  g_file_sink = next;
  return true;
}

void SetLogToStderr(bool enabled) {
  g_stderr_sink.store(enabled, std::memory_order_relaxed);
}

int DenseThreadId() {
  static std::atomic<int> next_id{0};
  thread_local int id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage& LogMessage::operator<<(const LogField& field) {
  fields_ << ' ' << field.key << '=';
  for (char c : field.value) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '\\': fields_ << "\\\\"; break;
      case '\n': fields_ << "\\n"; break;
      case '\r': fields_ << "\\r"; break;
      case '\t': fields_ << "\\t"; break;
      default:
        if (byte < 0x20 || byte == 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\x%02x", byte);
          fields_ << buf;
        } else {
          fields_ << c;
        }
    }
  }
  return *this;
}

LogMessage::~LogMessage() {
  auto now = std::chrono::system_clock::now();
  std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  int millis = static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now.time_since_epoch())
          .count() %
      1000);
  std::tm tm_utc{};
  gmtime_r(&seconds, &tm_utc);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%S", &tm_utc);

  char prefix[128];
  std::snprintf(prefix, sizeof(prefix), "%s.%03d %c %s:%d tid=%d] ", stamp, millis,
                LogLevelName(level_)[0], Basename(file_), line_, DenseThreadId());
  std::string line(prefix);
  line += message_.str();
  line += fields_.str();
  line += '\n';
  WriteLine(line);
}

}  // namespace edge::obs
