/// Tests for the edge::obs observability layer: logger level filtering and
/// concurrent-writer atomicity, counter/gauge/histogram/series semantics
/// (including percentile queries), nested trace-span ordering, JSON validity
/// of the metrics snapshot and the Chrome trace export, and the EDGE_CHECK
/// failure routing through the log sinks.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "edge/common/check.h"
#include "edge/common/stopwatch.h"
#include "edge/common/thread_pool.h"
#include "edge/obs/exporter.h"
#include "edge/obs/log.h"
#include "edge/obs/metrics.h"
#include "edge/obs/slo.h"
#include "edge/obs/trace.h"
#include "edge/obs/trace_context.h"

namespace edge {
namespace {

// --- Minimal JSON syntax validator (RFC 8259 subset, no value extraction):
// enough to prove the documents we emit parse. ---

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') return ++pos_, true;
    for (;;) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') return ++pos_, true;
    for (;;) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // Closing quote.
    return true;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(text_[pos_]) || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(text_[pos_])) ++pos_;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Redirects the logger to a temp file for one test and restores the default
/// stderr-only configuration afterwards.
class LogCapture {
 public:
  explicit LogCapture(const std::string& tag)
      : path_(::testing::TempDir() + "obs_log_" + tag + ".txt") {
    std::remove(path_.c_str());
    EXPECT_TRUE(obs::SetLogFile(path_));
    obs::SetLogToStderr(false);
  }

  ~LogCapture() {
    obs::SetLogFile("");
    obs::SetLogToStderr(true);
    obs::SetLogLevel(obs::LogLevel::kInfo);
    std::remove(path_.c_str());
  }

  std::string Contents() const { return ReadFile(path_); }

 private:
  std::string path_;
};

TEST(ObsLogTest, ParseLogLevel) {
  obs::LogLevel level = obs::LogLevel::kOff;
  EXPECT_TRUE(obs::ParseLogLevel("debug", &level));
  EXPECT_EQ(level, obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::ParseLogLevel("WARN", &level));
  EXPECT_EQ(level, obs::LogLevel::kWarn);
  EXPECT_TRUE(obs::ParseLogLevel("off", &level));
  EXPECT_EQ(level, obs::LogLevel::kOff);
  EXPECT_FALSE(obs::ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, obs::LogLevel::kOff);  // Unchanged on failure.
}

TEST(ObsLogTest, LevelFiltering) {
  LogCapture capture("filtering");
  obs::SetLogLevel(obs::LogLevel::kWarn);
  EDGE_LOG(DEBUG) << "dropped_debug";
  EDGE_LOG(INFO) << "dropped_info";
  EDGE_LOG(WARN) << "kept_warn";
  EDGE_LOG(ERROR) << "kept_error";
  obs::SetLogLevel(obs::LogLevel::kOff);
  EDGE_LOG(ERROR) << "dropped_when_off";
  std::string contents = capture.Contents();
  EXPECT_EQ(contents.find("dropped_debug"), std::string::npos);
  EXPECT_EQ(contents.find("dropped_info"), std::string::npos);
  EXPECT_EQ(contents.find("dropped_when_off"), std::string::npos);
  EXPECT_NE(contents.find("kept_warn"), std::string::npos);
  EXPECT_NE(contents.find("kept_error"), std::string::npos);
}

TEST(ObsLogTest, StructuredFieldsAndPrefix) {
  LogCapture capture("fields");
  obs::SetLogLevel(obs::LogLevel::kInfo);
  EDGE_LOG(INFO) << "epoch done" << obs::Kv("nll", 1.25) << obs::Kv("epoch", 7);
  std::string contents = capture.Contents();
  EXPECT_NE(contents.find("epoch done nll=1.25 epoch=7"), std::string::npos);
  EXPECT_NE(contents.find("obs_test.cc:"), std::string::npos);
  EXPECT_NE(contents.find(" I "), std::string::npos);   // Level tag.
  EXPECT_NE(contents.find("tid="), std::string::npos);  // Thread id field.
}

TEST(ObsLogTest, FilteredStatementDoesNotEvaluateOperands) {
  obs::SetLogLevel(obs::LogLevel::kWarn);
  int evaluations = 0;
  auto count = [&evaluations]() {
    ++evaluations;
    return 1;
  };
  EDGE_LOG(DEBUG) << count();
  EXPECT_EQ(evaluations, 0);
  obs::SetLogLevel(obs::LogLevel::kInfo);
}

TEST(ObsLogTest, ConcurrentWritersDoNotInterleaveLines) {
  LogCapture capture("concurrent");
  obs::SetLogLevel(obs::LogLevel::kInfo);
  constexpr int kThreads = 8;
  constexpr int kLines = 200;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        EDGE_LOG(INFO) << "head-" << t << "-" << i << " middle of the payload "
                       << obs::Kv("tail", std::to_string(t) + "-" + std::to_string(i));
      }
    });
  }
  for (std::thread& w : writers) w.join();

  std::istringstream lines(capture.Contents());
  std::string line;
  int seen = 0;
  while (std::getline(lines, line)) {
    if (line.find("head-") == std::string::npos) continue;
    ++seen;
    // A torn/interleaved write would break the head..tail pairing or leave a
    // second head fragment inside the same line.
    size_t head = line.find("head-");
    size_t dash = line.find('-', head + 5);
    ASSERT_NE(dash, std::string::npos);
    std::string id = line.substr(head + 5);
    id = id.substr(0, id.find(' '));
    EXPECT_NE(line.find("tail=" + id), std::string::npos) << line;
    EXPECT_EQ(line.find("head-", head + 1), std::string::npos) << line;
  }
  EXPECT_EQ(seen, kThreads * kLines);
}

TEST(ObsLogDeathTest, CheckFailureRoutesThroughLogSinks) {
  // The obs library installs a check-failure handler at static init, so the
  // message must still reach stderr (via the logger's stderr sink) and the
  // process must still abort.
  EXPECT_DEATH({ EDGE_CHECK(1 == 2) << "boom_token_42"; }, "boom_token_42");
}

TEST(ObsMetricsTest, CounterSemantics) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(ObsMetricsTest, GaugeSemantics) {
  obs::Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

TEST(ObsMetricsTest, HistogramBucketsAndStats) {
  obs::Histogram histogram({1.0, 2.0, 3.0});
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(50), 0.0);  // Empty.
  histogram.Observe(0.5);
  histogram.Observe(1.5);
  histogram.Observe(2.5);
  histogram.Observe(3.5);  // Overflow bucket.
  EXPECT_EQ(histogram.count(), 4);
  EXPECT_DOUBLE_EQ(histogram.sum(), 8.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 3.5);
  std::vector<int64_t> buckets = histogram.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // Three bounds + overflow.
  EXPECT_EQ(buckets[0], 1);
  EXPECT_EQ(buckets[1], 1);
  EXPECT_EQ(buckets[2], 1);
  EXPECT_EQ(buckets[3], 1);
}

TEST(ObsMetricsTest, HistogramPercentiles) {
  obs::Histogram histogram({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) histogram.Observe(5.0);    // Bucket <= 10.
  for (int i = 0; i < 100; ++i) histogram.Observe(15.0);   // Bucket <= 20.
  // p25 falls mid-first-bucket, p75 mid-second, p100 is the max observed.
  EXPECT_GT(histogram.Percentile(25), 0.0);
  EXPECT_LE(histogram.Percentile(25), 10.0);
  EXPECT_GT(histogram.Percentile(75), 10.0);
  EXPECT_LE(histogram.Percentile(75), 20.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(100), 15.0);
  // Percentiles are monotone in p.
  EXPECT_LE(histogram.Percentile(10), histogram.Percentile(60));
}

TEST(ObsMetricsTest, HistogramConcurrentObserve) {
  obs::Histogram histogram({0.25, 0.5, 0.75});
  constexpr int kThreads = 8;
  constexpr int kObservations = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kObservations; ++i) {
        histogram.Observe(static_cast<double>(i % 100) / 100.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(histogram.count(), kThreads * kObservations);
  std::vector<int64_t> buckets = histogram.BucketCounts();
  int64_t total = 0;
  for (int64_t b : buckets) total += b;
  EXPECT_EQ(total, kThreads * kObservations);
}

TEST(ObsMetricsTest, SeriesAppend) {
  obs::Series series;
  series.Append(3.0);
  series.Append(2.0);
  series.Append(1.0);
  EXPECT_EQ(series.size(), 3u);
  std::vector<double> values = series.values();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 3.0);
  EXPECT_DOUBLE_EQ(values[2], 1.0);
}

TEST(ObsMetricsTest, RegistryReturnsStablePointers) {
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* a = registry.GetCounter("edge.test.stable_counter");
  obs::Counter* b = registry.GetCounter("edge.test.stable_counter");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.GetCounter("edge.test.other_counter"));
  // Same name, different kinds: distinct instruments.
  EXPECT_NE(static_cast<void*>(a),
            static_cast<void*>(registry.GetGauge("edge.test.stable_counter")));
}

TEST(ObsMetricsTest, ScopedTimerFeedsHistogram) {
  obs::Histogram histogram({0.001, 1.0});
  {
    obs::ScopedTimer timer(&histogram);
    Stopwatch spin;
    while (spin.ElapsedSeconds() < 0.002) {
    }
    EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  }
  EXPECT_EQ(histogram.count(), 1);
  EXPECT_GT(histogram.sum(), 0.0015);
}

TEST(ObsMetricsTest, SnapshotJsonIsValid) {
  obs::Registry& registry = obs::Registry::Global();
  registry.GetCounter("edge.test.json_counter")->Increment(7);
  registry.GetGauge("edge.test.json_gauge")->Set(-1.5);
  registry.GetHistogram("edge.test.json_histogram")->Observe(0.3);
  registry.GetSeries("edge.test.json_series")->Append(4.25);
  registry.GetCounter("edge.test.\"quoted\\name\"")->Increment();  // Escaping.
  std::string json = registry.ToJson();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  EXPECT_NE(json.find("\"edge.test.json_counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("4.25"), std::string::npos);
}

TEST(ObsMetricsTest, ThreadPoolPublishesTaskMetrics) {
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* tasks = registry.GetCounter("edge.common.threadpool.tasks_executed");
  obs::Counter* busy = registry.GetCounter("edge.common.threadpool.busy_micros");
  int64_t tasks_before = tasks->value();
  int64_t busy_before = busy->value();
  ScopedNumThreads scoped(4);
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 10000, 10, [&sum](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) sum.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 10000);
  EXPECT_GT(tasks->value(), tasks_before);
  EXPECT_GE(busy->value(), busy_before);
}

TEST(ObsTraceTest, DisabledByDefaultRecordsNothing) {
  obs::StopTracing();
  obs::ClearTrace();
  {
    EDGE_TRACE_SPAN("edge.test.invisible");
  }
  EXPECT_TRUE(obs::TraceSnapshot().empty());
}

TEST(ObsTraceTest, NestedSpansRecordParentChildOrdering) {
  obs::StartTracing();
  obs::ClearTrace();
  {
    EDGE_TRACE_SPAN("edge.test.parent");
    {
      EDGE_TRACE_SPAN("edge.test.child");
      Stopwatch spin;
      while (spin.ElapsedSeconds() < 0.001) {
      }
    }
  }
  obs::StopTracing();
  std::vector<obs::TraceEvent> events = obs::TraceSnapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans complete child-first.
  const obs::TraceEvent& child = events[0];
  const obs::TraceEvent& parent = events[1];
  EXPECT_STREQ(child.name, "edge.test.child");
  EXPECT_STREQ(parent.name, "edge.test.parent");
  EXPECT_EQ(child.thread_id, parent.thread_id);
  EXPECT_EQ(child.depth, parent.depth + 1);
  // The child's interval nests inside the parent's.
  EXPECT_GE(child.start_us, parent.start_us);
  EXPECT_LE(child.start_us + child.duration_us, parent.start_us + parent.duration_us);
  obs::ClearTrace();
}

TEST(ObsTraceTest, SpansFromWorkerThreadsCarryDistinctThreadIds) {
  obs::StartTracing();
  obs::ClearTrace();
  std::thread worker([] { EDGE_TRACE_SPAN("edge.test.worker_span"); });
  worker.join();
  {
    EDGE_TRACE_SPAN("edge.test.main_span");
  }
  obs::StopTracing();
  std::vector<obs::TraceEvent> events = obs::TraceSnapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].thread_id, events[1].thread_id);
  obs::ClearTrace();
}

TEST(ObsTraceTest, ExportedChromeTraceJsonIsValid) {
  obs::StartTracing();
  obs::ClearTrace();
  {
    EDGE_TRACE_SPAN("edge.test.export_outer");
    EDGE_TRACE_SPAN("edge.test.export_inner");
  }
  obs::StopTracing();

  std::string json = obs::TraceToJson();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("edge.test.export_inner"), std::string::npos);

  std::string path = ::testing::TempDir() + "obs_trace_export.json";
  ASSERT_TRUE(obs::WriteTrace(path));
  EXPECT_EQ(ReadFile(path), json);
  std::remove(path.c_str());
  obs::ClearTrace();
}

// --- Sliding-window instruments. ---

/// Manually-stepped clock for the windowed instruments.
struct FakeClock {
  uint64_t now_micros = 0;
  obs::WindowClock Fn() {
    return [this] { return now_micros; };
  }
};

TEST(ObsWindowedTest, EmptyWindowSnapshotIsZeros) {
  FakeClock clock;
  obs::WindowedHistogram histogram({/*window_seconds=*/6.0,
                                    /*num_subwindows=*/6,
                                    /*bounds=*/{0.01, 0.1, 1.0}},
                                   clock.Fn());
  obs::WindowedHistogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.p50, 0.0);
  EXPECT_EQ(snap.p999, 0.0);
  EXPECT_EQ(snap.rate_per_second, 0.0);
  EXPECT_EQ(histogram.Percentile(99.0), 0.0);
}

TEST(ObsWindowedTest, ObservationsAggregateWithinTheWindow) {
  FakeClock clock;
  obs::WindowedHistogram histogram({/*window_seconds=*/6.0,
                                    /*num_subwindows=*/6,
                                    /*bounds=*/{0.01, 0.1, 1.0}},
                                   clock.Fn());
  for (int i = 0; i < 90; ++i) histogram.Observe(0.005);  // First bucket.
  for (int i = 0; i < 10; ++i) histogram.Observe(0.5);    // Third bucket.
  obs::WindowedHistogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 100);
  EXPECT_DOUBLE_EQ(snap.min, 0.005);
  EXPECT_DOUBLE_EQ(snap.max, 0.5);
  EXPECT_LE(snap.p50, 0.01);
  EXPECT_GT(snap.p99, 0.1);   // The 0.5s tail lands above the 0.1 bound.
  EXPECT_GE(snap.p999, snap.p99);
  EXPECT_NEAR(snap.rate_per_second, 100.0 / 6.0, 1e-9);
}

TEST(ObsWindowedTest, SingleSubWindowRollsOverCompletely) {
  FakeClock clock;
  obs::WindowedHistogram histogram({/*window_seconds=*/1.0,
                                    /*num_subwindows=*/1,
                                    /*bounds=*/{0.01, 1.0}},
                                   clock.Fn());
  histogram.Observe(0.5);
  EXPECT_EQ(histogram.CountInWindow(), 1);
  clock.now_micros += 1'000'000;  // One full window: the lone slot recycles.
  EXPECT_EQ(histogram.CountInWindow(), 0);
  histogram.Observe(0.25);
  EXPECT_EQ(histogram.CountInWindow(), 1);
}

TEST(ObsWindowedTest, OldSubWindowsExpireAsTheWindowSlides) {
  FakeClock clock;
  obs::WindowedHistogram histogram({/*window_seconds=*/6.0,
                                    /*num_subwindows=*/6,
                                    /*bounds=*/{0.01, 1.0}},
                                   clock.Fn());
  histogram.Observe(0.1);  // Sub-window 0.
  clock.now_micros = 3'000'000;
  histogram.Observe(0.1);  // Sub-window 3.
  EXPECT_EQ(histogram.CountInWindow(), 2);
  clock.now_micros = 6'500'000;  // Window is now [0.5, 6.5): slot 0 expired.
  EXPECT_EQ(histogram.CountInWindow(), 1);
  clock.now_micros = 9'500'000;  // Slot 3 expired too.
  EXPECT_EQ(histogram.CountInWindow(), 0);
}

TEST(ObsWindowedTest, BackwardsClockIsClampedMonotonic) {
  FakeClock clock;
  clock.now_micros = 5'000'000;
  obs::WindowedHistogram histogram({/*window_seconds=*/6.0,
                                    /*num_subwindows=*/6,
                                    /*bounds=*/{0.01, 1.0}},
                                   clock.Fn());
  histogram.Observe(0.1);
  clock.now_micros = 1'000'000;  // Clock jumps backwards.
  histogram.Observe(0.2);        // Must not crash or unwind history.
  EXPECT_EQ(histogram.CountInWindow(), 2);
  obs::WindowedHistogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snap.max, 0.2);
}

TEST(ObsWindowedTest, ConcurrentWritersLoseNothing) {
  // Real clock: the point is the locking discipline (run under TSAN in CI),
  // and a 60 s window comfortably contains the whole test.
  obs::WindowedHistogram histogram({/*window_seconds=*/60.0,
                                    /*num_subwindows=*/6,
                                    /*bounds=*/{0.01, 1.0}});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) histogram.Observe(0.005);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(histogram.CountInWindow(), kThreads * kPerThread);
}

TEST(ObsWindowedTest, WindowedCounterRateAndExpiry) {
  FakeClock clock;
  obs::WindowedCounter counter({/*window_seconds=*/10.0, /*num_subwindows=*/5},
                               clock.Fn());
  EXPECT_EQ(counter.ValueInWindow(), 0);
  counter.Increment(3);
  clock.now_micros = 4'000'000;
  counter.Increment();
  EXPECT_EQ(counter.ValueInWindow(), 4);
  EXPECT_NEAR(counter.RatePerSecond(), 0.4, 1e-9);
  clock.now_micros = 11'000'000;  // First sub-window (the 3) expired.
  EXPECT_EQ(counter.ValueInWindow(), 1);
}

TEST(ObsMetricsTest, ScopedTimerCancelSkipsObserve) {
  obs::Histogram histogram({0.001, 1.0});
  {
    obs::ScopedTimer timer(&histogram);
    timer.Cancel();  // Error path decided not to record this attempt.
  }
  EXPECT_EQ(histogram.count(), 0);
}

TEST(ObsMetricsTest, RegistryWindowedInstrumentsAndJsonSections) {
  obs::Registry& registry = obs::Registry::Global();
  obs::WindowedHistogram* histogram =
      registry.GetWindowedHistogram("edge.test.windowed_histogram");
  obs::WindowedCounter* counter =
      registry.GetWindowedCounter("edge.test.windowed_counter");
  // Same name, same instrument (first caller wins).
  EXPECT_EQ(histogram,
            registry.GetWindowedHistogram("edge.test.windowed_histogram"));
  histogram->Observe(0.02);
  counter->Increment(5);
  std::string json = registry.ToJson();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  EXPECT_NE(json.find("\"windowed_histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"windowed_counters\""), std::string::npos);
  EXPECT_NE(json.find("\"edge.test.windowed_histogram\""), std::string::npos);
  histogram->ResetForTest();
  counter->ResetForTest();
}

// --- Trace async/instant events and the request TraceContext. ---

TEST(ObsTraceTest, AsyncAndInstantEventsRenderValidChromeJson) {
  obs::StartTracing();
  obs::ClearTrace();
  obs::RecordAsyncSpan("edge.test.async", /*flow_id=*/42, /*start_us=*/100,
                       /*end_us=*/350);
  obs::RecordInstant("edge.test.instant");
  obs::StopTracing();

  std::string json = obs::TraceToJson();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"edge.request\""), std::string::npos);
  obs::ClearTrace();
}

TEST(ObsTraceContextTest, StageMathUsesRecordedStagesOnly) {
  obs::TraceContext context(/*request_id=*/7);
  EXPECT_EQ(context.request_id(), 7u);
  context.SetStage(obs::RequestStage::kNer, 1000, 3500);
  EXPECT_TRUE(context.HasStage(obs::RequestStage::kNer));
  EXPECT_FALSE(context.HasStage(obs::RequestStage::kQueue));
  EXPECT_DOUBLE_EQ(context.StageMs(obs::RequestStage::kNer), 2.5);
  EXPECT_DOUBLE_EQ(context.StageMs(obs::RequestStage::kQueue), 0.0);
  // A stage recorded at the trace origin (timestamp 0) still counts.
  obs::TraceContext at_origin(/*request_id=*/8);
  at_origin.SetStage(obs::RequestStage::kCacheProbe, 0, 0);
  EXPECT_TRUE(at_origin.HasStage(obs::RequestStage::kCacheProbe));
}

TEST(ObsTraceContextTest, ExportSpansEmitsStageAndUmbrellaSpans) {
  obs::StartTracing();
  obs::ClearTrace();
  obs::TraceContext context(/*request_id=*/11);
  context.SetStage(obs::RequestStage::kNer, 100, 200);
  context.SetStage(obs::RequestStage::kBatch, 300, 900);
  context.ExportSpans();
  obs::StopTracing();
  std::string json = obs::TraceToJson();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  EXPECT_NE(json.find("edge.request.ner"), std::string::npos);
  EXPECT_NE(json.find("edge.request.batch"), std::string::npos);
  EXPECT_NE(json.find("\"edge.request\""), std::string::npos);  // Umbrella.
  EXPECT_EQ(json.find("edge.request.queue"), std::string::npos);
  EXPECT_NE(json.find("\"id\": 11"), std::string::npos);
  obs::ClearTrace();
}

TEST(ObsTraceContextTest, DefaultContextExportsNothing) {
  obs::StartTracing();
  obs::ClearTrace();
  obs::TraceContext context;  // request_id 0: no service issued it.
  context.SetStage(obs::RequestStage::kNer, 100, 200);
  context.ExportSpans();
  obs::StopTracing();
  EXPECT_EQ(obs::TraceToJson().find("edge.request"), std::string::npos);
  obs::ClearTrace();
}

// --- SLO monitor. ---

TEST(ObsSloTest, EmptyWindowEvaluatesToZeroBurn) {
  FakeClock clock;
  obs::WindowedHistogram latency({/*window_seconds=*/6.0, /*num_subwindows=*/6,
                                  /*bounds=*/{0.01, 0.1, 1.0}},
                                 clock.Fn());
  obs::SloMonitor monitor("edge.test.slo");
  monitor.AddLatencyObjective("latency_p99", &latency, 99.0, 0.1);
  std::vector<obs::SloMonitor::Evaluation> evaluations = monitor.Evaluate();
  ASSERT_EQ(evaluations.size(), 1u);
  EXPECT_EQ(evaluations[0].burn_rate, 0.0);
  EXPECT_TRUE(evaluations[0].ok);
}

TEST(ObsSloTest, LatencyObjectiveBurnsWhenTailExceedsThreshold) {
  FakeClock clock;
  obs::WindowedHistogram latency({/*window_seconds=*/6.0, /*num_subwindows=*/6,
                                  /*bounds=*/{0.01, 0.1, 1.0}},
                                 clock.Fn());
  for (int i = 0; i < 100; ++i) latency.Observe(0.5);  // p99 ~ 0.5s.
  obs::SloMonitor monitor("edge.test.slo");
  monitor.AddLatencyObjective("latency_p99", &latency, 99.0, 0.1);
  std::vector<obs::SloMonitor::Evaluation> evaluations = monitor.Evaluate();
  ASSERT_EQ(evaluations.size(), 1u);
  EXPECT_GT(evaluations[0].burn_rate, 1.0);
  EXPECT_FALSE(evaluations[0].ok);
  // The burn-rate gauges are published under the prefix.
  obs::Registry& registry = obs::Registry::Global();
  EXPECT_GT(registry.GetGauge("edge.test.slo.latency_p99.burn_rate")->value(),
            1.0);
  EXPECT_EQ(registry.GetGauge("edge.test.slo.latency_p99.ok")->value(), 0.0);
}

TEST(ObsSloTest, AvailabilityObjectiveTracksBadFraction) {
  FakeClock clock;
  obs::WindowedCounter bad({/*window_seconds=*/60.0, /*num_subwindows=*/6},
                           clock.Fn());
  obs::WindowedCounter total({/*window_seconds=*/60.0, /*num_subwindows=*/6},
                             clock.Fn());
  total.Increment(1000);
  bad.Increment(1);  // 0.1% bad, exactly on a 99.9% objective.
  obs::SloMonitor monitor("edge.test.slo");
  monitor.AddAvailabilityObjective("availability", &bad, &total, 0.999);
  std::vector<obs::SloMonitor::Evaluation> evaluations = monitor.Evaluate();
  ASSERT_EQ(evaluations.size(), 1u);
  EXPECT_NEAR(evaluations[0].burn_rate, 1.0, 1e-9);
  bad.Increment(49);  // 5% bad: 50x the 0.1% budget.
  evaluations = monitor.Evaluate();
  EXPECT_NEAR(evaluations[0].burn_rate, 50.0, 1e-9);
  EXPECT_FALSE(evaluations[0].ok);

  std::string json = obs::SloMonitor::ToJson(evaluations);
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  EXPECT_NE(json.find("\"availability\""), std::string::npos);
  EXPECT_NE(json.find("\"burn_rate\""), std::string::npos);
}

// --- Metrics exporter. ---

TEST(ObsExporterTest, WritesValidJsonImmediatelyAndOnDemand) {
  std::string path = ::testing::TempDir() + "obs_export_test.json";
  std::remove(path.c_str());
  {
    obs::MetricsExporter::Options options;
    options.path = path;
    options.period_seconds = 3600.0;  // Only the immediate + final exports.
    obs::MetricsExporter exporter(std::move(options));
    std::string first = ReadFile(path);
    EXPECT_FALSE(first.empty());  // The first export happens in the ctor.
    JsonValidator validator(first);
    EXPECT_TRUE(validator.Valid()) << first;
    obs::Registry::Global().GetCounter("edge.test.export_marker")->Increment();
    EXPECT_TRUE(exporter.ExportNow());
    EXPECT_NE(ReadFile(path).find("edge.test.export_marker"), std::string::npos);
  }
  // No stray staging file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(ObsExporterTest, CustomPayloadAndEnvPeriod) {
  std::string path = ::testing::TempDir() + "obs_export_custom.json";
  {
    obs::MetricsExporter::Options options;
    options.path = path;
    options.period_seconds = 3600.0;
    options.payload = [] { return std::string("{\"custom\": true}\n"); };
    obs::MetricsExporter exporter(std::move(options));
    EXPECT_EQ(ReadFile(path), "{\"custom\": true}\n");
  }
  std::remove(path.c_str());

  EXPECT_EQ(obs::MetricsExporter::PeriodFromEnv(10.0), 10.0);  // Unset.
  setenv("EDGE_METRICS_EXPORT_EVERY", "2.5", 1);
  EXPECT_EQ(obs::MetricsExporter::PeriodFromEnv(10.0), 2.5);
  setenv("EDGE_METRICS_EXPORT_EVERY", "zero", 1);
  EXPECT_EQ(obs::MetricsExporter::PeriodFromEnv(10.0), 10.0);  // Strict parse.
  setenv("EDGE_METRICS_EXPORT_EVERY", "-1", 1);
  EXPECT_EQ(obs::MetricsExporter::PeriodFromEnv(10.0), 10.0);  // Must be > 0.
  unsetenv("EDGE_METRICS_EXPORT_EVERY");
}

TEST(ObsStopwatchTest, LapSecondsResetsLapNotTotal) {
  Stopwatch watch;
  Stopwatch spin;
  while (spin.ElapsedSeconds() < 0.002) {
  }
  double lap1 = watch.LapSeconds();
  EXPECT_GE(lap1, 0.002);
  double lap2 = watch.LapSeconds();      // Immediately after: tiny.
  EXPECT_LT(lap2, lap1);
  EXPECT_GE(watch.ElapsedSeconds(), lap1);  // Total keeps running.
}

}  // namespace
}  // namespace edge
