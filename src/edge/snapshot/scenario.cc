#include "edge/snapshot/scenario.h"

#include <cmath>
#include <cstring>
#include <future>
#include <sstream>
#include <utility>

#include "edge/common/file_util.h"
#include "edge/common/hash.h"
#include "edge/data/generator.h"
#include "edge/fault/fault.h"
#include "edge/geo/projection.h"
#include "edge/obs/json_util.h"
#include "edge/serve/json_codec.h"

namespace edge::snapshot {

namespace {

constexpr size_t kMaxEvents = size_t{1} << 16;
constexpr size_t kMaxRequestsPerEvent = size_t{1} << 20;
constexpr size_t kMaxPoolTweets = size_t{1} << 20;
/// Rejection-sampling bound for outage-filtered pool draws; hitting it means
/// the outage box covers (essentially) the whole pool.
constexpr size_t kMaxSampleAttempts = 100000;

Status ScriptError(size_t line_number, const std::string& message) {
  return Status::InvalidArgument("scenario line " + std::to_string(line_number) +
                                 ": " + message);
}

/// "majestic_theatre" -> "majestic theatre": the surface form the gazetteer
/// NER recognizes for a canonical entity name.
std::string SurfaceForm(const std::string& canonical) {
  std::string surface = canonical;
  for (char& c : surface) {
    if (c == '_') c = ' ';
  }
  return surface;
}

/// Disarms script-configured fault points on every exit path, so a failed
/// replay can't leak latency/error injection into the rest of the process.
struct FaultGuard {
  bool touched = false;
  ~FaultGuard() {
    if (touched) fault::Disarm();
  }
};

void HashBits(uint64_t* digest, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  char raw[sizeof(bits)];
  std::memcpy(raw, &bits, sizeof(bits));
  *digest = Fnv1a64Bytes(raw, sizeof(raw), *digest);
}

void HashBits(uint64_t* digest, uint64_t value) {
  char raw[sizeof(value)];
  std::memcpy(raw, &value, sizeof(value));
  *digest = Fnv1a64Bytes(raw, sizeof(raw), *digest);
}

}  // namespace

Result<Scenario> ParseScenario(const std::string& content) {
  Scenario scenario;
  std::istringstream in(content);
  std::string line;
  size_t line_number = 0;
  bool saw_header = false;
  bool saw_name = false;
  while (std::getline(in, line)) {
    ++line_number;
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    size_t last = line.find_last_not_of(" \t\r");
    std::string trimmed = line.substr(first, last - first + 1);

    if (!saw_header) {
      if (trimmed != "EDGE-SCENARIO v1") {
        return ScriptError(line_number, "expected 'EDGE-SCENARIO v1' header");
      }
      saw_header = true;
      continue;
    }

    std::istringstream is(trimmed);
    std::string directive;
    is >> directive;
    if (directive == "name") {
      std::string rest;
      std::getline(is, rest);
      size_t start = rest.find_first_not_of(" \t");
      if (start == std::string::npos) {
        return ScriptError(line_number, "name requires a value");
      }
      scenario.name = rest.substr(start);
      saw_name = true;
    } else if (directive == "seed") {
      if (!(is >> scenario.seed)) {
        return ScriptError(line_number, "bad seed value");
      }
      scenario.has_seed = true;
    } else if (directive == "pool") {
      long long n = -1;
      if (!(is >> n) || n < 0 || static_cast<size_t>(n) > kMaxPoolTweets) {
        return ScriptError(line_number, "bad pool size");
      }
      scenario.pool_tweets = static_cast<size_t>(n);
    } else if (directive == "event") {
      if (scenario.events.size() >= kMaxEvents) {
        return ScriptError(line_number, "too many events");
      }
      std::string kind;
      is >> kind;
      ScenarioEvent event;
      if (kind == "burst") {
        event.type = ScenarioEvent::Type::kBurst;
        long long n = -1;
        if (!(is >> n) || n <= 0 ||
            static_cast<size_t>(n) > kMaxRequestsPerEvent) {
          return ScriptError(line_number, "burst requires a positive count");
        }
        event.count = static_cast<size_t>(n);
      } else if (kind == "skew") {
        event.type = ScenarioEvent::Type::kSkew;
        long long n = -1;
        if (!(is >> event.entity >> n) || event.entity.empty() || n <= 0 ||
            static_cast<size_t>(n) > kMaxRequestsPerEvent) {
          return ScriptError(line_number, "skew requires '<entity> <count>'");
        }
        event.count = static_cast<size_t>(n);
      } else if (kind == "text") {
        event.type = ScenarioEvent::Type::kText;
        std::string rest;
        std::getline(is, rest);
        size_t start = rest.find_first_not_of(" \t");
        if (start == std::string::npos) {
          return ScriptError(line_number, "text requires request text");
        }
        event.text = rest.substr(start);
        event.count = 1;
      } else if (kind == "reload") {
        event.type = ScenarioEvent::Type::kReload;
      } else if (kind == "fault") {
        event.type = ScenarioEvent::Type::kFault;
        std::string rest;
        std::getline(is, rest);
        size_t start = rest.find_first_not_of(" \t");
        if (start == std::string::npos) {
          return ScriptError(line_number, "fault requires a spec or 'off'");
        }
        std::string spec = rest.substr(start);
        if (spec == "off") {
          event.off = true;
        } else {
          event.text = std::move(spec);
        }
      } else if (kind == "outage") {
        event.type = ScenarioEvent::Type::kOutage;
        std::string rest;
        std::getline(is, rest);
        std::istringstream os(rest);
        std::string word;
        os >> word;
        if (word == "off") {
          event.off = true;
        } else {
          std::istringstream bs(rest);
          bs >> event.outage.min_lat >> event.outage.max_lat >>
              event.outage.min_lon >> event.outage.max_lon;
          if (bs.fail() || !std::isfinite(event.outage.min_lat) ||
              !std::isfinite(event.outage.max_lat) ||
              !std::isfinite(event.outage.min_lon) ||
              !std::isfinite(event.outage.max_lon) ||
              event.outage.min_lat > event.outage.max_lat ||
              event.outage.min_lon > event.outage.max_lon) {
            return ScriptError(line_number,
                               "outage requires 'off' or a valid bounding box");
          }
        }
      } else {
        return ScriptError(line_number, "unknown event kind: " + kind);
      }
      scenario.events.push_back(std::move(event));
    } else {
      return ScriptError(line_number, "unknown directive: " + directive);
    }
  }
  if (!saw_header) return Status::InvalidArgument("empty scenario script");
  if (!saw_name) return Status::InvalidArgument("scenario script missing name");
  return scenario;
}

Result<ScenarioResult> RunScenario(const SystemSnapshot& snapshot,
                                   const Scenario& scenario,
                                   const ScenarioRunOptions& options) {
  // The snapshot came through Load (fully validated) or Capture (live
  // components); the generator's own invariant checks cannot fire here.
  data::TweetGenerator generator(snapshot.world);

  serve::GeoServiceOptions serve_options = snapshot.serve_options;
  // Deadline expiry is a wall-clock race; the determinism contract requires
  // it off regardless of what the snapshot was serving with.
  serve_options.default_deadline_ms = 0.0;
  if (options.num_workers > 0) serve_options.num_workers = options.num_workers;
  Status status = serve_options.Validate();
  if (!status.ok()) return status;

  Result<std::unique_ptr<core::EdgeModel>> model = SnapshotModel(snapshot);
  if (!model.ok()) return model.status();
  Result<std::unique_ptr<serve::GeoService>> service = serve::GeoService::Create(
      std::move(model).value(), generator.BuildGazetteer(), serve_options);
  if (!service.ok()) return service.status();
  serve::GeoService& geo = *service.value();

  bool needs_pool = false;
  for (const ScenarioEvent& event : scenario.events) {
    if (event.type == ScenarioEvent::Type::kBurst) needs_pool = true;
  }
  data::Dataset pool;
  if (needs_pool) {
    if (scenario.pool_tweets == 0) {
      return Status::InvalidArgument("scenario has burst events but pool 0");
    }
    pool = generator.Generate(scenario.pool_tweets);
  }

  Rng rng;
  if (scenario.has_seed) {
    rng.Seed(scenario.seed);
  } else {
    rng.RestoreState(snapshot.rng);
  }

  ScenarioResult result;
  uint64_t digest = kFnv1a64Offset;
  auto emit = [&](std::string line) {
    digest = Fnv1a64(line, digest);
    digest = Fnv1a64("\n", digest);
    if (options.out != nullptr) *options.out << line << "\n";
    result.lines.push_back(std::move(line));
  };

  bool outage_active = false;
  geo::BoundingBox outage_box;
  auto sample_text = [&]() -> Result<std::string> {
    for (size_t attempt = 0; attempt < kMaxSampleAttempts; ++attempt) {
      const data::Tweet& tweet =
          pool.tweets[rng.UniformInt(pool.tweets.size())];
      if (outage_active && outage_box.Contains(tweet.location)) continue;
      return tweet.text;
    }
    return Status::InvalidArgument(
        "outage box covers the entire tweet pool; no traffic can be sampled");
  };

  size_t next_id = 0;
  // Lockstep execution: with the workers frozen, every submit of the event
  // sees a queue whose state is a pure function of submission order, so
  // cache-hit and shed decisions are order-determined, not time-determined.
  // Draining every future before the next event makes cross-event cache
  // contents deterministic too.
  auto run_requests = [&](const std::vector<std::string>& texts) {
    geo.PauseWorkersForTest();
    std::vector<std::pair<std::string, std::future<serve::ServeResponse>>> inflight;
    inflight.reserve(texts.size());
    for (const std::string& text : texts) {
      std::string id = "r" + std::to_string(next_id++);
      inflight.emplace_back(std::move(id), geo.SubmitAsync(text));
    }
    geo.ResumeWorkers();
    for (auto& [id, future] : inflight) {
      serve::ServeResponse response = future.get();
      ++result.requests;
      if (response.from_cache) ++result.cache_hits;
      if (response.degraded) ++result.shed;
      emit(serve::ResponseToJsonLine(response, *response.model, id,
                                     /*include_latency=*/false));
    }
  };

  FaultGuard fault_guard;
  for (const ScenarioEvent& event : scenario.events) {
    switch (event.type) {
      case ScenarioEvent::Type::kBurst: {
        std::vector<std::string> texts;
        texts.reserve(event.count);
        for (size_t i = 0; i < event.count; ++i) {
          Result<std::string> text = sample_text();
          if (!text.ok()) return text.status();
          texts.push_back(std::move(text).value());
        }
        run_requests(texts);
        break;
      }
      case ScenarioEvent::Type::kSkew: {
        std::vector<std::string> texts(
            event.count, "everyone is at " + SurfaceForm(event.entity) + " right now");
        run_requests(texts);
        break;
      }
      case ScenarioEvent::Type::kText: {
        run_requests({event.text});
        break;
      }
      case ScenarioEvent::Type::kReload: {
        Result<std::unique_ptr<core::EdgeModel>> fresh = SnapshotModel(snapshot);
        if (!fresh.ok()) return fresh.status();
        Status reload_status = geo.AdoptReloadedModel(std::move(fresh).value());
        if (!reload_status.ok()) return reload_status;
        emit("{\"event\":\"reload\",\"generation\":" +
             std::to_string(geo.model_generation()) + "}");
        break;
      }
      case ScenarioEvent::Type::kFault: {
        if (event.off) {
          fault::Disarm();
          fault_guard.touched = false;
          emit("{\"event\":\"fault\",\"armed\":false}");
        } else {
          std::string error;
          if (!fault::Configure(event.text, &error)) {
            return Status::InvalidArgument("bad fault spec: " + error);
          }
          fault_guard.touched = true;
          std::string line = "{\"event\":\"fault\",\"armed\":true,\"spec\":";
          obs::internal::AppendJsonString(&line, event.text);
          line.push_back('}');
          emit(std::move(line));
        }
        break;
      }
      case ScenarioEvent::Type::kOutage: {
        if (event.off) {
          outage_active = false;
          emit("{\"event\":\"outage\",\"active\":false}");
        } else {
          outage_active = true;
          outage_box = event.outage;
          std::ostringstream os;
          os.precision(17);
          os << "{\"event\":\"outage\",\"active\":true,\"box\":["
             << outage_box.min_lat << "," << outage_box.max_lat << ","
             << outage_box.min_lon << "," << outage_box.max_lon << "]}";
          emit(os.str());
        }
        break;
      }
    }
  }

  result.digest = ToHex16(digest);
  return result;
}

Result<GoldenRecord> ReadGoldenFile(const std::string& path) {
  std::string content;
  Status status = ReadFileToString(path, &content);
  if (!status.ok()) return status;
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line) || line != "EDGE-GOLDEN v1") {
    return Status::InvalidArgument("bad golden file header: " + path);
  }
  GoldenRecord record;
  bool saw_scenario = false, saw_fingerprint = false, saw_digest = false,
       saw_requests = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string key;
    is >> key;
    if (key == "scenario") {
      std::string rest;
      std::getline(is, rest);
      size_t start = rest.find_first_not_of(" \t");
      if (start == std::string::npos) {
        return Status::InvalidArgument("golden file has empty scenario name");
      }
      record.scenario = rest.substr(start);
      saw_scenario = true;
    } else if (key == "fingerprint") {
      if (!(is >> record.fingerprint)) break;
      saw_fingerprint = true;
    } else if (key == "digest") {
      if (!(is >> record.digest)) break;
      saw_digest = true;
    } else if (key == "requests") {
      long long n = -1;
      if (!(is >> n) || n < 0) break;
      record.requests = static_cast<size_t>(n);
      saw_requests = true;
    } else {
      return Status::InvalidArgument("unknown golden file key '" + key + "' in " +
                                     path);
    }
  }
  uint64_t parsed = 0;
  if (!saw_scenario || !saw_fingerprint || !saw_digest || !saw_requests ||
      !FromHex16(record.fingerprint, &parsed) || !FromHex16(record.digest, &parsed)) {
    return Status::InvalidArgument("incomplete or malformed golden file: " + path);
  }
  return record;
}

Status WriteGoldenFile(const std::string& path, const GoldenRecord& record) {
  std::string content = "EDGE-GOLDEN v1\n";
  content += "scenario " + record.scenario + "\n";
  content += "fingerprint " + record.fingerprint + "\n";
  content += "digest " + record.digest + "\n";
  content += "requests " + std::to_string(record.requests) + "\n";
  return WriteFileAtomic(path, content);
}

std::string BuildFingerprint() {
  uint64_t digest = kFnv1a64Offset;
#if defined(__VERSION__)
  digest = Fnv1a64(__VERSION__, digest);
#endif
  // PCG32 stream head: integer path, must agree everywhere — included so a
  // fingerprint mismatch localizes to "libm/codegen" vs "RNG is broken".
  Rng rng(12345);
  for (int i = 0; i < 64; ++i) HashBits(&digest, rng.NextU64());
  // Box-Muller normals exercise log/sqrt/sin/cos.
  for (int i = 0; i < 32; ++i) HashBits(&digest, rng.Normal());
  // The transcendental gauntlet behind mixture densities and haversine.
  const double probes[] = {0.1, 0.5, 1.0 / 3.0, 2.718281828459045,
                           40.7128, 74.0060, 1e-9, 123.456};
  for (double x : probes) {
    HashBits(&digest, std::exp(-x));
    HashBits(&digest, std::log(x));
    HashBits(&digest, std::sin(x));
    HashBits(&digest, std::cos(x));
    HashBits(&digest, std::atan2(x, 1.0 + x));
    HashBits(&digest, std::pow(x, 1.5));
    HashBits(&digest, std::sqrt(x));
  }
  // Projection round-trip: the lat/lon <-> plane trig the serving path runs
  // on every rendered component center.
  geo::LocalProjection projection(geo::LatLon{40.75, -73.98});
  geo::PlanePoint p = projection.ToPlane(geo::LatLon{40.6892, -74.0445});
  HashBits(&digest, p.x);
  HashBits(&digest, p.y);
  geo::LatLon back = projection.ToLatLon(p);
  HashBits(&digest, back.lat);
  HashBits(&digest, back.lon);
  return ToHex16(digest);
}

}  // namespace edge::snapshot
