#include "edge/snapshot/system_snapshot.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "edge/common/file_util.h"
#include "edge/common/hash.h"
#include "edge/core/model_store.h"

namespace edge::snapshot {

namespace {

/// Plausibility caps for counts a corrupt-but-checksum-valid section could
/// still claim; reject before they size an allocation.
constexpr size_t kMaxPois = size_t{1} << 20;
constexpr size_t kMaxTopics = size_t{1} << 20;
constexpr size_t kMaxBranches = size_t{1} << 12;
constexpr size_t kMaxAliases = size_t{1} << 12;
constexpr size_t kMaxPhases = size_t{1} << 12;
constexpr size_t kMaxAffinity = size_t{1} << 20;
constexpr size_t kMaxWords = size_t{1} << 20;
constexpr size_t kMaxVocab = size_t{1} << 24;
constexpr size_t kMaxNodes = size_t{1} << 24;
constexpr size_t kMaxEdges = size_t{1} << 26;
constexpr size_t kMaxSectionBytes = size_t{1} << 30;
constexpr int kNumEntityCategories = 10;  // kPerson .. kOther in text/ner.h.

/// Sequential reader over the lines of a section payload. Sections are
/// line-oriented so names containing spaces round-trip unambiguously.
class LineReader {
 public:
  explicit LineReader(const std::string& content) {
    size_t begin = 0;
    while (begin <= content.size()) {
      size_t end = content.find('\n', begin);
      if (end == std::string::npos) {
        if (begin < content.size()) lines_.push_back(content.substr(begin));
        break;
      }
      lines_.push_back(content.substr(begin, end - begin));
      begin = end + 1;
    }
  }

  bool Next(std::string* line) {
    if (next_ >= lines_.size()) return false;
    *line = lines_[next_++];
    return true;
  }

  size_t line_number() const { return next_; }

 private:
  std::vector<std::string> lines_;
  size_t next_ = 0;
};

Status TruncatedError(const char* section, const LineReader& reader) {
  return Status::InvalidArgument(std::string("truncated ") + section +
                                 " section at line " +
                                 std::to_string(reader.line_number()));
}

/// Parses `line` as `<tag> <v0> <v1> ...` with exactly `values.size()`
/// numeric fields and no trailing garbage.
Status ParseTaggedDoubles(const std::string& line, const char* tag,
                          std::vector<double*> values) {
  std::istringstream is(line);
  std::string got;
  is >> got;
  if (is.fail() || got != tag) {
    return Status::InvalidArgument(std::string("expected '") + tag + "' line, got '" +
                                   got + "'");
  }
  for (double* v : values) {
    is >> *v;
    if (is.fail()) {
      return Status::InvalidArgument(std::string("truncated '") + tag + "' line");
    }
    if (!std::isfinite(*v)) {
      return Status::InvalidArgument(std::string("non-finite value on '") + tag +
                                     "' line");
    }
  }
  std::string rest;
  is >> rest;
  if (!rest.empty()) {
    return Status::InvalidArgument(std::string("trailing garbage on '") + tag +
                                   "' line");
  }
  return Status::Ok();
}

Status ParseTaggedCount(const std::string& line, const char* tag, size_t cap,
                        size_t* out) {
  std::istringstream is(line);
  std::string got;
  long long n = -1;
  is >> got >> n;
  std::string rest;
  is >> rest;
  if (is.fail() && rest.empty() && got == tag) {
    // `is >> rest` on an exhausted stream sets fail; distinguish from a
    // failed count read by checking n directly below.
  }
  if (got != tag || n < 0) {
    return Status::InvalidArgument(std::string("bad '") + tag + "' count line");
  }
  if (!rest.empty()) {
    return Status::InvalidArgument(std::string("trailing garbage on '") + tag +
                                   "' line");
  }
  if (static_cast<size_t>(n) > cap) {
    return Status::InvalidArgument(std::string("implausible '") + tag + "' count");
  }
  *out = static_cast<size_t>(n);
  return Status::Ok();
}

bool ValidLat(double lat) { return std::isfinite(lat) && lat >= -90.0 && lat <= 90.0; }
bool ValidLon(double lon) { return std::isfinite(lon) && lon >= -360.0 && lon <= 360.0; }

bool LineSafe(const std::string& s) {
  return s.find('\n') == std::string::npos && s.find('\r') == std::string::npos;
}

Status ParseCategory(long long raw, text::EntityCategory* out) {
  if (raw < 0 || raw >= kNumEntityCategories) {
    return Status::InvalidArgument("entity category out of range");
  }
  *out = static_cast<text::EntityCategory>(raw);
  return Status::Ok();
}

/// Every invariant TweetGenerator's constructor enforces with EDGE_CHECK,
/// re-stated as Status errors: a world section that parses must never abort
/// downstream construction.
Status ValidateWorld(const data::WorldConfig& world) {
  if (world.pois.empty()) return Status::InvalidArgument("world has no POIs");
  if (world.background_words.empty()) {
    return Status::InvalidArgument("world has no background words");
  }
  if (!(world.timeline_days > 0.0) || !std::isfinite(world.timeline_days)) {
    return Status::InvalidArgument("timeline_days must be finite and > 0");
  }
  const geo::BoundingBox& r = world.region;
  if (!ValidLat(r.min_lat) || !ValidLat(r.max_lat) || !ValidLon(r.min_lon) ||
      !ValidLon(r.max_lon) || r.min_lat >= r.max_lat || r.min_lon >= r.max_lon) {
    return Status::InvalidArgument("bad world region");
  }
  auto valid_prob = [](double p) { return std::isfinite(p) && p >= 0.0 && p <= 1.0; };
  if (!std::isfinite(world.no_topic_rate) || world.no_topic_rate < 0.0 ||
      !valid_prob(world.p_mention_poi) || !valid_prob(world.p_alias_mention) ||
      !valid_prob(world.p_mention_topic) || !valid_prob(world.p_second_poi) ||
      !valid_prob(world.p_coarse_area) || !valid_prob(world.p_no_entity)) {
    return Status::InvalidArgument("bad world sampling rates");
  }
  for (const data::PoiSpec& poi : world.pois) {
    if (poi.name.empty()) return Status::InvalidArgument("POI with empty name");
    if (poi.branches.empty()) {
      return Status::InvalidArgument("POI without branches: " + poi.name);
    }
    if (!(poi.sigma_km > 0.0) || !std::isfinite(poi.sigma_km) ||
        !(poi.popularity > 0.0) || !std::isfinite(poi.popularity)) {
      return Status::InvalidArgument("bad POI sigma/popularity: " + poi.name);
    }
    for (const geo::LatLon& b : poi.branches) {
      if (!ValidLat(b.lat) || !ValidLon(b.lon)) {
        return Status::InvalidArgument("POI branch out of range: " + poi.name);
      }
    }
    for (const std::string& alias : poi.aliases) {
      if (alias.empty()) return Status::InvalidArgument("empty POI alias");
    }
  }
  for (const data::TopicSpec& topic : world.topics) {
    if (topic.name.empty()) return Status::InvalidArgument("topic with empty name");
    if (topic.phases.empty()) {
      return Status::InvalidArgument("topic without phases: " + topic.name);
    }
    for (const data::TopicPhase& phase : topic.phases) {
      if (!std::isfinite(phase.start_day) || !std::isfinite(phase.end_day) ||
          !(phase.start_day < phase.end_day) || !std::isfinite(phase.rate) ||
          phase.rate < 0.0) {
        return Status::InvalidArgument("bad topic phase: " + topic.name);
      }
      for (const auto& [poi_index, weight] : phase.poi_affinity) {
        if (poi_index >= world.pois.size()) {
          return Status::InvalidArgument("phase affinity POI index out of range: " +
                                         topic.name);
        }
        if (!(weight > 0.0) || !std::isfinite(weight)) {
          return Status::InvalidArgument("phase affinity weight must be > 0: " +
                                         topic.name);
        }
      }
    }
  }
  return Status::Ok();
}

struct SectionSpec {
  const char* name;
  bool required;
};

constexpr SectionSpec kSections[] = {
    {"world", true},  {"rng", true},   {"vocab", true},      {"graph", true},
    {"model", true},  {"serve", true}, {"trainstate", false},
};

/// Manifest header line: magic + version. v2's model section is an fp64
/// edge-model.v1 store; v1's was a text checkpoint no loader reads now.
constexpr char kManifestMagic[] = "EDGE-SNAPSHOT ";
constexpr char kManifestVersion[] = "v2";

std::string SectionPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".section";
}

}  // namespace

std::string SerializeWorldConfig(const data::WorldConfig& world) {
  EDGE_CHECK(LineSafe(world.name) && LineSafe(world.start_date));
  std::ostringstream os;
  os.precision(17);
  os << "EDGE-WORLD v1\n";
  os << "name " << world.name << "\n";
  os << "start " << world.start_date << "\n";
  os << "timeline " << world.timeline_days << "\n";
  os << "region " << world.region.min_lat << " " << world.region.max_lat << " "
     << world.region.min_lon << " " << world.region.max_lon << "\n";
  os << "rates " << world.no_topic_rate << " " << world.p_mention_poi << " "
     << world.p_alias_mention << " " << world.p_mention_topic << " "
     << world.p_second_poi << " " << world.p_coarse_area << " " << world.p_no_entity
     << "\n";
  os << "seed " << world.seed << "\n";
  os << "pois " << world.pois.size() << "\n";
  for (const data::PoiSpec& poi : world.pois) {
    EDGE_CHECK(LineSafe(poi.name));
    os << "poi " << static_cast<int>(poi.category) << " " << poi.sigma_km << " "
       << poi.popularity << " " << poi.branches.size() << " " << poi.aliases.size()
       << "\n";
    os << poi.name << "\n";
    for (const geo::LatLon& b : poi.branches) os << b.lat << " " << b.lon << "\n";
    for (const std::string& alias : poi.aliases) {
      EDGE_CHECK(LineSafe(alias));
      os << alias << "\n";
    }
  }
  os << "topics " << world.topics.size() << "\n";
  for (const data::TopicSpec& topic : world.topics) {
    EDGE_CHECK(LineSafe(topic.name));
    os << "topic " << static_cast<int>(topic.category) << " " << topic.phases.size()
       << "\n";
    os << topic.name << "\n";
    for (const data::TopicPhase& phase : topic.phases) {
      os << "phase " << phase.start_day << " " << phase.end_day << " " << phase.rate
         << " " << phase.poi_affinity.size();
      for (const auto& [poi_index, weight] : phase.poi_affinity) {
        os << " " << poi_index << " " << weight;
      }
      os << "\n";
    }
  }
  os << "background " << world.background_words.size() << "\n";
  for (const std::string& word : world.background_words) {
    EDGE_CHECK(LineSafe(word));
    os << word << "\n";
  }
  return os.str();
}

Result<data::WorldConfig> ParseWorldConfig(const std::string& content) {
  LineReader reader(content);
  std::string line;
  if (!reader.Next(&line) || line != "EDGE-WORLD v1") {
    return Status::InvalidArgument("bad world section header");
  }
  data::WorldConfig world;
  if (!reader.Next(&line) || line.compare(0, 5, "name ") != 0) {
    return Status::InvalidArgument("missing world name line");
  }
  world.name = line.substr(5);
  if (!reader.Next(&line) || line.compare(0, 6, "start ") != 0) {
    return Status::InvalidArgument("missing world start line");
  }
  world.start_date = line.substr(6);
  if (!reader.Next(&line)) return TruncatedError("world", reader);
  Status status = ParseTaggedDoubles(line, "timeline", {&world.timeline_days});
  if (!status.ok()) return status;
  if (!reader.Next(&line)) return TruncatedError("world", reader);
  status = ParseTaggedDoubles(line, "region",
                              {&world.region.min_lat, &world.region.max_lat,
                               &world.region.min_lon, &world.region.max_lon});
  if (!status.ok()) return status;
  if (!reader.Next(&line)) return TruncatedError("world", reader);
  status = ParseTaggedDoubles(
      line, "rates",
      {&world.no_topic_rate, &world.p_mention_poi, &world.p_alias_mention,
       &world.p_mention_topic, &world.p_second_poi, &world.p_coarse_area,
       &world.p_no_entity});
  if (!status.ok()) return status;
  if (!reader.Next(&line)) return TruncatedError("world", reader);
  {
    std::istringstream is(line);
    std::string tag;
    is >> tag >> world.seed;
    if (is.fail() || tag != "seed") {
      return Status::InvalidArgument("bad world seed line");
    }
  }

  size_t num_pois = 0;
  if (!reader.Next(&line)) return TruncatedError("world", reader);
  status = ParseTaggedCount(line, "pois", kMaxPois, &num_pois);
  if (!status.ok()) return status;
  world.pois.reserve(num_pois);
  for (size_t p = 0; p < num_pois; ++p) {
    if (!reader.Next(&line)) return TruncatedError("world", reader);
    std::istringstream is(line);
    std::string tag;
    long long category = -1;
    long long num_branches = -1, num_aliases = -1;
    data::PoiSpec poi;
    is >> tag >> category >> poi.sigma_km >> poi.popularity >> num_branches >>
        num_aliases;
    if (is.fail() || tag != "poi" || num_branches < 0 || num_aliases < 0) {
      return Status::InvalidArgument("bad poi header line");
    }
    if (static_cast<size_t>(num_branches) > kMaxBranches ||
        static_cast<size_t>(num_aliases) > kMaxAliases) {
      return Status::InvalidArgument("implausible poi branch/alias count");
    }
    status = ParseCategory(category, &poi.category);
    if (!status.ok()) return status;
    if (!reader.Next(&poi.name)) return TruncatedError("world", reader);
    for (long long b = 0; b < num_branches; ++b) {
      if (!reader.Next(&line)) return TruncatedError("world", reader);
      geo::LatLon branch;
      std::istringstream bs(line);
      bs >> branch.lat >> branch.lon;
      if (bs.fail()) return Status::InvalidArgument("bad poi branch line");
      poi.branches.push_back(branch);
    }
    for (long long a = 0; a < num_aliases; ++a) {
      std::string alias;
      if (!reader.Next(&alias)) return TruncatedError("world", reader);
      poi.aliases.push_back(std::move(alias));
    }
    world.pois.push_back(std::move(poi));
  }

  size_t num_topics = 0;
  if (!reader.Next(&line)) return TruncatedError("world", reader);
  status = ParseTaggedCount(line, "topics", kMaxTopics, &num_topics);
  if (!status.ok()) return status;
  world.topics.reserve(num_topics);
  for (size_t t = 0; t < num_topics; ++t) {
    if (!reader.Next(&line)) return TruncatedError("world", reader);
    std::istringstream is(line);
    std::string tag;
    long long category = -1, num_phases = -1;
    is >> tag >> category >> num_phases;
    if (is.fail() || tag != "topic" || num_phases < 0 ||
        static_cast<size_t>(num_phases) > kMaxPhases) {
      return Status::InvalidArgument("bad topic header line");
    }
    data::TopicSpec topic;
    status = ParseCategory(category, &topic.category);
    if (!status.ok()) return status;
    if (!reader.Next(&topic.name)) return TruncatedError("world", reader);
    for (long long ph = 0; ph < num_phases; ++ph) {
      if (!reader.Next(&line)) return TruncatedError("world", reader);
      std::istringstream ps(line);
      std::string ptag;
      long long num_affinity = -1;
      data::TopicPhase phase;
      ps >> ptag >> phase.start_day >> phase.end_day >> phase.rate >> num_affinity;
      if (ps.fail() || ptag != "phase" || num_affinity < 0 ||
          static_cast<size_t>(num_affinity) > kMaxAffinity) {
        return Status::InvalidArgument("bad topic phase line");
      }
      for (long long k = 0; k < num_affinity; ++k) {
        long long poi_index = -1;
        double weight = 0.0;
        ps >> poi_index >> weight;
        if (ps.fail() || poi_index < 0) {
          return Status::InvalidArgument("bad phase affinity pair");
        }
        phase.poi_affinity.emplace_back(static_cast<size_t>(poi_index), weight);
      }
      topic.phases.push_back(std::move(phase));
    }
    world.topics.push_back(std::move(topic));
  }

  size_t num_words = 0;
  if (!reader.Next(&line)) return TruncatedError("world", reader);
  status = ParseTaggedCount(line, "background", kMaxWords, &num_words);
  if (!status.ok()) return status;
  world.background_words.reserve(num_words);
  for (size_t w = 0; w < num_words; ++w) {
    std::string word;
    if (!reader.Next(&word)) return TruncatedError("world", reader);
    world.background_words.push_back(std::move(word));
  }
  if (reader.Next(&line)) {
    return Status::InvalidArgument("trailing garbage after world section");
  }
  status = ValidateWorld(world);
  if (!status.ok()) return status;
  return world;
}

std::string SerializeVocabulary(const text::Vocabulary& vocabulary) {
  std::ostringstream os;
  os << "EDGE-VOCAB v1\n";
  os << vocabulary.size() << " " << vocabulary.total_count() << "\n";
  for (size_t id = 0; id < vocabulary.size(); ++id) {
    EDGE_CHECK(LineSafe(vocabulary.TokenOf(id)));
    os << vocabulary.CountOf(id) << " " << vocabulary.TokenOf(id) << "\n";
  }
  return os.str();
}

Result<text::Vocabulary> ParseVocabulary(const std::string& content) {
  LineReader reader(content);
  std::string line;
  if (!reader.Next(&line) || line != "EDGE-VOCAB v1") {
    return Status::InvalidArgument("bad vocab section header");
  }
  if (!reader.Next(&line)) return TruncatedError("vocab", reader);
  std::istringstream hs(line);
  long long size = -1, total = -1;
  hs >> size >> total;
  if (hs.fail() || size < 0 || total < 0 || static_cast<size_t>(size) > kMaxVocab) {
    return Status::InvalidArgument("bad vocab header counts");
  }
  text::Vocabulary vocabulary;
  for (long long i = 0; i < size; ++i) {
    if (!reader.Next(&line)) return TruncatedError("vocab", reader);
    size_t space = line.find(' ');
    if (space == std::string::npos || space + 1 >= line.size()) {
      return Status::InvalidArgument("bad vocab entry line");
    }
    long long count = -1;
    std::istringstream cs(line.substr(0, space));
    cs >> count;
    if (cs.fail() || count < 0) {
      return Status::InvalidArgument("bad vocab entry count");
    }
    std::string token = line.substr(space + 1);
    if (vocabulary.Lookup(token) != text::Vocabulary::kNotFound) {
      return Status::InvalidArgument("duplicate vocab token: " + token);
    }
    vocabulary.Add(token, count);
  }
  if (reader.Next(&line)) {
    return Status::InvalidArgument("trailing garbage after vocab section");
  }
  if (vocabulary.total_count() != total) {
    return Status::InvalidArgument("vocab total count disagrees with entries");
  }
  return vocabulary;
}

std::string SerializeEntityGraph(const graph::EntityGraph& graph) {
  std::ostringstream os;
  os.precision(17);
  os << "EDGE-GRAPH v1\n";
  os << "nodes " << graph.num_nodes() << "\n";
  for (size_t id = 0; id < graph.num_nodes(); ++id) {
    EDGE_CHECK(LineSafe(graph.NodeName(id)));
    os << graph.NodeName(id) << "\n";
  }
  os << "edges " << graph.num_edges() << "\n";
  // Canonical order (ascending a, then b) so identical graphs serialize to
  // identical bytes regardless of hash-map iteration order.
  for (size_t a = 0; a < graph.num_nodes(); ++a) {
    std::vector<std::pair<size_t, double>> higher;
    for (const auto& [b, w] : graph.Neighbors(a)) {
      if (b > a) higher.emplace_back(b, w);
    }
    std::sort(higher.begin(), higher.end());
    for (const auto& [b, w] : higher) {
      os << a << " " << b << " " << w << "\n";
    }
  }
  return os.str();
}

Result<graph::EntityGraph> ParseEntityGraph(const std::string& content) {
  LineReader reader(content);
  std::string line;
  if (!reader.Next(&line) || line != "EDGE-GRAPH v1") {
    return Status::InvalidArgument("bad graph section header");
  }
  size_t num_nodes = 0;
  if (!reader.Next(&line)) return TruncatedError("graph", reader);
  Status status = ParseTaggedCount(line, "nodes", kMaxNodes, &num_nodes);
  if (!status.ok()) return status;
  std::vector<std::string> names;
  names.reserve(num_nodes);
  std::unordered_set<std::string> seen_names;
  for (size_t n = 0; n < num_nodes; ++n) {
    std::string name;
    if (!reader.Next(&name)) return TruncatedError("graph", reader);
    if (name.empty()) return Status::InvalidArgument("empty graph node name");
    if (!seen_names.insert(name).second) {
      return Status::InvalidArgument("duplicate graph node name: " + name);
    }
    names.push_back(std::move(name));
  }
  size_t num_edges = 0;
  if (!reader.Next(&line)) return TruncatedError("graph", reader);
  status = ParseTaggedCount(line, "edges", kMaxEdges, &num_edges);
  if (!status.ok()) return status;
  std::vector<graph::EntityGraph::WeightedEdge> edges;
  edges.reserve(num_edges);
  std::unordered_set<uint64_t> seen_edges;
  for (size_t e = 0; e < num_edges; ++e) {
    if (!reader.Next(&line)) return TruncatedError("graph", reader);
    std::istringstream es(line);
    long long a = -1, b = -1;
    double w = 0.0;
    es >> a >> b >> w;
    if (es.fail() || a < 0 || b < 0) {
      return Status::InvalidArgument("bad graph edge line");
    }
    graph::EntityGraph::WeightedEdge edge{static_cast<size_t>(a),
                                          static_cast<size_t>(b), w};
    if (edge.a >= edge.b || edge.b >= names.size()) {
      return Status::InvalidArgument("graph edge endpoints out of range");
    }
    if (!(w > 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument("graph edge weight must be finite and > 0");
    }
    uint64_t key = (static_cast<uint64_t>(edge.a) << 32) | static_cast<uint64_t>(edge.b);
    if (!seen_edges.insert(key).second) {
      return Status::InvalidArgument("duplicate graph edge");
    }
    edges.push_back(edge);
  }
  if (reader.Next(&line)) {
    return Status::InvalidArgument("trailing garbage after graph section");
  }
  // Every precondition of FromParts is now established; it cannot abort.
  return graph::EntityGraph::FromParts(std::move(names), edges);
}

std::string SerializeServeOptions(const serve::GeoServiceOptions& options) {
  std::ostringstream os;
  os.precision(17);
  os << "EDGE-SERVE-OPTIONS v3\n";
  os << "max_batch " << options.max_batch << "\n";
  os << "num_workers " << options.num_workers << "\n";
  os << "queue_capacity " << options.queue_capacity << "\n";
  os << "cache_capacity " << options.cache_capacity << "\n";
  os << "default_deadline_ms " << options.default_deadline_ms << "\n";
  return os.str();
}

Result<serve::GeoServiceOptions> ParseServeOptions(const std::string& content) {
  LineReader reader(content);
  std::string line;
  // v2 (snapshots saved before serving dropped its thread budget) also ends
  // in the line "predict_threads <n>": read, then dropped.
  const bool v2 = reader.Next(&line) && line == "EDGE-SERVE-OPTIONS v2";
  if (!v2 && line != "EDGE-SERVE-OPTIONS v3") {
    return Status::InvalidArgument("bad serve options section header");
  }
  serve::GeoServiceOptions options;
  auto read_size = [&](const char* tag, size_t* out) -> Status {
    if (!reader.Next(&line)) return TruncatedError("serve", reader);
    std::istringstream is(line);
    std::string got;
    long long v = -1;
    is >> got >> v;
    if (is.fail() || got != tag || v < 0) {
      return Status::InvalidArgument(std::string("bad serve option line: ") + tag);
    }
    *out = static_cast<size_t>(v);
    return Status::Ok();
  };
  Status status = read_size("max_batch", &options.max_batch);
  if (status.ok()) status = read_size("num_workers", &options.num_workers);
  if (status.ok()) status = read_size("queue_capacity", &options.queue_capacity);
  if (status.ok()) status = read_size("cache_capacity", &options.cache_capacity);
  if (status.ok()) {
    if (!reader.Next(&line)) return TruncatedError("serve", reader);
    status = ParseTaggedDoubles(line, "default_deadline_ms",
                                {&options.default_deadline_ms});
  }
  if (status.ok() && v2) {
    size_t predict_threads = 0;
    status = read_size("predict_threads", &predict_threads);
  }
  if (!status.ok()) return status;
  if (reader.Next(&line)) {
    return Status::InvalidArgument("trailing garbage after serve options section");
  }
  status = options.Validate();
  if (!status.ok()) return status;
  return options;
}

Result<SystemSnapshot> CaptureSystemSnapshot(const core::EdgeModel& model,
                                             const data::WorldConfig& world,
                                             const data::ProcessedDataset& dataset,
                                             const serve::GeoServiceOptions& options) {
  Status status = options.Validate();
  if (!status.ok()) return status;
  status = ValidateWorld(world);
  if (!status.ok()) return status;
  SystemSnapshot snapshot;
  snapshot.world = world;
  snapshot.rng = Rng(world.seed).SaveState();
  // fp64 keeps the store's predictions bitwise-identical to the model's.
  status = core::SerializeModelStore(model, core::EmbedPrecision::kFp64,
                                     &snapshot.model_store);
  if (!status.ok()) return status;
  snapshot.graph = model.entity_graph();
  for (const data::ProcessedTweet& tweet : dataset.train) {
    for (const text::Entity& entity : tweet.entities) {
      snapshot.vocabulary.Add(entity.name);
    }
  }
  snapshot.serve_options = options;
  return snapshot;
}

Status SaveSystemSnapshot(const SystemSnapshot& snapshot, const std::string& dir) {
  // Pre-write consistency gate: the vocabulary must cover the graph node set
  // (Load enforces this, so catch a mismatched capture before it persists).
  for (size_t id = 0; id < snapshot.graph.num_nodes(); ++id) {
    if (snapshot.vocabulary.Lookup(snapshot.graph.NodeName(id)) ==
        text::Vocabulary::kNotFound) {
      return Status::FailedPrecondition("graph node missing from vocabulary: " +
                                        snapshot.graph.NodeName(id));
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create snapshot dir " + dir + ": " + ec.message());
  }

  std::vector<std::pair<std::string, std::string>> sections;
  sections.emplace_back("world", SerializeWorldConfig(snapshot.world));
  sections.emplace_back("rng", SerializeRngState(snapshot.rng) + "\n");
  sections.emplace_back("vocab", SerializeVocabulary(snapshot.vocabulary));
  sections.emplace_back("graph", SerializeEntityGraph(snapshot.graph));
  sections.emplace_back("model", snapshot.model_store);
  sections.emplace_back("serve", SerializeServeOptions(snapshot.serve_options));
  if (snapshot.has_train_state) {
    sections.emplace_back("trainstate", core::SerializeTrainState(snapshot.train_state));
  }

  std::ostringstream manifest;
  manifest << kManifestMagic << kManifestVersion << "\n";
  for (const auto& [name, payload] : sections) {
    Status status = WriteFileAtomic(SectionPath(dir, name), payload,
                                    "io.snapshot.write");
    if (!status.ok()) return status;
    manifest << "section " << name << " " << payload.size() << " "
             << ToHex16(Fnv1a64(payload)) << "\n";
  }
  std::string body = manifest.str();
  // The manifest is written last: a save torn before this point leaves no
  // manifest, which Load rejects outright.
  return WriteFileAtomic(dir + "/MANIFEST",
                         body + "END " + ToHex16(Fnv1a64(body)) + "\n",
                         "io.snapshot.write");
}

Result<SystemSnapshot> LoadSystemSnapshot(const std::string& dir) {
  std::string manifest;
  Status status = ReadFileToString(dir + "/MANIFEST", &manifest, "io.snapshot.read");
  if (!status.ok()) return status;

  // Checksum gate on the manifest itself: it must end with "END <16-hex>\n"
  // hashing every preceding byte, so every strict truncation prefix and any
  // bit flip is rejected before a single section is opened.
  if (manifest.empty() || manifest.back() != '\n') {
    return Status::InvalidArgument("snapshot manifest not newline-terminated");
  }
  size_t body_end = manifest.rfind('\n', manifest.size() - 2);
  size_t last_line_start = body_end == std::string::npos ? 0 : body_end + 1;
  std::string last_line =
      manifest.substr(last_line_start, manifest.size() - 1 - last_line_start);
  uint64_t want = 0;
  if (last_line.size() != 4 + 16 || last_line.compare(0, 4, "END ") != 0 ||
      !FromHex16(last_line.substr(4), &want)) {
    return Status::InvalidArgument("snapshot manifest missing END checksum line");
  }
  if (Fnv1a64Bytes(manifest.data(), last_line_start) != want) {
    return Status::InvalidArgument("snapshot manifest checksum mismatch");
  }

  LineReader reader(manifest.substr(0, last_line_start));
  std::string line;
  const std::string magic = kManifestMagic;
  if (!reader.Next(&line) || line.compare(0, magic.size(), magic) != 0) {
    return Status::InvalidArgument("bad snapshot manifest header");
  }
  std::string version = line.substr(magic.size());
  if (version != kManifestVersion) {
    return Status::InvalidArgument("unsupported snapshot version " + version +
                                   " (this build reads " + kManifestVersion + ")");
  }
  struct Listed {
    size_t bytes = 0;
    uint64_t checksum = 0;
  };
  std::unordered_map<std::string, Listed> listed;
  while (reader.Next(&line)) {
    std::istringstream is(line);
    std::string tag, name, hex;
    long long bytes = -1;
    is >> tag >> name >> bytes >> hex;
    Listed entry;
    if (is.fail() || tag != "section" || bytes < 0 ||
        static_cast<size_t>(bytes) > kMaxSectionBytes ||
        !FromHex16(hex, &entry.checksum)) {
      return Status::InvalidArgument("bad manifest section line");
    }
    bool known = false;
    for (const SectionSpec& spec : kSections) {
      if (name == spec.name) known = true;
    }
    if (!known) return Status::InvalidArgument("unknown snapshot section: " + name);
    entry.bytes = static_cast<size_t>(bytes);
    if (!listed.emplace(name, entry).second) {
      return Status::InvalidArgument("duplicate manifest section: " + name);
    }
  }
  for (const SectionSpec& spec : kSections) {
    if (spec.required && listed.find(spec.name) == listed.end()) {
      return Status::InvalidArgument(std::string("manifest missing section: ") +
                                     spec.name);
    }
  }

  auto read_section = [&](const std::string& name, std::string* payload) -> Status {
    const Listed& entry = listed.at(name);
    Status status =
        ReadFileToString(SectionPath(dir, name), payload, "io.snapshot.read");
    if (!status.ok()) return status;
    if (payload->size() != entry.bytes) {
      return Status::InvalidArgument("section '" + name + "' size mismatch (" +
                                     std::to_string(payload->size()) + " vs manifest " +
                                     std::to_string(entry.bytes) + ")");
    }
    if (Fnv1a64(*payload) != entry.checksum) {
      return Status::InvalidArgument("section '" + name +
                                     "' checksum mismatch (torn write or bit flip)");
    }
    return Status::Ok();
  };

  SystemSnapshot snapshot;
  std::string payload;

  status = read_section("world", &payload);
  if (!status.ok()) return status;
  Result<data::WorldConfig> world = ParseWorldConfig(payload);
  if (!world.ok()) return world.status();
  snapshot.world = std::move(world).value();

  status = read_section("rng", &payload);
  if (!status.ok()) return status;
  if (!payload.empty() && payload.back() == '\n') payload.pop_back();
  if (!ParseRngState(payload, &snapshot.rng)) {
    return Status::InvalidArgument("bad rng section");
  }

  status = read_section("vocab", &payload);
  if (!status.ok()) return status;
  Result<text::Vocabulary> vocabulary = ParseVocabulary(payload);
  if (!vocabulary.ok()) return vocabulary.status();
  snapshot.vocabulary = std::move(vocabulary).value();

  status = read_section("graph", &payload);
  if (!status.ok()) return status;
  Result<graph::EntityGraph> graph = ParseEntityGraph(payload);
  if (!graph.ok()) return graph.status();
  snapshot.graph = std::move(graph).value();

  status = read_section("model", &snapshot.model_store);
  if (!status.ok()) return status;
  // Full store validation (header, manifest, per-section checksums, finite
  // scans): the bytes must construct a servable model.
  Result<std::unique_ptr<core::EdgeModel>> model = SnapshotModel(snapshot);
  if (!model.ok()) {
    return Status::InvalidArgument("model section rejected: " +
                                   model.status().ToString());
  }

  status = read_section("serve", &payload);
  if (!status.ok()) return status;
  Result<serve::GeoServiceOptions> options = ParseServeOptions(payload);
  if (!options.ok()) return options.status();
  snapshot.serve_options = std::move(options).value();

  if (listed.find("trainstate") != listed.end()) {
    status = read_section("trainstate", &payload);
    if (!status.ok()) return status;
    Result<core::TrainState> train_state = core::ParseTrainState(payload);
    if (!train_state.ok()) return train_state.status();
    snapshot.train_state = std::move(train_state).value();
    snapshot.has_train_state = true;
  }

  // Cross-section consistency: the model's node table must be the graph's,
  // id for id, and every graph node must be a vocabulary entry — a snapshot
  // assembled from mismatched captures must not load.
  const core::EdgeModel& served = *model.value();
  if (served.num_entities() != snapshot.graph.num_nodes()) {
    return Status::InvalidArgument("model and graph sections disagree on node count");
  }
  for (size_t id = 0; id < snapshot.graph.num_nodes(); ++id) {
    if (served.NodeNameOf(id) != snapshot.graph.NodeName(id)) {
      return Status::InvalidArgument("model and graph sections disagree at node " +
                                     std::to_string(id));
    }
    if (snapshot.vocabulary.Lookup(snapshot.graph.NodeName(id)) ==
        text::Vocabulary::kNotFound) {
      return Status::InvalidArgument("graph node missing from vocabulary: " +
                                     snapshot.graph.NodeName(id));
    }
  }
  return snapshot;
}

Result<std::unique_ptr<core::EdgeModel>> SnapshotModel(const SystemSnapshot& snapshot) {
  Result<std::shared_ptr<const core::MmapModelStore>> store =
      core::MmapModelStore::FromBytes(snapshot.model_store, core::StoreVerify::kFull);
  if (!store.ok()) return store.status();
  return core::EdgeModel::LoadFromStore(std::move(store).value());
}

}  // namespace edge::snapshot
