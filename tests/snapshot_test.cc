#include "edge/snapshot/system_snapshot.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "edge/common/check.h"
#include "edge/common/file_util.h"
#include "edge/common/hash.h"
#include "edge/core/model_store.h"
#include "edge/data/worlds.h"
#include "edge/snapshot/fixture.h"

/// SystemSnapshot drills (DESIGN.md §13): bitwise section round-trips, the
/// save/load cycle, and the untrusted-input sweep — every truncation and bit
/// flip of every section must come back from Load as a Status, never an
/// abort, never a partially constructed snapshot.

namespace edge::snapshot {
namespace {

/// One trained fast fixture per process; every test reads, none mutates.
const SystemSnapshot& Fixture() {
  static const SystemSnapshot* snapshot = [] {
    Result<SystemSnapshot> built = BuildDemoSnapshot(FastDemoSnapshotOptions());
    EDGE_CHECK(built.ok()) << built.status().ToString();
    return new SystemSnapshot(std::move(built).value());
  }();
  return *snapshot;
}

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- Section round-trips -------------------------------------------------

TEST(SystemSnapshotTest, WorldSectionRoundTripsAllPresetsBitwise) {
  data::WorldPresetOptions preset;  // Full-size presets, no training needed.
  for (const data::WorldConfig& world :
       {data::MakeNymaWorld(preset), data::MakeNy2020World(preset),
        data::MakeLamaWorld(preset)}) {
    std::string serialized = SerializeWorldConfig(world);
    Result<data::WorldConfig> parsed = ParseWorldConfig(serialized);
    ASSERT_TRUE(parsed.ok()) << world.name << ": " << parsed.status().ToString();
    // Bitwise fidelity via canonical re-serialization: precision-17 doubles
    // round-trip exactly, so equal state implies equal bytes.
    EXPECT_EQ(serialized, SerializeWorldConfig(parsed.value())) << world.name;
  }
}

TEST(SystemSnapshotTest, VocabularySectionRoundTripsBitwise) {
  const SystemSnapshot& snapshot = Fixture();
  ASSERT_GT(snapshot.vocabulary.size(), 0u);
  std::string serialized = SerializeVocabulary(snapshot.vocabulary);
  Result<text::Vocabulary> parsed = ParseVocabulary(serialized);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().size(), snapshot.vocabulary.size());
  EXPECT_EQ(parsed.value().total_count(), snapshot.vocabulary.total_count());
  // Ids must be preserved, not just the token set: the entity graph keys on
  // them.
  for (size_t id = 0; id < snapshot.vocabulary.size(); ++id) {
    EXPECT_EQ(parsed.value().TokenOf(id), snapshot.vocabulary.TokenOf(id));
    EXPECT_EQ(parsed.value().CountOf(id), snapshot.vocabulary.CountOf(id));
  }
  EXPECT_EQ(serialized, SerializeVocabulary(parsed.value()));
}

TEST(SystemSnapshotTest, EntityGraphSectionRoundTripsWithEdgeWeights) {
  const SystemSnapshot& snapshot = Fixture();
  ASSERT_GT(snapshot.graph.num_nodes(), 0u);
  ASSERT_GT(snapshot.graph.num_edges(), 0u);
  std::string serialized = SerializeEntityGraph(snapshot.graph);
  Result<graph::EntityGraph> parsed = ParseEntityGraph(serialized);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().num_nodes(), snapshot.graph.num_nodes());
  ASSERT_EQ(parsed.value().num_edges(), snapshot.graph.num_edges());
  for (size_t a = 0; a < snapshot.graph.num_nodes(); ++a) {
    EXPECT_EQ(parsed.value().NodeName(a), snapshot.graph.NodeName(a));
    for (const auto& [b, w] : snapshot.graph.Neighbors(a)) {
      // Exact weights: the model store carries node names only.
      EXPECT_EQ(parsed.value().EdgeWeight(a, b), w);
    }
  }
  EXPECT_EQ(serialized, SerializeEntityGraph(parsed.value()));
}

TEST(SystemSnapshotTest, ServeOptionsSectionRoundTrips) {
  serve::GeoServiceOptions options;
  options.max_batch = 8;
  options.num_workers = 3;
  options.queue_capacity = 64;
  options.cache_capacity = 128;
  options.default_deadline_ms = 17.5;
  std::string serialized = SerializeServeOptions(options);
  EXPECT_EQ(serialized,
            "EDGE-SERVE-OPTIONS v3\nmax_batch 8\nnum_workers 3\nqueue_capacity "
            "64\ncache_capacity 128\ndefault_deadline_ms 17.5\n");
  Result<serve::GeoServiceOptions> parsed = ParseServeOptions(serialized);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(serialized, SerializeServeOptions(parsed.value()));
  EXPECT_EQ(parsed.value().num_workers, 3u);
  EXPECT_EQ(parsed.value().default_deadline_ms, 17.5);
}

TEST(SystemSnapshotTest, ServeOptionsV2SectionStillParses) {
  // Snapshots saved before serving dropped its thread budget end in a
  // predict_threads line: it is read, then dropped. v1 (with the batch
  // timer's max_delay_ms line) is refused.
  const std::string v2 =
      "EDGE-SERVE-OPTIONS v2\nmax_batch 8\nnum_workers 2\nqueue_capacity "
      "64\ncache_capacity 256\ndefault_deadline_ms 0\npredict_threads 1\n";
  Result<serve::GeoServiceOptions> parsed = ParseServeOptions(v2);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().max_batch, 8u);
  EXPECT_EQ(parsed.value().num_workers, 2u);
  EXPECT_EQ(parsed.value().queue_capacity, 64u);
  EXPECT_EQ(parsed.value().cache_capacity, 256u);
  EXPECT_EQ(parsed.value().default_deadline_ms, 0.0);
  // Re-saving writes v3, which has no thread-budget line.
  std::string resaved = SerializeServeOptions(parsed.value());
  EXPECT_EQ(resaved.rfind("EDGE-SERVE-OPTIONS v3\n", 0), 0u) << resaved;
  EXPECT_EQ(resaved.find("predict_threads"), std::string::npos);

  std::string negative = v2;
  negative.replace(negative.find("predict_threads 1"), 17, "predict_threads -1");
  EXPECT_FALSE(ParseServeOptions(negative).ok());
  std::string missing = v2;
  missing.erase(missing.find("predict_threads 1\n"), 18);
  EXPECT_FALSE(ParseServeOptions(missing).ok());
  // v3 has no such line: a v3 header over a v2 body is rejected.
  std::string mislabelled = v2;
  mislabelled.replace(0, 21, "EDGE-SERVE-OPTIONS v3");
  EXPECT_FALSE(ParseServeOptions(mislabelled).ok());

  const std::string v1 =
      "EDGE-SERVE-OPTIONS v1\nmax_batch 8\nmax_delay_ms 1\nnum_workers "
      "2\nqueue_capacity 64\ncache_capacity 256\ndefault_deadline_ms "
      "0\npredict_threads 1\n";
  Result<serve::GeoServiceOptions> refused = ParseServeOptions(v1);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().ToString().find("header"), std::string::npos)
      << refused.status().ToString();
}

// --- Full save/load cycle ------------------------------------------------

TEST(SystemSnapshotTest, SaveLoadRoundTripsEverySection) {
  const SystemSnapshot& snapshot = Fixture();
  std::string dir = TempDir("snapshot_roundtrip");
  ASSERT_TRUE(SaveSystemSnapshot(snapshot, dir).ok());
  Result<SystemSnapshot> loaded = LoadSystemSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(SerializeWorldConfig(loaded.value().world),
            SerializeWorldConfig(snapshot.world));
  EXPECT_EQ(SerializeVocabulary(loaded.value().vocabulary),
            SerializeVocabulary(snapshot.vocabulary));
  EXPECT_EQ(SerializeEntityGraph(loaded.value().graph),
            SerializeEntityGraph(snapshot.graph));
  EXPECT_EQ(SerializeServeOptions(loaded.value().serve_options),
            SerializeServeOptions(snapshot.serve_options));
  // The model store travels as raw bytes — exact, not re-encoded.
  EXPECT_EQ(loaded.value().model_store, snapshot.model_store);
  EXPECT_EQ(loaded.value().rng.state, snapshot.rng.state);
  EXPECT_EQ(loaded.value().rng.inc, snapshot.rng.inc);
  EXPECT_EQ(loaded.value().has_train_state, snapshot.has_train_state);
}

TEST(SystemSnapshotTest, SaveLoadCarriesOptionalTrainState) {
  SystemSnapshot snapshot = Fixture();
  snapshot.has_train_state = true;
  snapshot.train_state.fingerprint = "v1|snapshot-test";
  snapshot.train_state.next_epoch = 2;
  snapshot.train_state.loss_history = {3.0, 2.5};
  snapshot.train_state.adam.step_count = 2;
  nn::Matrix m(2, 2);
  m.At(0, 0) = 1.5;
  m.At(1, 1) = -2.25;
  snapshot.train_state.params = {m};
  snapshot.train_state.adam.m = {m};
  snapshot.train_state.adam.v = {m};

  std::string dir = TempDir("snapshot_trainstate");
  ASSERT_TRUE(SaveSystemSnapshot(snapshot, dir).ok());
  Result<SystemSnapshot> loaded = LoadSystemSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded.value().has_train_state);
  EXPECT_EQ(loaded.value().train_state.fingerprint, "v1|snapshot-test");
  EXPECT_EQ(loaded.value().train_state.next_epoch, 2);
  ASSERT_EQ(loaded.value().train_state.params.size(), 1u);
  EXPECT_EQ(loaded.value().train_state.params[0].At(1, 1), -2.25);
}

// --- Untrusted-input gates -----------------------------------------------

/// Rewrites one section file with `mutate(bytes)` and expects Load to fail.
void ExpectLoadRejects(const std::string& dir, const std::string& file,
                       const std::function<std::string(std::string)>& mutate,
                       const std::string& what) {
  std::string path = dir + "/" + file;
  std::string original;
  ASSERT_TRUE(ReadFileToString(path, &original).ok()) << path;
  std::string corrupt = mutate(original);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  Result<SystemSnapshot> loaded = LoadSystemSnapshot(dir);
  EXPECT_FALSE(loaded.ok()) << what << " was accepted";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << original;
  }
}

TEST(SystemSnapshotTest, EveryManifestTruncationPrefixIsRejected) {
  std::string dir = TempDir("snapshot_manifest_trunc");
  ASSERT_TRUE(SaveSystemSnapshot(Fixture(), dir).ok());
  std::string manifest;
  ASSERT_TRUE(ReadFileToString(dir + "/MANIFEST", &manifest).ok());
  ASSERT_GT(manifest.size(), 50u);
  for (size_t length = 0; length < manifest.size(); ++length) {
    ExpectLoadRejects(
        dir, "MANIFEST",
        [length](std::string bytes) { return bytes.substr(0, length); },
        "manifest prefix of " + std::to_string(length) + " bytes");
  }
}

TEST(SystemSnapshotTest, SectionTruncationsAndBitFlipsAreRejected) {
  std::string dir = TempDir("snapshot_section_fuzz");
  ASSERT_TRUE(SaveSystemSnapshot(Fixture(), dir).ok());
  const char* sections[] = {"world.section", "rng.section",   "vocab.section",
                            "graph.section", "model.section", "serve.section"};
  for (const char* section : sections) {
    std::string path = dir + "/" + std::string(section);
    std::string bytes;
    ASSERT_TRUE(ReadFileToString(path, &bytes).ok()) << path;
    ASSERT_GT(bytes.size(), 8u) << path;
    // Truncations at 16 lengths spread over the payload, including the
    // drop-one-byte case the manifest's size record must catch.
    for (size_t k = 0; k < 16; ++k) {
      size_t length = bytes.size() * k / 16;
      if (k == 15) length = bytes.size() - 1;
      ExpectLoadRejects(
          dir, section,
          [length](std::string b) { return b.substr(0, length); },
          std::string(section) + " truncated to " + std::to_string(length));
    }
    // Single bit flips at 16 offsets: the FNV checksum must catch each.
    for (size_t k = 0; k < 16; ++k) {
      size_t offset = bytes.size() * (2 * k + 1) / 32;
      ExpectLoadRejects(
          dir, section,
          [offset](std::string b) {
            b[offset] = static_cast<char>(b[offset] ^ 0x10);
            return b;
          },
          std::string(section) + " bit flip at " + std::to_string(offset));
    }
    // Growth: appended trailing bytes change size and checksum.
    ExpectLoadRejects(
        dir, section, [](std::string b) { return b + "x"; },
        std::string(section) + " with appended byte");
  }
}

TEST(SystemSnapshotTest, ModelSectionVocabularyMismatchIsRejected) {
  // A model section that is a valid store (every checksum intact) but names
  // a different entity set must fail the name-for-name check against the
  // graph section — mismatched captures are exactly the corruption per-file
  // checksums cannot see. Surgery: rewrite the last byte of the
  // lexicographically-last vocab name to 0x7f (keeps the sorted index
  // strictly ordered and every offset unchanged), then re-checksum the vocab
  // section and the manifest so the store still passes kFull.
  SystemSnapshot doctored = Fixture();
  std::string bytes = doctored.model_store;
  ASSERT_GT(bytes.size(), 128u);
  auto read_u64 = [&bytes](size_t offset) {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + offset, 8);
    return v;
  };
  auto write_u64 = [&bytes](size_t offset, uint64_t v) {
    std::memcpy(bytes.data() + offset, &v, 8);
  };
  uint64_t manifest_offset = read_u64(24);
  uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 32, 4);
  size_t vocab_entry = 0;
  uint64_t vocab_offset = 0;
  uint64_t vocab_size = 0;
  uint64_t index_offset = 0;
  for (uint32_t s = 0; s < section_count; ++s) {
    size_t entry = manifest_offset + s * 32;
    uint32_t id = 0;
    std::memcpy(&id, bytes.data() + entry, 4);
    if (id == 2) {  // kVocab.
      vocab_entry = entry;
      vocab_offset = read_u64(entry + 8);
      vocab_size = read_u64(entry + 16);
    } else if (id == 3) {  // kVocabIndex: node ids sorted by name.
      index_offset = read_u64(entry + 8);
    }
  }
  ASSERT_GT(vocab_size, 0u);
  ASSERT_GT(index_offset, 0u);
  uint64_t count = read_u64(vocab_offset);
  ASSERT_GT(count, 0u);
  uint64_t last_id = read_u64(index_offset + (count - 1) * 8);
  ASSERT_LT(last_id, count);
  size_t offsets = vocab_offset + 16;
  size_t blob_begin = offsets + (count + 1) * 8;
  bytes[blob_begin + read_u64(offsets + (last_id + 1) * 8) - 1] = '\x7f';
  // Re-checksum: vocab section FNV lives at entry+24; the manifest trailer
  // FNV covers all entries and sits right before end-of-file.
  write_u64(vocab_entry + 24,
            Fnv1a64Bytes(bytes.data() + vocab_offset, vocab_size));
  write_u64(manifest_offset + section_count * 32,
            Fnv1a64Bytes(bytes.data() + manifest_offset, section_count * 32));
  doctored.model_store = bytes;
  ASSERT_TRUE(core::MmapModelStore::FromBytes(bytes, core::StoreVerify::kFull).ok());

  std::string dir = TempDir("snapshot_model_vocab_mismatch");
  ASSERT_TRUE(SaveSystemSnapshot(doctored, dir).ok());
  Result<SystemSnapshot> loaded = LoadSystemSnapshot(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find(
                "model and graph sections disagree at node " + std::to_string(last_id)),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(SystemSnapshotTest, V1ManifestIsRejectedNamingItsVersion) {
  // v1 snapshots carried the model as a text checkpoint, which nothing reads
  // any more: a v1 manifest (checksum intact) must be refused by version,
  // not misparsed.
  std::string dir = TempDir("snapshot_v1_manifest");
  ASSERT_TRUE(SaveSystemSnapshot(Fixture(), dir).ok());
  std::string manifest;
  ASSERT_TRUE(ReadFileToString(dir + "/MANIFEST", &manifest).ok());
  ASSERT_EQ(manifest.rfind("EDGE-SNAPSHOT v2\n", 0), 0u) << manifest;
  std::string body = manifest.substr(0, manifest.rfind("END "));
  body.replace(0, 16, "EDGE-SNAPSHOT v1");
  {
    std::ofstream out(dir + "/MANIFEST", std::ios::binary | std::ios::trunc);
    out << body << "END " << ToHex16(Fnv1a64(body)) << "\n";
  }
  Result<SystemSnapshot> loaded = LoadSystemSnapshot(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("unsupported snapshot version v1"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(SystemSnapshotTest, MissingSectionFileIsRejected) {
  std::string dir = TempDir("snapshot_missing_file");
  ASSERT_TRUE(SaveSystemSnapshot(Fixture(), dir).ok());
  std::string hidden = dir + "/graph.section.hidden";
  std::filesystem::rename(dir + "/graph.section", hidden);
  Result<SystemSnapshot> loaded = LoadSystemSnapshot(dir);
  EXPECT_FALSE(loaded.ok());
  std::filesystem::rename(hidden, dir + "/graph.section");
  EXPECT_TRUE(LoadSystemSnapshot(dir).ok());
}

TEST(SystemSnapshotTest, MissingManifestIsRejected) {
  std::string dir = TempDir("snapshot_no_manifest");
  ASSERT_TRUE(SaveSystemSnapshot(Fixture(), dir).ok());
  std::filesystem::remove(dir + "/MANIFEST");
  EXPECT_FALSE(LoadSystemSnapshot(dir).ok());
  EXPECT_FALSE(LoadSystemSnapshot(TempDir("snapshot_never_existed")).ok());
}

TEST(SystemSnapshotTest, CrossSectionMismatchIsRejected) {
  // A graph section that validates on its own but disagrees with the model's
  // node table must not load: snapshots assembled from mismatched captures
  // are exactly the corruption checksums cannot see.
  std::string dir = TempDir("snapshot_cross_section");
  ASSERT_TRUE(SaveSystemSnapshot(Fixture(), dir).ok());

  // Re-save with a doctored graph+vocab so every checksum is self-consistent
  // and the cross-section gate is what must fire.
  SystemSnapshot doctored = Fixture();
  doctored.graph = graph::EntityGraph::FromParts(
      {"alpha", "beta"}, {graph::EntityGraph::WeightedEdge{0, 1, 2.0}});
  doctored.vocabulary = text::Vocabulary();
  doctored.vocabulary.Add("alpha");
  doctored.vocabulary.Add("beta");
  ASSERT_TRUE(SaveSystemSnapshot(doctored, dir).ok());
  Result<SystemSnapshot> loaded = LoadSystemSnapshot(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("disagree"), std::string::npos)
      << loaded.status().ToString();
}

// --- Targeted parser gates -----------------------------------------------

TEST(SystemSnapshotTest, ParserSweepNeverAborts) {
  // Parsers may legitimately accept a prefix that ends on a line boundary
  // (the manifest's byte counts exist to catch those); what they must never
  // do is crash or EDGE_CHECK on one.
  const SystemSnapshot& snapshot = Fixture();
  const std::string payloads[] = {
      SerializeWorldConfig(snapshot.world), SerializeVocabulary(snapshot.vocabulary),
      SerializeEntityGraph(snapshot.graph),
      SerializeServeOptions(snapshot.serve_options)};
  for (const std::string& payload : payloads) {
    for (size_t k = 0; k <= 64; ++k) {
      size_t length = payload.size() * k / 64;
      std::string prefix = payload.substr(0, length);
      (void)ParseWorldConfig(prefix);
      (void)ParseVocabulary(prefix);
      (void)ParseEntityGraph(prefix);
      (void)ParseServeOptions(prefix);
    }
  }
  SUCCEED();
}

TEST(SystemSnapshotTest, WorldParserRejectsInvalidInvariants) {
  // Mutate the parsed struct, re-serialize, and expect the parser to refuse:
  // every TweetGenerator EDGE_CHECK must surface here as a Status, because
  // these bytes reach the generator ctor after Load.
  const data::WorldConfig& valid = Fixture().world;
  ASSERT_FALSE(valid.pois.empty());
  ASSERT_FALSE(valid.topics.empty());
  auto rejects = [](const data::WorldConfig& world) {
    return !ParseWorldConfig(SerializeWorldConfig(world)).ok();
  };

  {
    std::string magic_flip = SerializeWorldConfig(valid);
    magic_flip.replace(0, 13, "EDGE-WORLD v9");
    EXPECT_FALSE(ParseWorldConfig(magic_flip).ok());
  }
  {
    data::WorldConfig w = valid;
    w.timeline_days = -1.0;
    EXPECT_TRUE(rejects(w));
    w.timeline_days = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(rejects(w));
  }
  {
    data::WorldConfig w = valid;
    w.pois[0].category = static_cast<text::EntityCategory>(99);
    EXPECT_TRUE(rejects(w));
  }
  {
    data::WorldConfig w = valid;
    w.pois[0].sigma_km = 0.0;
    EXPECT_TRUE(rejects(w));
  }
  {
    data::WorldConfig w = valid;
    w.pois[0].branches.clear();
    EXPECT_TRUE(rejects(w));
  }
  {
    data::WorldConfig w = valid;
    w.p_mention_poi = 1.5;  // Probability out of [0, 1].
    EXPECT_TRUE(rejects(w));
  }
  {
    data::WorldConfig w = valid;
    std::swap(w.region.min_lat, w.region.max_lat);  // Inverted region.
    EXPECT_TRUE(rejects(w));
  }
  {
    // An affinity POI index past the table must be rejected before any
    // generator sees it (the generator would abort).
    data::WorldConfig w = valid;
    w.topics[0].phases[0].poi_affinity = {{w.pois.size() + 100, 1.0}};
    EXPECT_TRUE(rejects(w));
  }
  {
    data::WorldConfig w = valid;
    w.topics[0].phases[0].start_day = 20.0;
    w.topics[0].phases[0].end_day = 10.0;  // start >= end.
    EXPECT_TRUE(rejects(w));
  }
}

TEST(SystemSnapshotTest, GraphParserRejectsStructuralErrors) {
  auto parse = [](const std::string& body) {
    return ParseEntityGraph("EDGE-GRAPH v1\n" + body);
  };
  EXPECT_FALSE(parse("nodes 2\na\nb\nedges 1\n1 0 2.0\n").ok());  // a >= b
  EXPECT_FALSE(parse("nodes 2\na\nb\nedges 1\n0 5 2.0\n").ok());  // out of range
  EXPECT_FALSE(parse("nodes 2\na\nb\nedges 1\n0 1 0.0\n").ok());  // weight <= 0
  EXPECT_FALSE(parse("nodes 2\na\nb\nedges 1\n0 1 inf\n").ok());
  EXPECT_FALSE(parse("nodes 2\na\na\nedges 0\n").ok());           // dup name
  EXPECT_FALSE(parse("nodes 2\na\nb\nedges 2\n0 1 1.0\n0 1 2.0\n").ok());
  EXPECT_FALSE(parse("nodes 99999999999\n").ok());                // cap
  EXPECT_TRUE(parse("nodes 2\na\nb\nedges 1\n0 1 2.5\n").ok());
}

TEST(SystemSnapshotTest, VocabParserRejectsInconsistentCounts) {
  EXPECT_TRUE(ParseVocabulary("EDGE-VOCAB v1\n2 5\n3 foo\n2 bar\n").ok());
  EXPECT_FALSE(ParseVocabulary("EDGE-VOCAB v1\n2 9\n3 foo\n2 bar\n").ok());
  EXPECT_FALSE(ParseVocabulary("EDGE-VOCAB v1\n2 5\n3 foo\n2 foo\n").ok());
  EXPECT_FALSE(ParseVocabulary("EDGE-VOCAB v1\n2 5\n-3 foo\n8 bar\n").ok());
  EXPECT_FALSE(ParseVocabulary("EDGE-VOCAB v1\n99999999999 0\n").ok());
}

TEST(SystemSnapshotTest, ServeOptionsParserDefersToValidate) {
  // Parse succeeds syntactically but GeoServiceOptions::Validate's caps
  // still gate the result (e.g. an absurd worker count).
  const std::string sane =
      "EDGE-SERVE-OPTIONS v3\nmax_batch 8\nnum_workers 2\nqueue_capacity "
      "64\ncache_capacity 64\ndefault_deadline_ms 0\n";
  ASSERT_TRUE(ParseServeOptions(sane).ok());
  std::string absurd = sane;
  absurd.replace(absurd.find("num_workers 2"), 13, "num_workers 9999999");
  Result<serve::GeoServiceOptions> parsed = ParseServeOptions(absurd);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("num_workers"), std::string::npos)
      << parsed.status().ToString();
}

TEST(SystemSnapshotTest, CaptureRequiresFittedModel) {
  core::EdgeModel model{core::EdgeConfig{}};
  data::WorldConfig world = data::MakeNymaWorld();
  data::ProcessedDataset dataset;
  Result<SystemSnapshot> captured =
      CaptureSystemSnapshot(model, world, dataset, serve::GeoServiceOptions{});
  EXPECT_FALSE(captured.ok());
}

}  // namespace
}  // namespace edge::snapshot
