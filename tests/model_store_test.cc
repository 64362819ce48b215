#include "edge/core/model_store.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "edge/common/check.h"
#include "edge/common/hash.h"
#include "edge/core/edge_model.h"
#include "edge/data/generator.h"
#include "edge/data/pipeline.h"
#include "edge/data/worlds.h"
#include "edge/graph/entity_graph.h"

/// edge-model.v1 drills (DESIGN.md §15): bitwise re-serialization round
/// trips, store-backed prediction parity with the trained model at several
/// thread budgets, zero-copy aliasing, quantization error bounds, and the
/// untrusted-input sweep — every header truncation, sampled bit flips over
/// the whole file, wrong magic/version/endianness, implausible dimensions and
/// implausible config values must come back from Open/FromBytes as a Status,
/// never an abort.

namespace edge::core {
namespace {

// --- Byte-level helpers ---------------------------------------------------

uint64_t ReadU64At(const std::string& bytes, size_t offset) {
  uint64_t v = 0;
  EDGE_CHECK(offset + 8 <= bytes.size());
  std::memcpy(&v, bytes.data() + offset, 8);
  return v;
}

void WriteU64At(std::string* bytes, size_t offset, uint64_t v) {
  EDGE_CHECK(offset + 8 <= bytes->size());
  std::memcpy(bytes->data() + offset, &v, 8);
}

void WriteU32At(std::string* bytes, size_t offset, uint32_t v) {
  EDGE_CHECK(offset + 4 <= bytes->size());
  std::memcpy(bytes->data() + offset, &v, 4);
}

/// Recomputes the header checksum after a deliberate header edit, so the
/// semantic gate behind the checksum is what the test exercises.
void FixHeaderChecksum(std::string* bytes) {
  WriteU64At(bytes, 120, Fnv1a64Bytes(bytes->data(), 120));
}

/// Where section `id` sits: its manifest entry and its payload.
struct SectionSpan {
  size_t entry = 0;
  size_t offset = 0;
  size_t size = 0;
};

SectionSpan FindSection(const std::string& bytes, uint32_t id) {
  size_t manifest = ReadU64At(bytes, 24);
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 32, 4);
  for (uint32_t s = 0; s < count; ++s) {
    size_t entry = manifest + size_t{s} * 32;
    uint32_t entry_id = 0;
    std::memcpy(&entry_id, bytes.data() + entry, 4);
    if (entry_id == id) {
      return {entry, ReadU64At(bytes, entry + 8), ReadU64At(bytes, entry + 16)};
    }
  }
  EDGE_CHECK(false) << "no section " << id;
  return {};
}

/// Recomputes section `id`'s FNV in its manifest entry and the manifest's
/// trailing checksum after a deliberate payload edit, so kFull's checksum
/// gates pass and the semantic gate behind them is what the test exercises.
void FixSectionChecksums(std::string* bytes, uint32_t id) {
  SectionSpan span = FindSection(*bytes, id);
  WriteU64At(bytes, span.entry + 24,
             Fnv1a64Bytes(bytes->data() + span.offset, span.size));
  size_t manifest = ReadU64At(*bytes, 24);
  size_t manifest_bytes = bytes->size() - 8 - manifest;
  WriteU64At(bytes, bytes->size() - 8,
             Fnv1a64Bytes(bytes->data() + manifest, manifest_bytes));
}

/// Shortest decimal that parses back to exactly `v`.
std::string ShortestDecimal(double v) {
  char buf[32];
  for (int digits = 1; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// `bytes` with token `token` of config line `line` replaced by `value`.
/// Every other number is rewritten in its shortest exact form and the text
/// is padded with spaces, so the section keeps its byte length (no
/// structural gate fires) and every other value parses back bitwise.
std::string WithConfigToken(const std::string& bytes, size_t line, size_t token,
                            const std::string& value) {
  constexpr uint32_t kConfigSection = 1;
  SectionSpan span = FindSection(bytes, kConfigSection);
  std::istringstream in(bytes.substr(span.offset, span.size));
  std::string text;
  std::string config_line;
  for (size_t l = 0; std::getline(in, config_line); ++l) {
    std::istringstream words(config_line);
    std::string word;
    for (size_t t = 0; words >> word; ++t) {
      if (t > 0) text += ' ';
      if (l == line && t == token) {
        text += value;
      } else {
        text += l == 0 ? word : ShortestDecimal(std::strtod(word.c_str(), nullptr));
      }
    }
    text += '\n';
  }
  EDGE_CHECK(text.size() <= span.size) << "edited config does not fit";
  text.append(span.size - text.size(), ' ');
  std::string edited = bytes;
  edited.replace(span.offset, span.size, text);
  return edited;
}

bool Rejected(const std::string& bytes,
              StoreVerify verify = StoreVerify::kFull) {
  return !MmapModelStore::FromBytes(bytes, verify).ok();
}

// --- Fixture --------------------------------------------------------------

/// One trained model per test binary, plus its fp64 store bytes. Everything
/// is read-only after SetUpTestSuite.
class ModelStoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::WorldPresetOptions world_options;
    world_options.num_fine_pois = 12;
    world_options.num_coarse_areas = 2;
    world_options.num_chains = 2;
    world_options.num_topics = 6;
    data::TweetGenerator generator(data::MakeNymaWorld(world_options));
    data::Dataset dataset = generator.Generate(700);
    data::Pipeline pipeline(generator.BuildGazetteer());
    processed_ = new data::ProcessedDataset(pipeline.Process(dataset));

    core::EdgeConfig config;
    config.auto_dim = false;
    config.embedding_dim = 16;
    config.gcn_hidden = {16};
    config.epochs = 6;
    config.batch_size = 128;
    config.entity2vec.epochs = 2;
    model_ = new EdgeModel(config);
    model_->Fit(*processed_);

    store_bytes_ = new std::string();
    Status status = SerializeModelStore(*model_, EmbedPrecision::kFp64, store_bytes_);
    EDGE_CHECK(status.ok()) << status.ToString();
  }

  static void TearDownTestSuite() {
    delete store_bytes_;
    delete model_;
    delete processed_;
    store_bytes_ = nullptr;
    model_ = nullptr;
    processed_ = nullptr;
  }

  static std::string SerializeAt(EmbedPrecision precision) {
    std::string bytes;
    Status status = SerializeModelStore(*model_, precision, &bytes);
    EDGE_CHECK(status.ok()) << status.ToString();
    return bytes;
  }

  static std::unique_ptr<EdgeModel> LoadStoreModel(
      std::string bytes, StoreVerify verify = StoreVerify::kFull) {
    auto store = MmapModelStore::FromBytes(std::move(bytes), verify);
    EDGE_CHECK(store.ok()) << store.status().ToString();
    auto model = EdgeModel::LoadFromStore(std::move(store).value());
    EDGE_CHECK(model.ok()) << model.status().ToString();
    return std::move(model).value();
  }

  /// Test tweets: the processed test split (known entities, repeats) plus
  /// the no-entity degenerate.
  static std::vector<data::ProcessedTweet> TestTweets() {
    std::vector<data::ProcessedTweet> tweets(processed_->test.begin(),
                                             processed_->test.end());
    tweets.resize(std::min<size_t>(tweets.size(), 64));
    tweets.push_back({});
    return tweets;
  }

  static data::ProcessedDataset* processed_;
  static EdgeModel* model_;
  static std::string* store_bytes_;
};

data::ProcessedDataset* ModelStoreTest::processed_ = nullptr;
EdgeModel* ModelStoreTest::model_ = nullptr;
std::string* ModelStoreTest::store_bytes_ = nullptr;

void ExpectBitwiseEqual(const EdgePrediction& a, const EdgePrediction& b) {
  EXPECT_EQ(a.point.lat, b.point.lat);
  EXPECT_EQ(a.point.lon, b.point.lon);
  EXPECT_EQ(a.used_fallback, b.used_fallback);
  ASSERT_EQ(a.mixture.num_components(), b.mixture.num_components());
  for (size_t m = 0; m < a.mixture.num_components(); ++m) {
    EXPECT_EQ(a.mixture.weight(m), b.mixture.weight(m));
    EXPECT_EQ(a.mixture.component(m).mean().x, b.mixture.component(m).mean().x);
    EXPECT_EQ(a.mixture.component(m).mean().y, b.mixture.component(m).mean().y);
    EXPECT_EQ(a.mixture.component(m).sigma_x(), b.mixture.component(m).sigma_x());
    EXPECT_EQ(a.mixture.component(m).sigma_y(), b.mixture.component(m).sigma_y());
    EXPECT_EQ(a.mixture.component(m).rho(), b.mixture.component(m).rho());
  }
  ASSERT_EQ(a.attention.size(), b.attention.size());
  for (size_t k = 0; k < a.attention.size(); ++k) {
    EXPECT_EQ(a.attention[k].entity, b.attention[k].entity);
    EXPECT_EQ(a.attention[k].weight, b.attention[k].weight);
  }
}

// --- Round trips ----------------------------------------------------------

TEST_F(ModelStoreTest, StoreModelReserializesBitwise) {
  // fp64 is canonical: a store-backed model writes back the bytes it was
  // loaded from (what `edge_cli convert` checks at fp64).
  for (StoreVerify verify : {StoreVerify::kFull, StoreVerify::kFast}) {
    std::unique_ptr<EdgeModel> reloaded = LoadStoreModel(*store_bytes_, verify);
    std::string again;
    ASSERT_TRUE(SerializeModelStore(*reloaded, EmbedPrecision::kFp64, &again).ok());
    EXPECT_EQ(again, *store_bytes_);
  }
}

TEST_F(ModelStoreTest, FileRoundTripThroughLoadInferenceAuto) {
  std::string path = ::testing::TempDir() + "model_store_roundtrip.edge";
  ASSERT_TRUE(SaveModelStoreAtomic(*model_, EmbedPrecision::kFp64, path).ok());
  auto loaded = LoadInferenceAuto(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded.value()->store(), nullptr);
  std::string again;
  ASSERT_TRUE(
      SerializeModelStore(*loaded.value(), EmbedPrecision::kFp64, &again).ok());
  EXPECT_EQ(again, *store_bytes_);
  std::filesystem::remove(path);
}

TEST_F(ModelStoreTest, SerializationIsDeterministic) {
  EXPECT_EQ(SerializeAt(EmbedPrecision::kFp64), *store_bytes_);
  EXPECT_EQ(SerializeAt(EmbedPrecision::kInt8), SerializeAt(EmbedPrecision::kInt8));
}

// --- Prediction parity ----------------------------------------------------

TEST_F(ModelStoreTest, StorePredictionsBitwiseMatchTrainedModelAtThreadBudgets) {
  std::vector<data::ProcessedTweet> tweets = TestTweets();
  std::vector<EdgePrediction> trained;
  for (const data::ProcessedTweet& tweet : tweets) {
    trained.push_back(model_->Predict(tweet));
  }
  std::unique_ptr<EdgeModel> store_model = LoadStoreModel(*store_bytes_);
  for (int threads : {1, 2, 4}) {
    store_model->set_num_threads(threads);
    std::vector<EdgePrediction> from_store;
    store_model->PredictBatch(tweets, &from_store);
    ASSERT_EQ(from_store.size(), trained.size());
    for (size_t i = 0; i < from_store.size(); ++i) {
      ExpectBitwiseEqual(from_store[i], trained[i]);
    }
  }
}

TEST_F(ModelStoreTest, NodeIdsAgreeWithTrainedModel) {
  // The serve cache keys on entity ids; a store-backed model must assign the
  // entity graph's id to every name (vocab is stored in node-id order).
  const graph::EntityGraph& graph = model_->entity_graph();
  std::unique_ptr<EdgeModel> store_model = LoadStoreModel(*store_bytes_);
  ASSERT_EQ(store_model->num_entities(), graph.num_nodes());
  for (size_t id = 0; id < graph.num_nodes(); ++id) {
    EXPECT_EQ(store_model->NodeNameOf(id), graph.NodeName(id));
    EXPECT_EQ(store_model->NodeIdOf(graph.NodeName(id)), id);
  }
  EXPECT_EQ(store_model->NodeIdOf("no_such_entity_name"),
            graph::EntityGraph::kNotFound);
}

// --- Zero copy ------------------------------------------------------------

TEST_F(ModelStoreTest, TrainedModelPredictsFromItsOwnFp64Store) {
  // Fit ends in an fp64 store, and serializing the model re-encodes that
  // store byte for byte: saving a trained model writes the state it predicts
  // from.
  const MmapModelStore* store = model_->store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->precision(), EmbedPrecision::kFp64);
  EXPECT_TRUE(store->zero_copy());
  EXPECT_EQ(std::string(store->raw_data(), store->file_size()), *store_bytes_);
}

TEST_F(ModelStoreTest, Fp64RowsAliasTheMappedBytes) {
  auto store = MmapModelStore::FromBytes(*store_bytes_, StoreVerify::kFull);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const MmapModelStore& s = *store.value();
  ASSERT_TRUE(s.zero_copy());
  const char* begin = s.raw_data();
  const char* end = begin + s.file_size();
  for (size_t node : {size_t{0}, s.num_nodes() / 2, s.num_nodes() - 1}) {
    nn::ConstRowSpan row = s.EmbeddingRow(node, nullptr);
    ASSERT_EQ(row.cols, s.hidden());
    const char* p = reinterpret_cast<const char*>(row.data);
    EXPECT_GE(p, begin);
    EXPECT_LE(p + row.cols * sizeof(double), end);
  }
}

TEST_F(ModelStoreTest, QuantizedRowsDequantizeIntoScratch) {
  auto store =
      MmapModelStore::FromBytes(SerializeAt(EmbedPrecision::kInt8), StoreVerify::kFull);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_FALSE(store.value()->zero_copy());
  std::vector<double> scratch;
  nn::ConstRowSpan row = store.value()->EmbeddingRow(0, &scratch);
  EXPECT_EQ(row.data, scratch.data());
  EXPECT_EQ(row.cols, store.value()->hidden());
}

// --- Quantization error bounds --------------------------------------------

TEST_F(ModelStoreTest, Int8ErrorBoundedByHalfScale) {
  std::unique_ptr<EdgeModel> exact = LoadStoreModel(*store_bytes_);
  auto store =
      MmapModelStore::FromBytes(SerializeAt(EmbedPrecision::kInt8), StoreVerify::kFull);
  ASSERT_TRUE(store.ok());
  std::vector<double> scratch;
  for (size_t node = 0; node < store.value()->num_nodes(); ++node) {
    nn::ConstRowSpan exact_row = exact->store()->EmbeddingRow(node, nullptr);
    nn::ConstRowSpan q_row = store.value()->EmbeddingRow(node, &scratch);
    double maxabs = 0.0;
    for (double v : exact_row) maxabs = std::max(maxabs, std::fabs(v));
    // Symmetric per-row scale: worst-case rounding error is scale / 2.
    double bound = maxabs / 127.0 * 0.5 + 1e-12;
    for (size_t c = 0; c < q_row.cols; ++c) {
      EXPECT_NEAR(q_row[c], exact_row[c], bound) << "node " << node;
    }
  }
}

TEST_F(ModelStoreTest, Fp16ErrorBoundedByRelativeEpsilon) {
  std::unique_ptr<EdgeModel> exact = LoadStoreModel(*store_bytes_);
  auto store =
      MmapModelStore::FromBytes(SerializeAt(EmbedPrecision::kFp16), StoreVerify::kFull);
  ASSERT_TRUE(store.ok());
  std::vector<double> scratch;
  for (size_t node = 0; node < store.value()->num_nodes(); ++node) {
    nn::ConstRowSpan exact_row = exact->store()->EmbeddingRow(node, nullptr);
    nn::ConstRowSpan h_row = store.value()->EmbeddingRow(node, &scratch);
    for (size_t c = 0; c < h_row.cols; ++c) {
      // binary16 has a 10-bit mantissa: relative error <= 2^-11 for normal
      // values; subnormals bottom out at an absolute 2^-25.
      double tolerance =
          std::max(std::fabs(exact_row[c]) * 0x1p-11, 0x1p-25) + 1e-300;
      EXPECT_NEAR(h_row[c], exact_row[c], tolerance) << "node " << node;
    }
  }
}

TEST(Fp16Test, ConversionRoundTripsAndRounds) {
  // Exactly representable values round-trip bitwise.
  for (double v : {0.0, 1.0, -1.0, 0.5, 1.5, -2048.0, 65504.0, 0x1p-24}) {
    EXPECT_EQ(Fp16ToDouble(Fp16FromDouble(v)), v) << v;
  }
  // Round-to-nearest-even: 1 + 2^-11 is exactly between 1.0 and the next
  // half (1 + 2^-10); ties go to the even mantissa (1.0).
  EXPECT_EQ(Fp16ToDouble(Fp16FromDouble(1.0 + 0x1p-11)), 1.0);
  // 1 + 3*2^-11 ties between 1 + 2^-10 (odd mantissa) and 1 + 2^-9 (even):
  // round-to-nearest-even picks the latter.
  EXPECT_EQ(Fp16ToDouble(Fp16FromDouble(1.0 + 3 * 0x1p-11)), 1.0 + 0x1p-9);
  // Overflow saturates to infinity; infinities and NaN keep their class.
  EXPECT_TRUE(std::isinf(Fp16ToDouble(Fp16FromDouble(1e10))));
  EXPECT_TRUE(std::isinf(Fp16ToDouble(
      Fp16FromDouble(std::numeric_limits<double>::infinity()))));
  EXPECT_TRUE(std::isnan(Fp16ToDouble(
      Fp16FromDouble(std::numeric_limits<double>::quiet_NaN()))));
  EXPECT_EQ(Fp16ToDouble(Fp16FromDouble(-0.0)), 0.0);
  EXPECT_TRUE(std::signbit(Fp16ToDouble(Fp16FromDouble(-0.0))));
}

TEST_F(ModelStoreTest, QuantizedPredictionsStayGeographicallyClose) {
  std::unique_ptr<EdgeModel> exact = LoadStoreModel(*store_bytes_);
  std::vector<data::ProcessedTweet> tweets = TestTweets();
  for (EmbedPrecision precision :
       {EmbedPrecision::kFp32, EmbedPrecision::kFp16, EmbedPrecision::kInt8}) {
    std::unique_ptr<EdgeModel> quantized = LoadStoreModel(SerializeAt(precision));
    for (const data::ProcessedTweet& tweet : tweets) {
      EdgePrediction a = exact->Predict(tweet);
      EdgePrediction b = quantized->Predict(tweet);
      // Embedding perturbations are small relative to km-scale geometry; a
      // degree of drift would mean the dequantization path is broken.
      EXPECT_NEAR(a.point.lat, b.point.lat, 0.5)
          << EmbedPrecisionName(precision);
      EXPECT_NEAR(a.point.lon, b.point.lon, 0.5)
          << EmbedPrecisionName(precision);
    }
  }
}

// --- Untrusted-input gates ------------------------------------------------

TEST_F(ModelStoreTest, EveryHeaderPrefixTruncationIsRejected) {
  for (size_t length = 0; length < 128; ++length) {
    EXPECT_TRUE(Rejected(store_bytes_->substr(0, length), StoreVerify::kFull))
        << "prefix " << length;
    EXPECT_TRUE(Rejected(store_bytes_->substr(0, length), StoreVerify::kFast))
        << "prefix " << length;
  }
}

TEST_F(ModelStoreTest, SampledTruncationsAreRejected) {
  const std::string& bytes = *store_bytes_;
  for (size_t k = 0; k <= 64; ++k) {
    size_t length = bytes.size() * k / 65;
    if (k == 64) length = bytes.size() - 1;  // Drop-one-byte case.
    EXPECT_TRUE(Rejected(bytes.substr(0, length), StoreVerify::kFull))
        << "truncated to " << length;
    EXPECT_TRUE(Rejected(bytes.substr(0, length), StoreVerify::kFast))
        << "truncated to " << length;
  }
}

TEST_F(ModelStoreTest, SampledBitFlipsAreRejectedAtFullVerify) {
  // kFull covers every byte: header + sections + manifest checksums, plus
  // must-be-zero reserved bytes and alignment gaps. Any single flipped bit,
  // anywhere, must reject.
  const std::string& bytes = *store_bytes_;
  for (size_t k = 0; k < 256; ++k) {
    size_t offset = bytes.size() * (2 * k + 1) / 512;
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string corrupt = bytes;
      corrupt[offset] = static_cast<char>(corrupt[offset] ^ mask);
      EXPECT_TRUE(Rejected(corrupt, StoreVerify::kFull))
          << "bit flip at " << offset << " mask " << int{mask};
    }
  }
}

TEST_F(ModelStoreTest, AppendedBytesAreRejected) {
  EXPECT_TRUE(Rejected(*store_bytes_ + "x", StoreVerify::kFull));
  EXPECT_TRUE(Rejected(*store_bytes_ + "x", StoreVerify::kFast));
  EXPECT_TRUE(Rejected(*store_bytes_ + std::string(4096, '\0'), StoreVerify::kFast));
}

TEST_F(ModelStoreTest, WrongMagicVersionAndEndiannessAreRejected) {
  {
    std::string corrupt = *store_bytes_;
    corrupt[0] = 'X';
    FixHeaderChecksum(&corrupt);  // Checksum valid: the magic gate must fire.
    EXPECT_TRUE(Rejected(corrupt, StoreVerify::kFast));
  }
  {
    std::string corrupt = *store_bytes_;
    WriteU32At(&corrupt, 8, 2);  // Future format version.
    FixHeaderChecksum(&corrupt);
    EXPECT_TRUE(Rejected(corrupt, StoreVerify::kFast));
  }
  {
    std::string corrupt = *store_bytes_;
    WriteU32At(&corrupt, 12, 0x04030201);  // Big-endian writer.
    FixHeaderChecksum(&corrupt);
    EXPECT_TRUE(Rejected(corrupt, StoreVerify::kFast));
  }
  {
    std::string corrupt = *store_bytes_;
    WriteU32At(&corrupt, 36, 17);  // Unknown embedding precision.
    FixHeaderChecksum(&corrupt);
    EXPECT_TRUE(Rejected(corrupt, StoreVerify::kFast));
  }
}

TEST_F(ModelStoreTest, ImplausibleDimensionsAreRejectedBeforeAllocation) {
  // A huge num_nodes with a fixed-up checksum must die on the structural
  // size gates (sections can't cover the claimed vocabulary), not OOM.
  for (uint64_t absurd : {uint64_t{1} << 62, uint64_t{1} << 27}) {
    std::string corrupt = *store_bytes_;
    WriteU64At(&corrupt, 40, absurd);
    FixHeaderChecksum(&corrupt);
    EXPECT_TRUE(Rejected(corrupt, StoreVerify::kFast)) << absurd;
    EXPECT_TRUE(Rejected(corrupt, StoreVerify::kFull)) << absurd;
  }
  {
    std::string corrupt = *store_bytes_;
    WriteU64At(&corrupt, 48, uint64_t{1} << 40);  // hidden dim.
    FixHeaderChecksum(&corrupt);
    EXPECT_TRUE(Rejected(corrupt, StoreVerify::kFast));
  }
  {
    std::string corrupt = *store_bytes_;
    WriteU64At(&corrupt, 40, 0);  // Empty vocabulary.
    FixHeaderChecksum(&corrupt);
    EXPECT_TRUE(Rejected(corrupt, StoreVerify::kFast));
  }
}

TEST_F(ModelStoreTest, ConfigGatesRejectImplausibleValuesAtBothVerifyTiers) {
  // kFast does not checksum the config section, so these gates are all that
  // stands between a corrupt config and the model; under kFull they sit
  // behind the (re-sealed) section and manifest checksums. Each edit keeps
  // the section's byte length, and the Status must name the gate, so a
  // structural rejection cannot pass for a config one.
  struct Case {
    size_t line;
    size_t token;
    const char* value;
    const char* gate;
  };
  const Case cases[] = {
      {1, 0, "0", "implausible mixture component count"},
      {1, 0, "99999999", "implausible mixture component count"},
      {2, 0, "91", "projection origin out of range"},
      {3, 2, "0", "non-positive fallback sigma"},
      {4, 0, "0", "non-positive coordinate scale"},
      // operator>> refuses "nan", so the parse gate catches it before the
      // finiteness check could.
      {5, 0, "nan", "unparsable config section"},
  };
  for (const Case& c : cases) {
    std::string corrupt = WithConfigToken(*store_bytes_, c.line, c.token, c.value);
    auto fast = MmapModelStore::FromBytes(corrupt, StoreVerify::kFast);
    ASSERT_FALSE(fast.ok()) << c.value;
    EXPECT_NE(fast.status().ToString().find(c.gate), std::string::npos)
        << fast.status().ToString();
    FixSectionChecksums(&corrupt, /*id=*/1);
    auto full = MmapModelStore::FromBytes(corrupt, StoreVerify::kFull);
    ASSERT_FALSE(full.ok()) << c.value;
    EXPECT_NE(full.status().ToString().find(c.gate), std::string::npos)
        << full.status().ToString();
  }
  // Control: the same rewrite with no value changed loads at both tiers and
  // predicts bitwise like the original store.
  std::string same = WithConfigToken(*store_bytes_, 1, 0,
                                     std::to_string(model_->config().num_components));
  FixSectionChecksums(&same, /*id=*/1);
  std::unique_ptr<EdgeModel> original = LoadStoreModel(*store_bytes_);
  for (StoreVerify verify : {StoreVerify::kFast, StoreVerify::kFull}) {
    std::unique_ptr<EdgeModel> rewritten = LoadStoreModel(same, verify);
    for (const data::ProcessedTweet& tweet : TestTweets()) {
      ExpectBitwiseEqual(rewritten->Predict(tweet), original->Predict(tweet));
    }
  }
}

TEST_F(ModelStoreTest, ManifestOffsetGatesCatchRelocation) {
  {
    std::string corrupt = *store_bytes_;
    WriteU64At(&corrupt, 24, ReadU64At(corrupt, 24) + 64);
    FixHeaderChecksum(&corrupt);
    EXPECT_TRUE(Rejected(corrupt, StoreVerify::kFast));
  }
  {
    std::string corrupt = *store_bytes_;
    WriteU64At(&corrupt, 24, corrupt.size());  // Manifest past the end.
    FixHeaderChecksum(&corrupt);
    EXPECT_TRUE(Rejected(corrupt, StoreVerify::kFast));
  }
  {
    std::string corrupt = *store_bytes_;
    WriteU64At(&corrupt, 16, corrupt.size() + 1);  // Lying file_size.
    FixHeaderChecksum(&corrupt);
    EXPECT_TRUE(Rejected(corrupt, StoreVerify::kFast));
  }
}

TEST_F(ModelStoreTest, FastVerifyTotalOverCorruptPayloads) {
  // kFast skips payload checksums, so a payload flip may load — but every
  // subsequent access must stay in bounds and total: lookups degrade to
  // kNotFound / "", never crash (this is the ASAN-audited contract).
  const std::string& bytes = *store_bytes_;
  size_t payload_begin = 4096;  // Past header + config; inside vocab/embeddings.
  size_t payload_end = ReadU64At(bytes, 24);
  ASSERT_GT(payload_end, payload_begin + 128);
  for (size_t k = 0; k < 64; ++k) {
    size_t offset =
        payload_begin + (payload_end - payload_begin) * (2 * k + 1) / 128;
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x55);
    auto store = MmapModelStore::FromBytes(corrupt, StoreVerify::kFast);
    if (!store.ok()) continue;  // Structural gates may still catch it.
    const MmapModelStore& s = *store.value();
    std::vector<double> scratch;
    for (size_t node = 0; node < std::min<size_t>(s.num_nodes(), 8); ++node) {
      (void)s.NodeName(node);
      (void)s.NodeId(s.NodeName(node));
      (void)s.EmbeddingRow(node, &scratch);
    }
    (void)s.NodeId("katz_deli");
  }
  SUCCEED();
}

TEST_F(ModelStoreTest, UnfittedModelDoesNotSerialize) {
  EdgeModel unfitted{EdgeConfig{}};
  std::string bytes;
  EXPECT_FALSE(
      SerializeModelStore(unfitted, EmbedPrecision::kFp64, &bytes).ok());
}

TEST(ModelStoreSniffTest, MissingAndForeignFilesAreHandled) {
  auto missing = LoadInferenceAuto("/nonexistent/model.edge");
  EXPECT_FALSE(missing.ok());
  // A retired text checkpoint (no store magic) is rejected, not parsed.
  std::string path = ::testing::TempDir() + "model_store_foreign.edge";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "EDGE-INFERENCE v1\nEDGE\n4 0.5 0.90000000000000002 1\n"
        << std::string(256, '0') << "\n";
  }
  auto foreign = LoadInferenceAuto(path);
  ASSERT_FALSE(foreign.ok());
  EXPECT_NE(foreign.status().ToString().find("bad magic"), std::string::npos)
      << foreign.status().ToString();
  std::filesystem::remove(path);
}

TEST(ModelStoreSniffTest, PrecisionNamesRoundTrip) {
  for (EmbedPrecision precision :
       {EmbedPrecision::kFp64, EmbedPrecision::kFp32, EmbedPrecision::kFp16,
        EmbedPrecision::kInt8}) {
    EmbedPrecision parsed;
    ASSERT_TRUE(ParseEmbedPrecision(EmbedPrecisionName(precision), &parsed));
    EXPECT_EQ(parsed, precision);
  }
  EmbedPrecision parsed;
  EXPECT_FALSE(ParseEmbedPrecision("fp8", &parsed));
}

}  // namespace
}  // namespace edge::core
