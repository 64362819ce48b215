#include "edge/serve/geo_service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "edge/common/check.h"
#include "edge/common/file_util.h"
#include "edge/core/model_store.h"
#include "edge/data/generator.h"
#include "edge/data/pipeline.h"
#include "edge/data/worlds.h"
#include "edge/fault/fault.h"
#include "edge/obs/metrics.h"
#include "edge/serve/json_codec.h"
#include "edge/serve/lru_cache.h"
#include "edge/serve/session.h"

namespace edge::serve {
namespace {

/// Exact equality across the whole prediction — the serve contract is
/// bitwise, not approximately, equal to the serial path.
void ExpectBitwiseEqual(const core::EdgePrediction& a,
                        const core::EdgePrediction& b) {
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

/// Trains one small model per test binary and hands out fresh services over
/// models decoded from its fp64 edge-model.v1 bytes.
class GeoServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::WorldPresetOptions world_options;
    world_options.num_fine_pois = 12;
    world_options.num_coarse_areas = 2;
    world_options.num_chains = 2;
    world_options.num_topics = 6;
    data::TweetGenerator generator(data::MakeNymaWorld(world_options));
    data::Dataset dataset = generator.Generate(900);
    gazetteer_ = new text::Gazetteer(generator.BuildGazetteer());

    data::Pipeline pipeline(*gazetteer_);
    data::ProcessedDataset processed = pipeline.Process(dataset);

    core::EdgeConfig config;
    config.auto_dim = false;
    config.embedding_dim = 16;
    config.gcn_hidden = {16};
    config.epochs = 8;
    config.batch_size = 128;
    config.entity2vec.epochs = 2;
    core::EdgeModel model(config);
    model.Fit(processed);

    checkpoint_ = new std::string();
    Status status =
        core::SerializeModelStore(model, core::EmbedPrecision::kFp64, checkpoint_);
    EDGE_CHECK(status.ok()) << status.ToString();

    // A second, distinguishable model (fewer epochs -> different weights)
    // over the same gazetteer, for the hot-reload drills.
    core::EdgeConfig config2 = config;
    config2.epochs = 4;
    core::EdgeModel model2(config2);
    model2.Fit(processed);
    checkpoint2_ = new std::string();
    status = core::SerializeModelStore(model2, core::EmbedPrecision::kFp64, checkpoint2_);
    EDGE_CHECK(status.ok()) << status.ToString();

    // Request texts with a mix of known entities, repeats and no-entity
    // tweets; the degenerate cases are the point of serving every request.
    texts_ = new std::vector<std::string>();
    for (size_t i = dataset.TrainCount(); i < dataset.tweets.size(); ++i) {
      texts_->push_back(dataset.tweets[i].text);
    }
    texts_->push_back("");
    texts_->push_back("nothing the gazetteer knows");
    EDGE_CHECK(texts_->size() > 50u);
  }

  static void TearDownTestSuite() {
    delete texts_;
    delete checkpoint2_;
    delete checkpoint_;
    delete gazetteer_;
    texts_ = nullptr;
    checkpoint2_ = nullptr;
    checkpoint_ = nullptr;
    gazetteer_ = nullptr;
  }

  /// A fresh model over store bytes (a checkpoint held in memory).
  static std::unique_ptr<core::EdgeModel> ModelFrom(const std::string& store) {
    auto mapped = core::MmapModelStore::FromBytes(store);
    EDGE_CHECK(mapped.ok()) << mapped.status().ToString();
    auto model = core::EdgeModel::LoadFromStore(std::move(mapped).value());
    EDGE_CHECK(model.ok()) << model.status().ToString();
    return std::move(model).value();
  }

  static std::unique_ptr<GeoService> MakeService(GeoServiceOptions options) {
    auto service = GeoService::Create(ModelFrom(*checkpoint_), *gazetteer_, options);
    EDGE_CHECK(service.ok()) << service.status().ToString();
    return std::move(service).value();
  }

  /// What the serial unbatched path answers for `text`, computed through the
  /// same NER the service uses.
  static core::EdgePrediction Reference(const GeoService& service,
                                        const std::string& text) {
    text::TweetNer ner(*gazetteer_);
    data::ProcessedTweet tweet;
    tweet.text = text;
    tweet.entities = ner.Extract(text);
    return service.model()->Predict(tweet);
  }

  static text::Gazetteer* gazetteer_;
  static std::string* checkpoint_;
  static std::string* checkpoint2_;
  static std::vector<std::string>* texts_;
};

text::Gazetteer* GeoServiceTest::gazetteer_ = nullptr;
std::string* GeoServiceTest::checkpoint_ = nullptr;
std::string* GeoServiceTest::checkpoint2_ = nullptr;
std::vector<std::string>* GeoServiceTest::texts_ = nullptr;

TEST_F(GeoServiceTest, OptionsValidation) {
  GeoServiceOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.max_batch = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = GeoServiceOptions();
  options.num_workers = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = GeoServiceOptions();
  options.queue_capacity = 0;
  EXPECT_FALSE(options.Validate().ok());

  options = GeoServiceOptions();
  options.max_batch = 0;
  auto service = GeoService::Create(ModelFrom(*checkpoint_), *gazetteer_, options);
  EXPECT_FALSE(service.ok());
}

/// Writes `store` bytes to a temp file and returns its path.
std::string WriteStore(const std::string& store, const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  Status status = WriteFileAtomic(path, store);
  EDGE_CHECK(status.ok()) << status.ToString();
  return path;
}

TEST_F(GeoServiceTest, CreateRejectsCorruptCheckpoint) {
  // A torn checkpoint never becomes a model, so no service starts on it; and
  // Create itself refuses a missing model.
  std::string path = WriteStore(checkpoint_->substr(0, checkpoint_->size() / 2),
                                "serve_create_torn.edge");
  EXPECT_FALSE(core::LoadInferenceAuto(path).ok());
  std::filesystem::remove(path);
  auto service = GeoService::Create(nullptr, *gazetteer_, GeoServiceOptions());
  EXPECT_FALSE(service.ok());
}

// The tentpole contract: at every (worker count x batch size) combination
// the service answers bit-for-bit what a serial Predict() loop answers.
// Caching is off so every request really runs through the batch path.
TEST_F(GeoServiceTest, ServedMatchesSerialAtEveryBudgetAndBatch) {
  for (size_t workers : {1, 2}) {
    for (size_t max_batch : {1, 3, 16}) {
      GeoServiceOptions options;
      options.max_batch = max_batch;
      options.num_workers = workers;
      options.cache_capacity = 0;
      std::unique_ptr<GeoService> service = MakeService(options);

      size_t n = std::min<size_t>(60, texts_->size());
      std::vector<std::future<ServeResponse>> futures;
      futures.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        futures.push_back(service->SubmitAsync((*texts_)[i]));
      }
      for (size_t i = 0; i < n; ++i) {
        ServeResponse response = futures[i].get();
        EXPECT_FALSE(response.degraded);
        EXPECT_FALSE(response.from_cache);
        SCOPED_TRACE("workers=" + std::to_string(workers) +
                     " max_batch=" + std::to_string(max_batch) +
                     " tweet=" + std::to_string(i));
        ExpectBitwiseEqual(response.prediction, Reference(*service, (*texts_)[i]));
      }
    }
  }
}

TEST_F(GeoServiceTest, DestructorDrainsQueuedRequests) {
  GeoServiceOptions options;
  options.max_batch = 4;
  options.cache_capacity = 0;
  std::unique_ptr<GeoService> service = MakeService(options);
  // Frozen workers: only shutdown can serve these, in several batches.
  service->PauseWorkersForTest();
  std::vector<std::future<ServeResponse>> futures;
  for (size_t i = 0; i < 10; ++i) {
    futures.push_back(service->SubmitAsync((*texts_)[i]));
  }
  EXPECT_EQ(service->queue_depth(), 10u);
  service.reset();  // Must fulfill every future, not abandon them.
  for (auto& future : futures) {
    ServeResponse response = future.get();
    EXPECT_FALSE(response.degraded);
  }
}

/// The notifier side of an event loop: counts calls and checks, at each
/// one, that every watched future is already fulfilled.
struct NotifyProbe {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::future<ServeResponse>> watched;
  int calls = 0;
  bool all_ready_at_call = true;

  void OnBatchDone() {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& future : watched) {
      if (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        all_ready_at_call = false;
      }
    }
    ++calls;
    cv.notify_all();
  }

  bool WaitForCalls(int n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(60), [&] { return calls >= n; });
  }
};

TEST_F(GeoServiceTest, CompletionNotifierFiresAfterServedAndExpiredBatches) {
  GeoServiceOptions options;
  options.max_batch = 64;
  options.cache_capacity = 0;
  NotifyProbe probe;
  auto created = GeoService::Create(ModelFrom(*checkpoint_), *gazetteer_, options,
                                    [&probe] { probe.OnBatchDone(); });
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<GeoService> service = std::move(created).value();

  // A served batch: the worker takes all five queued requests at once.
  service->PauseWorkersForTest();
  {
    std::lock_guard<std::mutex> lock(probe.mu);
    for (size_t i = 0; i < 5; ++i) {
      probe.watched.push_back(service->SubmitAsync((*texts_)[i]));
    }
  }
  service->ResumeWorkers();
  ASSERT_TRUE(probe.WaitForCalls(1));

  // An all-expired batch runs no model work but must notify all the same.
  service->PauseWorkersForTest();
  {
    std::lock_guard<std::mutex> lock(probe.mu);
    EXPECT_EQ(probe.calls, 1);
    EXPECT_TRUE(probe.all_ready_at_call);
    for (auto& future : probe.watched) {
      ServeResponse response = future.get();
      EXPECT_FALSE(response.degraded);
      EXPECT_EQ(response.telemetry.batch_size, 5u);
    }
    probe.watched.clear();
    for (size_t i = 0; i < 3; ++i) {
      probe.watched.push_back(
          service->SubmitAsync((*texts_)[i], /*deadline_ms=*/0.001));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service->ResumeWorkers();
  ASSERT_TRUE(probe.WaitForCalls(2));
  std::lock_guard<std::mutex> lock(probe.mu);
  EXPECT_EQ(probe.calls, 2);
  EXPECT_TRUE(probe.all_ready_at_call);
  for (auto& future : probe.watched) {
    ServeResponse response = future.get();
    EXPECT_TRUE(response.degraded);
    EXPECT_EQ(response.degrade_reason, DegradeReason::kDeadline);
  }
}

TEST_F(GeoServiceTest, DeadlineExpiredRequestsDegradeToPrior) {
  GeoServiceOptions options;
  options.max_batch = 64;  // Both requests ride one batch.
  options.cache_capacity = 0;
  std::unique_ptr<GeoService> service = MakeService(options);

  // Freeze the worker, let a tiny deadline expire while queued, then serve.
  service->PauseWorkersForTest();
  std::future<ServeResponse> expired =
      service->SubmitAsync((*texts_)[0], /*deadline_ms=*/0.001);
  std::future<ServeResponse> unhurried = service->SubmitAsync((*texts_)[1]);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service->ResumeWorkers();

  ServeResponse degraded = expired.get();
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.degrade_reason, DegradeReason::kDeadline);
  // Degraded answers are the model's fallback prior, not an error.
  ExpectBitwiseEqual(degraded.prediction, service->model()->FallbackPrediction());

  ServeResponse normal = unhurried.get();
  EXPECT_FALSE(normal.degraded);
  ExpectBitwiseEqual(normal.prediction, Reference(*service, (*texts_)[1]));
}

// A deadline the clock cannot represent is no deadline: 1e300 ms and +inf,
// per request or as the default, must not cast out of range into the clock's
// int64 ticks, where they land in the past and degrade to the prior.
TEST_F(GeoServiceTest, UnrepresentableDeadlinesMeanNoDeadline) {
  GeoServiceOptions options;
  options.cache_capacity = 0;
  std::unique_ptr<GeoService> service = MakeService(options);
  const std::string& text = (*texts_)[0];
  for (double deadline_ms : {1e300, std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(deadline_ms);
    ServeResponse response = service->SubmitAsync(text, deadline_ms).get();
    EXPECT_FALSE(response.degraded);
    EXPECT_EQ(response.degrade_reason, DegradeReason::kNone);
    ExpectBitwiseEqual(response.prediction, Reference(*service, text));
  }

  options.default_deadline_ms = 1e300;  // Finite, so Validate accepts it.
  service = MakeService(options);
  ServeResponse response = service->Predict(text);
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.degrade_reason, DegradeReason::kNone);
  ExpectBitwiseEqual(response.prediction, Reference(*service, text));
}

TEST_F(GeoServiceTest, BackpressureShedsToPrior) {
  GeoServiceOptions options;
  options.queue_capacity = 2;
  options.max_batch = 64;
  options.cache_capacity = 0;
  std::unique_ptr<GeoService> service = MakeService(options);

  service->PauseWorkersForTest();
  std::vector<std::future<ServeResponse>> admitted;
  admitted.push_back(service->SubmitAsync((*texts_)[0]));
  admitted.push_back(service->SubmitAsync((*texts_)[1]));
  EXPECT_EQ(service->queue_depth(), 2u);

  // The queue is full: this request is shed immediately, worker still frozen.
  ServeResponse shed = service->SubmitAsync((*texts_)[2]).get();
  EXPECT_TRUE(shed.degraded);
  EXPECT_EQ(shed.degrade_reason, DegradeReason::kShed);
  ExpectBitwiseEqual(shed.prediction, service->model()->FallbackPrediction());

  service->ResumeWorkers();
  for (auto& future : admitted) {
    EXPECT_FALSE(future.get().degraded);
  }
}

TEST_F(GeoServiceTest, CacheReturnsIdenticalResponses) {
  GeoServiceOptions options;
  options.cache_capacity = 64;
  std::unique_ptr<GeoService> service = MakeService(options);

  // Find a text with at least one known entity so the key is non-trivial.
  std::string text;
  text::TweetNer ner(*gazetteer_);
  for (const std::string& candidate : *texts_) {
    if (!ner.Extract(candidate).empty()) {
      text = candidate;
      break;
    }
  }
  ASSERT_FALSE(text.empty());

  ServeResponse first = service->Predict(text);
  EXPECT_FALSE(first.from_cache);
  ServeResponse second = service->Predict(text);
  EXPECT_TRUE(second.from_cache);
  ExpectBitwiseEqual(first.prediction, second.prediction);

  // The cache keys on the sorted entity-id set, so a permuted mention order
  // must hit the same entry with the same (bitwise) answer.
  std::string doubled_ab = text + " and then " + (*texts_)[1];
  std::string doubled_ba = (*texts_)[1] + " and then " + text;
  ServeResponse ab = service->Predict(doubled_ab);
  ServeResponse ba = service->Predict(doubled_ba);
  EXPECT_TRUE(ba.from_cache);
  ExpectBitwiseEqual(ab.prediction, ba.prediction);
}

TEST_F(GeoServiceTest, CacheEvictsLeastRecentlyUsed) {
  GeoServiceOptions options;
  options.cache_capacity = 1;
  std::unique_ptr<GeoService> service = MakeService(options);

  // Two texts with distinct non-empty entity-id keys.
  text::TweetNer ner(*gazetteer_);
  std::vector<std::string> keyed;
  std::vector<std::string> seen_first_entity;
  for (const std::string& candidate : *texts_) {
    std::vector<text::Entity> entities = ner.Extract(candidate);
    if (entities.empty()) continue;
    if (!seen_first_entity.empty() && entities[0].name == seen_first_entity[0]) continue;
    keyed.push_back(candidate);
    seen_first_entity.push_back(entities[0].name);
    if (keyed.size() == 2) break;
  }
  ASSERT_EQ(keyed.size(), 2u);

  EXPECT_FALSE(service->Predict(keyed[0]).from_cache);
  EXPECT_TRUE(service->Predict(keyed[0]).from_cache);
  // A different key evicts the only entry...
  service->Predict(keyed[1]);
  // ...so the original misses again, and still answers identically.
  ServeResponse again = service->Predict(keyed[0]);
  EXPECT_FALSE(again.from_cache);
  ExpectBitwiseEqual(again.prediction, Reference(*service, keyed[0]));
}

TEST_F(GeoServiceTest, ConcurrentClientStress) {
  GeoServiceOptions options;
  options.max_batch = 8;
  options.num_workers = 2;
  options.cache_capacity = 32;
  std::unique_ptr<GeoService> service = MakeService(options);

  constexpr size_t kClients = 8;
  constexpr size_t kRequestsPerClient = 50;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        const std::string& text = (*texts_)[(c * 31 + r * 7) % texts_->size()];
        ServeResponse response = service->Predict(text);
        core::EdgePrediction want = Reference(*service, text);
        if (response.degraded ||
            response.prediction.point.lat != want.point.lat ||
            response.prediction.point.lon != want.point.lon) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST_F(GeoServiceTest, OptionsValidationRejectsImplausibleCaps) {
  // A "-1" that wrapped into a size_t must come back as a Status, not an
  // impossible allocation.
  GeoServiceOptions options;
  options.max_batch = static_cast<size_t>(-1);
  EXPECT_FALSE(options.Validate().ok());
  options = GeoServiceOptions();
  options.num_workers = 1025;
  EXPECT_FALSE(options.Validate().ok());
  options = GeoServiceOptions();
  options.queue_capacity = static_cast<size_t>(-1);
  EXPECT_FALSE(options.Validate().ok());
  options = GeoServiceOptions();
  options.cache_capacity = (size_t{1} << 26) + 1;
  EXPECT_FALSE(options.Validate().ok());
}

// The hot-reload drill: a valid checkpoint swaps in atomically while clients
// hammer the service; every response is valid and comes from a coherent
// model (no torn swaps, no dropped futures).
TEST_F(GeoServiceTest, HotReloadSwapsModelUnderConcurrentLoad) {
  GeoServiceOptions options;
  options.max_batch = 8;
  options.num_workers = 2;
  options.cache_capacity = 32;
  std::unique_ptr<GeoService> service = MakeService(options);
  auto old_model = service->model();
  EXPECT_EQ(service->model_generation(), 1u);

  std::atomic<bool> running{true};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      size_t r = 0;
      while (running.load(std::memory_order_relaxed)) {
        const std::string& text = (*texts_)[(c * 17 + r++) % texts_->size()];
        ServeResponse response = service->Predict(text);
        if (response.degraded ||
            !std::isfinite(response.prediction.point.lat) ||
            !std::isfinite(response.prediction.point.lon)) {
          ++failures;
        }
      }
    });
  }

  Status status = service->AdoptReloadedModel(ModelFrom(*checkpoint2_));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  running = false;
  for (std::thread& client : clients) client.join();

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(service->model_generation(), 2u);
  EXPECT_NE(service->model().get(), old_model.get());
  // Post-swap answers come from the new model, bitwise (Reference() reads
  // the service's current model).
  for (size_t i = 0; i < 10; ++i) {
    const std::string& text = (*texts_)[i];
    ExpectBitwiseEqual(service->Predict(text).prediction,
                       Reference(*service, text));
  }
}

// A corrupt checkpoint must be rejected by the same gates as startup, and
// the old model keeps serving unchanged.
TEST_F(GeoServiceTest, HotReloadCorruptCheckpointRollsBack) {
  fault::Disarm();
  GeoServiceOptions options;
  options.cache_capacity = 0;
  std::unique_ptr<GeoService> service = MakeService(options);
  auto old_model = service->model();
  core::EdgePrediction before = service->Predict((*texts_)[0]).prediction;

  const std::string corrupt[] = {checkpoint_->substr(0, checkpoint_->size() / 3),
                                 "not a checkpoint at all"};
  for (const std::string& bytes : corrupt) {
    std::string path = WriteStore(bytes, "serve_reload_corrupt.edge");
    EXPECT_FALSE(service->ReloadFromFile(path).ok());
    std::filesystem::remove(path);
    EXPECT_EQ(service->model_generation(), 1u);
    EXPECT_EQ(service->model().get(), old_model.get());
    ExpectBitwiseEqual(service->Predict((*texts_)[0]).prediction, before);
  }
  EXPECT_FALSE(service->AdoptReloadedModel(nullptr).ok());
  EXPECT_EQ(service->model_generation(), 1u);
  ExpectBitwiseEqual(service->Predict((*texts_)[0]).prediction, before);
}

TEST_F(GeoServiceTest, ReloadFromFileRetriesTransientReadFaults) {
  fault::Disarm();
  std::string path = WriteStore(*checkpoint2_, "serve_reload_model.edge");
  GeoServiceOptions options;
  std::unique_ptr<GeoService> service = MakeService(options);
  ASSERT_TRUE(fault::Configure("io.checkpoint.read=error,times=2"));
  Status status = service->ReloadFromFile(path);
  fault::Disarm();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(service->model_generation(), 2u);

  // A missing file exhausts the retry budget and leaves the model alone.
  Status missing = service->ReloadFromFile(path + ".does-not-exist");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(service->model_generation(), 2u);
}

// In-flight responses carry the model that produced them, so a renderer
// never pairs a prediction with the wrong projection across a swap.
TEST_F(GeoServiceTest, ResponsesCarryTheProducingModel) {
  GeoServiceOptions options;
  options.cache_capacity = 16;
  std::unique_ptr<GeoService> service = MakeService(options);
  ServeResponse response = service->Predict((*texts_)[0]);
  ASSERT_NE(response.model, nullptr);
  EXPECT_EQ(response.model.get(), service->model().get());

  ASSERT_TRUE(service->AdoptReloadedModel(ModelFrom(*checkpoint2_)).ok());
  // The old response still renders against its own (retained) model.
  EXPECT_NE(response.model.get(), service->model().get());
  std::string line = ResponseToJsonLine(response, *response.model, "old");
  EXPECT_NE(line.find("\"point\""), std::string::npos);
}

// --- edge-model.v1 hot reload from a file --------------------------------

// Reloading from a store file (mmap'd, full or fast verify) must answer
// bitwise-identically to adopting a model decoded from the same bytes in
// memory (scenario replay's reload), at every worker budget.
TEST_F(GeoServiceTest, BinaryReloadMatchesInMemoryReloadBitwise) {
  fault::Disarm();
  std::string bin_path = WriteStore(*checkpoint2_, "binary_parity_model.edge");

  for (size_t workers : {size_t{1}, size_t{4}}) {
    GeoServiceOptions options;
    options.num_workers = workers;
    options.cache_capacity = 0;
    // kFast is the O(1) map-and-swap path; parity must hold there too.
    options.model_store_verify = workers == 1 ? core::StoreVerify::kFull
                                              : core::StoreVerify::kFast;
    std::unique_ptr<GeoService> in_memory = MakeService(options);
    std::unique_ptr<GeoService> from_file = MakeService(options);
    ASSERT_TRUE(in_memory->AdoptReloadedModel(ModelFrom(*checkpoint2_)).ok());
    ASSERT_TRUE(from_file->ReloadFromFile(bin_path).ok());
    EXPECT_EQ(in_memory->model_generation(), 2u);
    EXPECT_EQ(from_file->model_generation(), 2u);
    for (size_t i = 0; i < std::min<size_t>(texts_->size(), 24); ++i) {
      const std::string& text = (*texts_)[i];
      ExpectBitwiseEqual(from_file->Predict(text).prediction,
                         in_memory->Predict(text).prediction);
    }
  }
  std::filesystem::remove(bin_path);
}

// In-flight responses keep rendering on the model that produced them across
// a map-and-swap reload.
TEST_F(GeoServiceTest, ResponsesCarryProducingModelAcrossBinaryReload) {
  fault::Disarm();
  std::string bin_path = WriteStore(*checkpoint2_, "binary_inflight.edge");
  GeoServiceOptions options;
  options.cache_capacity = 16;
  options.model_store_verify = core::StoreVerify::kFast;
  std::unique_ptr<GeoService> service = MakeService(options);
  ServeResponse response = service->Predict((*texts_)[0]);
  ASSERT_NE(response.model, nullptr);

  ASSERT_TRUE(service->ReloadFromFile(bin_path).ok());
  EXPECT_EQ(service->model_generation(), 2u);
  // The pre-swap response still renders against its own retained model.
  EXPECT_NE(response.model.get(), service->model().get());
  std::string line = ResponseToJsonLine(response, *response.model, "old");
  EXPECT_NE(line.find("\"point\""), std::string::npos);
  // Post-swap answers come from the store-backed model, bitwise.
  for (size_t i = 0; i < 8; ++i) {
    const std::string& text = (*texts_)[i];
    ExpectBitwiseEqual(service->Predict(text).prediction,
                       Reference(*service, text));
  }
  std::filesystem::remove(bin_path);
}

// A corrupt store is rejected by the Open gates and the old model keeps
// serving unchanged.
TEST_F(GeoServiceTest, BinaryReloadCorruptStoreRollsBack) {
  fault::Disarm();
  std::string bin_path = WriteStore(*checkpoint2_, "binary_corrupt.edge");
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(bin_path, &bytes).ok());
  for (size_t flip : {bytes.size() / 3, bytes.size() / 2}) {
    std::string corrupt = bytes;
    corrupt[flip] = static_cast<char>(corrupt[flip] ^ 0x20);
    std::ofstream out(bin_path, std::ios::binary | std::ios::trunc);
    out << corrupt;
    out.close();

    GeoServiceOptions options;
    options.cache_capacity = 0;
    std::unique_ptr<GeoService> service = MakeService(options);
    core::EdgePrediction before = service->Predict((*texts_)[0]).prediction;
    EXPECT_FALSE(service->ReloadFromFile(bin_path).ok());
    EXPECT_EQ(service->model_generation(), 1u);
    ExpectBitwiseEqual(service->Predict((*texts_)[0]).prediction, before);
  }
  std::filesystem::remove(bin_path);
}

// The response cache is keyed per model generation: after a reload a
// repeated request must be answered by the new model, never the cached old
// response (both models number the same entities alike, so this is the gate
// that protects it).
TEST_F(GeoServiceTest, CacheServesNewModelAfterBinaryReload) {
  fault::Disarm();
  std::string bin_path = WriteStore(*checkpoint2_, "binary_cachegen.edge");
  GeoServiceOptions options;
  options.cache_capacity = 64;
  options.model_store_verify = core::StoreVerify::kFast;
  std::unique_ptr<GeoService> service = MakeService(options);

  const std::string& text = (*texts_)[0];
  ServeResponse first = service->Predict(text);
  ServeResponse cached = service->Predict(text);
  ExpectBitwiseEqual(cached.prediction, first.prediction);

  ASSERT_TRUE(service->ReloadFromFile(bin_path).ok());
  ServeResponse fresh = service->Predict(text);
  // Reference() reads the service's current (store-backed) model.
  ExpectBitwiseEqual(fresh.prediction, Reference(*service, text));
  // And a repeat is served from the generation-2 cache, still new-model.
  ExpectBitwiseEqual(service->Predict(text).prediction, fresh.prediction);
  std::filesystem::remove(bin_path);
}

// --- Request telemetry, windowed stats, SLO and health (obs tentpole). ---

// Request ids are assigned at submit time from a per-service counter, so a
// serialized submitter sees exactly 1..N regardless of how many workers race
// on the other side of the queue.
TEST_F(GeoServiceTest, RequestIdsAreUniqueAndStableAcrossWorkerBudgets) {
  for (size_t workers : {1, 4}) {
    GeoServiceOptions options;
    options.max_batch = 4;
    options.num_workers = workers;
    options.cache_capacity = 0;
    std::unique_ptr<GeoService> service = MakeService(options);

    constexpr size_t kRequests = 20;
    std::vector<std::future<ServeResponse>> futures;
    for (size_t i = 0; i < kRequests; ++i) {
      futures.push_back(service->SubmitAsync((*texts_)[i % texts_->size()]));
    }
    for (size_t i = 0; i < kRequests; ++i) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " request=" + std::to_string(i));
      ServeResponse response = futures[i].get();
      // Ids follow submission order, starting at 1: unique by construction.
      EXPECT_EQ(response.telemetry.request_id, i + 1);
      EXPECT_EQ(response.telemetry.model_generation, 1u);
    }
  }
}

TEST_F(GeoServiceTest, TelemetryWaterfallCoversTheLifecycle) {
  GeoServiceOptions options;
  options.cache_capacity = 64;
  std::unique_ptr<GeoService> service = MakeService(options);

  // Pick a text with entities so the second request can hit the cache.
  text::TweetNer ner(*gazetteer_);
  std::string text;
  for (const std::string& candidate : *texts_) {
    if (!ner.Extract(candidate).empty()) {
      text = candidate;
      break;
    }
  }
  ASSERT_FALSE(text.empty());

  ServeResponse batched = service->Predict(text);
  EXPECT_FALSE(batched.from_cache);
  EXPECT_EQ(batched.telemetry.request_id, 1u);
  EXPECT_GE(batched.telemetry.batch_size, 1u);  // Served by a micro-batch.
  EXPECT_GE(batched.telemetry.queue_ms, 0.0);
  EXPECT_GE(batched.telemetry.batch_ms, 0.0);
  EXPECT_GE(batched.telemetry.total_ms, 0.0);
  // The waterfall rides the response JSON (include_latency=true)...
  std::string line = ResponseToJsonLine(batched, *service->model(), "r");
  EXPECT_NE(line.find("\"telemetry\":{\"request_id\":1"), std::string::npos);
  EXPECT_NE(line.find("\"stages\":{\"ner_ms\":"), std::string::npos);
  // ...but not the canonical (digested) form.
  std::string canonical = ResponseToJsonLine(batched, *service->model(), "r",
                                             /*include_latency=*/false);
  EXPECT_EQ(canonical.find("telemetry"), std::string::npos);

  ServeResponse hit = service->Predict(text);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.telemetry.request_id, 2u);
  EXPECT_EQ(hit.telemetry.batch_size, 0u);  // Cache hits are never batched.
  EXPECT_FALSE(hit.telemetry.queue_ms > 0.0 && hit.telemetry.batch_ms > 0.0);
}

// An injected latency fault on the batch path must show up in the windowed
// p99 within the same window — the "can we see tonight's regression in
// tonight's stats" drill.
TEST_F(GeoServiceTest, WindowedP99ReflectsInjectedBatchLatency) {
  // The serve window instruments are process-global: clear other tests'
  // residue so this window holds only the faulted requests.
  obs::Registry::Global().ResetValuesForTest();
  fault::Disarm();
  GeoServiceOptions options;
  options.cache_capacity = 0;
  std::unique_ptr<GeoService> service = MakeService(options);

  ASSERT_TRUE(fault::Configure("serve.batch=latency,ms=25,times=100"));
  for (size_t i = 0; i < 8; ++i) service->Predict((*texts_)[i]);
  fault::Disarm();

  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.served_in_window, 8);
  EXPECT_EQ(stats.requests_in_window, 8);
  EXPECT_GE(stats.latency_p99_ms, 20.0) << "25ms injected sleep not visible";
  EXPECT_GE(stats.latency_p999_ms, stats.latency_p99_ms);
  EXPECT_EQ(stats.degraded, 0);
}

// A shed storm must trip the availability SLO: the burn-rate gauge goes
// above 1 and the evaluation reports not-ok.
TEST_F(GeoServiceTest, SloAvailabilityBurnTripsUnderShedStorm) {
  obs::Registry::Global().ResetValuesForTest();
  GeoServiceOptions options;
  options.queue_capacity = 2;
  options.max_batch = 64;
  options.cache_capacity = 0;
  std::unique_ptr<GeoService> service = MakeService(options);

  service->PauseWorkersForTest();
  std::vector<std::future<ServeResponse>> admitted;
  admitted.push_back(service->SubmitAsync((*texts_)[0]));
  admitted.push_back(service->SubmitAsync((*texts_)[1]));
  size_t shed = 0;
  for (size_t i = 0; i < 30; ++i) {
    ServeResponse response = service->SubmitAsync((*texts_)[2]).get();
    if (response.degrade_reason == DegradeReason::kShed) ++shed;
  }
  EXPECT_EQ(shed, 30u);

  std::vector<obs::SloMonitor::Evaluation> evaluations = service->EvaluateSlo();
  bool found = false;
  for (const obs::SloMonitor::Evaluation& evaluation : evaluations) {
    if (evaluation.name != "availability") continue;
    found = true;
    // 30 of 32 requests degraded against a 0.1% error budget.
    EXPECT_GT(evaluation.burn_rate, 1.0);
    EXPECT_FALSE(evaluation.ok);
  }
  EXPECT_TRUE(found);
  EXPECT_GT(obs::Registry::Global()
                .GetGauge("edge.serve.slo.availability.burn_rate")
                ->value(),
            1.0);

  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.shed, 30);
  EXPECT_EQ(stats.degraded, 30);

  service->ResumeWorkers();
  for (auto& future : admitted) future.get();
}

TEST_F(GeoServiceTest, StatsAndHealthSnapshotsAndJson) {
  GeoServiceOptions options;
  options.cache_capacity = 16;
  options.num_workers = 2;
  std::unique_ptr<GeoService> service = MakeService(options);
  service->Predict((*texts_)[0]);

  HealthSnapshot health = service->Health();
  EXPECT_EQ(health.model_generation, 1u);
  EXPECT_EQ(health.reloads, 0u);
  EXPECT_EQ(health.num_workers, 2u);
  EXPECT_EQ(health.queue_capacity, options.queue_capacity);
  EXPECT_GE(health.worker_busy_fraction, 0.0);
  EXPECT_LE(health.worker_busy_fraction, 1.0);
  EXPECT_FALSE(health.fault_armed);
  EXPECT_EQ(health.requests_total, 1u);
  EXPECT_GE(health.uptime_seconds, 0.0);

  // A reload shows up as generation 2 / one reload, and uptime keeps
  // counting from construction (a reload is not a restart).
  ASSERT_TRUE(service->AdoptReloadedModel(ModelFrom(*checkpoint2_)).ok());
  HealthSnapshot after = service->Health();
  EXPECT_EQ(after.model_generation, 2u);
  EXPECT_EQ(after.reloads, 1u);
  EXPECT_GE(after.uptime_seconds, health.uptime_seconds);
  health = after;

  for (const std::string& line : {service->StatsJson(), service->HealthJson()}) {
    EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
              std::count(line.begin(), line.end(), '}'));
    EXPECT_EQ(std::count(line.begin(), line.end(), '['),
              std::count(line.begin(), line.end(), ']'));
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
  EXPECT_NE(service->StatsJson().find("\"window_seconds\""), std::string::npos);
  EXPECT_NE(service->StatsJson().find("\"breakdown\""), std::string::npos);
  EXPECT_NE(service->StatsJson().find("\"slo\""), std::string::npos);
  EXPECT_NE(service->HealthJson().find("\"model_generation\": 2"),
            std::string::npos);
  EXPECT_NE(service->HealthJson().find("\"fault_armed\": false"),
            std::string::npos);
  EXPECT_NE(service->HealthJson().find("\"uptime_seconds\""),
            std::string::npos);
}

TEST_F(GeoServiceTest, TelemetryOptionsValidation) {
  GeoServiceOptions options;
  options.slo_p99_ms = -5.0;
  EXPECT_FALSE(options.Validate().ok());
  options = GeoServiceOptions();
  options.slo_availability = 1.0;  // No error budget.
  EXPECT_FALSE(options.Validate().ok());
  options = GeoServiceOptions();
  options.slo_availability = 0.0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(LruCacheTest, EvictsInLruOrderAndPromotesOnGet) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  ASSERT_NE(cache.Get("a"), nullptr);  // Promote "a"; "b" is now LRU.
  cache.Put("c", 3);
  EXPECT_EQ(cache.Get("b"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(*cache.Get("a"), 1);
  EXPECT_EQ(*cache.Get("c"), 3);
  cache.Put("a", 10);  // Overwrite keeps size at 2.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.Get("a"), 10);
}

TEST(LruCacheTest, ZeroCapacityDisables) {
  LruCache<int, int> cache(0);
  cache.Put(1, 1);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(JsonCodecTest, ParsesRawTextLines) {
  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseRequestLine("lunch at the deli", &request, &error));
  EXPECT_EQ(request.text, "lunch at the deli");
  EXPECT_EQ(request.id, "");
  EXPECT_LT(request.deadline_ms, 0.0);
}

TEST(JsonCodecTest, ParsesJsonRequestLines) {
  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"(  {"id": "r-1", "text": "pizza \"slice\" @nypl", "deadline_ms": 12.5, "extra": 7})",
      &request, &error))
      << error;
  EXPECT_EQ(request.id, "r-1");
  EXPECT_EQ(request.text, "pizza \"slice\" @nypl");
  EXPECT_DOUBLE_EQ(request.deadline_ms, 12.5);
}

TEST(JsonCodecTest, RejectsMalformedJson) {
  ServeRequest request;
  std::string error;
  EXPECT_FALSE(ParseRequestLine(R"({"text": "unterminated)", &request, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"text": 42 "id"})", &request, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"deadline_ms": -3, "text": "x"})", &request, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"nested": {"no": 1}})", &request, &error));
}

// A JSON object with no payload used to parse as an empty-text prediction,
// silently answering the fallback prior — it must be an error now.
TEST(JsonCodecTest, RejectsObjectsWithoutTextOrControlVerb) {
  ServeRequest request;
  std::string error;
  EXPECT_FALSE(ParseRequestLine("{}", &request, &error));
  EXPECT_NE(error.find("control verb"), std::string::npos);
  EXPECT_FALSE(ParseRequestLine(R"({"id": "r-1"})", &request, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"relaod": "m.edge"})", &request, &error));
  // An explicit empty text is still a valid request...
  ASSERT_TRUE(ParseRequestLine(R"({"text": ""})", &request, &error)) << error;
  EXPECT_TRUE(request.has_text);
  EXPECT_EQ(request.text, "");
  // ...and so is a raw empty line (the whole line is the tweet).
  EXPECT_TRUE(ParseRequestLine("", &request, &error));
}

TEST(JsonCodecTest, ParsesStatsAndHealthControlVerbs) {
  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(R"({"stats": true, "id": "s-1"})", &request, &error))
      << error;
  EXPECT_TRUE(request.stats);
  EXPECT_FALSE(request.health);
  EXPECT_EQ(request.id, "s-1");
  ASSERT_TRUE(ParseRequestLine(R"({"health": true})", &request, &error)) << error;
  EXPECT_TRUE(request.health);
  // false is a contradiction, not a no-op — reject loudly.
  EXPECT_FALSE(ParseRequestLine(R"({"stats": false})", &request, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"health": 1})", &request, &error));
}

// Regression: ParseNumber used strtod, which accepts nan/inf/hex — so
// {"deadline_ms": nan} sailed through the < 0 gate as a "no deadline"
// request instead of a parse error. The grammar is now strict JSON:
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, finite values only.
TEST(JsonCodecTest, RejectsNonJsonNumberSyntax) {
  ServeRequest request;
  std::string error;
  for (const char* bad :
       {R"({"deadline_ms": nan, "text": "x"})",    // strtod's nan
        R"({"deadline_ms": inf, "text": "x"})",    // strtod's inf
        R"({"deadline_ms": -inf, "text": "x"})",   //
        R"({"deadline_ms": 0x10, "text": "x"})",   // strtod's hex floats
        R"({"deadline_ms": 1e999, "text": "x"})",  // syntactic but not finite
        R"({"deadline_ms": .5, "text": "x"})",     // JSON needs a leading digit
        R"({"deadline_ms": 5., "text": "x"})",     // ...and a trailing one
        R"({"deadline_ms": +3, "text": "x"})",     // no leading plus
        R"({"deadline_ms": 01, "text": "x"})",     // no leading zeros
        R"({"deadline_ms": 1e, "text": "x"})",     // empty exponent
        R"({"deadline_ms": --1, "text": "x"})"}) {
    EXPECT_FALSE(ParseRequestLine(bad, &request, &error)) << bad;
  }
  for (const char* good :
       {R"({"deadline_ms": 0, "text": "x"})", R"({"deadline_ms": 12.5, "text": "x"})",
        R"({"deadline_ms": 1.25e1, "text": "x"})",
        R"({"deadline_ms": 0.5E+1, "text": "x"})"}) {
    EXPECT_TRUE(ParseRequestLine(good, &request, &error)) << good << ": " << error;
    EXPECT_GE(request.deadline_ms, 0.0);
  }
}

// Regression: the \u escape path emitted each UTF-16 code unit as its own
// 3-byte sequence, so an escaped emoji ("🍕") became two invalid
// CESU-8 surrogate encodings instead of one 4-byte UTF-8 character — and the
// NER then tokenized garbage. Pairs must combine; lone surrogates must fail.
TEST(JsonCodecTest, DecodesSurrogatePairsToUtf8) {
  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(R"({"text": "\ud83c\udf55 slice"})", &request,
                               &error))
      << error;
  EXPECT_EQ(request.text, "\xF0\x9F\x8D\x95 slice");  // U+1F355, 4-byte UTF-8.
  ASSERT_TRUE(ParseRequestLine(R"({"text": "caf\u00e9 \u0041"})", &request,
                               &error))
      << error;
  EXPECT_EQ(request.text, "caf\xC3\xA9 A");  // 2-byte and 1-byte planes.
  ASSERT_TRUE(ParseRequestLine(R"({"text": "\u20ac"})", &request, &error));
  EXPECT_EQ(request.text, "\xE2\x82\xAC");  // 3-byte BMP still works.
  // Unpaired surrogates have no UTF-8 encoding: reject, don't emit CESU-8.
  EXPECT_FALSE(ParseRequestLine(R"({"text": "\ud83c"})", &request, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"text": "\ud83c!"})", &request, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"text": "\udf55"})", &request, &error));
  EXPECT_FALSE(
      ParseRequestLine(R"({"text": "\ud83cA"})", &request, &error));
}

// Regression: SkipScalar treated "no recognized token" as an empty scalar,
// so {"x":} and a dangling comma parsed cleanly. A key now requires a value.
TEST(JsonCodecTest, RejectsEmptyAndTrailingValues) {
  ServeRequest request;
  std::string error;
  EXPECT_FALSE(ParseRequestLine(R"({"x":})", &request, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"x": , "text": "a"})", &request, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"text": "a", "x":})", &request, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"text": "a"} trailing)", &request, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"text": "a"}})", &request, &error));
  // Unknown keys with real scalar values still skip cleanly.
  EXPECT_TRUE(ParseRequestLine(R"({"text": "a", "x": null, "y": -2.5})",
                               &request, &error))
      << error;
}

// The per-stream session must answer exactly one line per input line, in
// input order, with control verbs and malformed lines holding their slots.
TEST_F(GeoServiceTest, ServeSessionAnswersInOrder) {
  GeoServiceOptions options;
  std::unique_ptr<GeoService> service = MakeService(options);
  ServeSessionOptions session_options;
  session_options.max_in_flight = 8;
  ServeSession session(service.get(), session_options);

  session.HandleLine(R"({"text": "pizza near the deli", "id": "a"})");
  session.HandleLine(R"({"deadline_ms": nan})");  // Malformed: slot 2.
  session.HandleLine(R"({"health": true, "id": "h"})");
  session.HandleOversized();  // Slot 4.
  session.HandleLine((*texts_)[0]);
  EXPECT_EQ(session.in_flight(), 5u);
  EXPECT_EQ(session.bad_lines(), 2u);

  std::vector<std::string> out;
  session.DrainAll(&out);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_TRUE(session.in_flight() == 0 && !session.AtCapacity());
  EXPECT_NE(out[0].find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(out[0].find("\"point\""), std::string::npos);
  EXPECT_NE(out[1].find("\"error\""), std::string::npos);
  EXPECT_NE(out[1].find("\"line\":2"), std::string::npos);
  EXPECT_NE(out[2].find("\"health\""), std::string::npos);
  EXPECT_NE(out[3].find("exceeds maximum length"), std::string::npos);
  EXPECT_NE(out[3].find("\"line\":4"), std::string::npos);
  EXPECT_NE(out[4].find("\"point\""), std::string::npos);
}

// A reload line divides its stream: every answer before the acknowledgement
// comes from the old model and every answer after it from the new one, even
// when the earlier requests are still queued as the reload line arrives — a
// map-and-swap reload is fast enough to overtake them otherwise.
TEST_F(GeoServiceTest, ServeSessionReloadWaitsForEarlierAnswers) {
  fault::Disarm();
  std::string path = WriteStore(*checkpoint2_, "session_reload.edge");
  GeoServiceOptions options;
  options.cache_capacity = 0;
  ServeSessionOptions session_options;
  session_options.include_latency = false;
  const size_t kHalf = 8;
  std::vector<std::string> before(texts_->begin(), texts_->begin() + kHalf);
  std::vector<std::string> after(texts_->begin() + kHalf, texts_->begin() + 2 * kHalf);

  // What each model answers on its own, one service per model.
  auto answers = [&](const std::string& store, const std::vector<std::string>& lines) {
    auto created = GeoService::Create(ModelFrom(store), *gazetteer_, options);
    EDGE_CHECK(created.ok()) << created.status().ToString();
    ServeSession session(created.value().get(), session_options);
    for (const std::string& line : lines) session.HandleLine(line);
    std::vector<std::string> out;
    session.DrainAll(&out);
    return out;
  };
  std::vector<std::string> old_before = answers(*checkpoint_, before);
  std::vector<std::string> new_after = answers(*checkpoint2_, after);
  ASSERT_NE(old_before, answers(*checkpoint2_, before))
      << "the two models must disagree for this test to discriminate";

  std::unique_ptr<GeoService> service = MakeService(options);
  ServeSession session(service.get(), session_options);
  service->PauseWorkersForTest();
  for (const std::string& line : before) session.HandleLine(line);
  // The workers stay frozen past the reload line's arrival; the session must
  // wait for them rather than swap under the queued requests.
  std::thread resume([&service] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    service->ResumeWorkers();
  });
  session.HandleLine(R"({"reload": ")" + path + R"(", "id": "swap"})");
  resume.join();
  for (const std::string& line : after) session.HandleLine(line);
  std::vector<std::string> out;
  session.DrainAll(&out);
  std::filesystem::remove(path);

  ASSERT_EQ(out.size(), 2 * kHalf + 1);
  for (size_t i = 0; i < kHalf; ++i) EXPECT_EQ(out[i], old_before[i]) << i;
  EXPECT_NE(out[kHalf].find(R"("reload":"ok")"), std::string::npos) << out[kHalf];
  for (size_t i = 0; i < kHalf; ++i) EXPECT_EQ(out[kHalf + 1 + i], new_after[i]) << i;
}

// A failed reload's error quotes the client's path. A path holding a newline
// or a quote must still answer exactly one valid JSON line that carries the
// message unaltered: a raw newline would shift every later answer on the
// stream (and on a router's replica link) by one line.
TEST_F(GeoServiceTest, ServeSessionFailedReloadAnswersOneValidLine) {
  std::unique_ptr<GeoService> service = MakeService(GeoServiceOptions());
  ServeSession session(service.get(), ServeSessionOptions());
  const std::string path = "no\nsuch \"dir\"\\x.edge";
  session.HandleLine(R"({"reload": "no\nsuch \"dir\"\\x.edge", "id": "r"})");
  session.HandleLine(R"({"text": "after", "id": "a"})");
  std::vector<std::string> out;
  session.DrainAll(&out);
  ASSERT_EQ(out.size(), 2u);
  const std::string& ack = out[0];
  ASSERT_EQ(ack.find('\n'), std::string::npos) << ack;
  // The strict request parser accepts the answer as one flat JSON object...
  ServeRequest parsed;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(ack, &parsed, &error)) << error << ": " << ack;
  EXPECT_EQ(parsed.id, "r");
  // ...and the error value decodes back to the Status message, path intact.
  const std::string prefix = R"({"id":"r","reload":"failed","error":)";
  ASSERT_EQ(ack.rfind(prefix, 0), 0u) << ack;
  ASSERT_EQ(ack.back(), '}');
  std::string value = ack.substr(prefix.size(), ack.size() - prefix.size() - 1);
  ServeRequest decoded;
  ASSERT_TRUE(ParseRequestLine("{\"text\":" + value + "}", &decoded, &error))
      << error;
  EXPECT_EQ(decoded.text, service->ReloadFromFile(path).ToString());
  EXPECT_NE(decoded.text.find(path), std::string::npos) << decoded.text;
  EXPECT_NE(out[1].find(R"("id":"a")"), std::string::npos) << out[1];
}

TEST_F(GeoServiceTest, ResponseJsonIsWellFormedAndEchoesId) {
  GeoServiceOptions options;
  std::unique_ptr<GeoService> service = MakeService(options);
  ServeResponse response = service->Predict((*texts_)[0]);
  std::string line = ResponseToJsonLine(response, *service->model(), "req-9");
  EXPECT_NE(line.find("\"id\":\"req-9\""), std::string::npos);
  EXPECT_NE(line.find("\"point\":{\"lat\":"), std::string::npos);
  EXPECT_NE(line.find("\"components\":["), std::string::npos);
  EXPECT_NE(line.find("\"ellipse95\""), std::string::npos);
  EXPECT_NE(line.find("\"degrade_reason\":\"none\""), std::string::npos);
  // Balanced braces/brackets and no raw newline: it is one LDJSON line.
  EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
            std::count(line.begin(), line.end(), '}'));
  EXPECT_EQ(std::count(line.begin(), line.end(), '['),
            std::count(line.begin(), line.end(), ']'));
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace edge::serve
