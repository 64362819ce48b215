/// Model-store benchmark (not a paper table): measures edge-model.v1 load and
/// reload cost across world sizes and verify tiers, and the accuracy cost of
/// each embedding precision.
///
/// Writes BENCH_model_store.json with three sections:
///   cold_load  — load latency of full verify vs mmap fast verify, the
///                resident-set growth of a fast-verified load, and the fp64
///                file size, on models of 2k / 10k / 40k entities at dim 64.
///                Each is trained by Fit on one single-entity tweet per
///                entity (one epoch of each stage, no GCN layer), which takes
///                well under a second and writes a store of the shape a
///                trained world of that size writes.
///   hot_reload — GeoService::ReloadFromFile p50/p99 per size and verify
///                tier. The fast path is a map-and-swap: its latency must be
///                flat across entity counts while full verify grows linearly
///                with the file.
///   accuracy   — the paper's Table III metrics (median error, Acc@3km,
///                Acc@5km) and checkpoint bytes for fp64, fp32, fp16 and int8
///                embeddings of a NYMA-sim model, plus the regression budgets
///                CI enforces on int8 against fp64 (`int8_budget`: at most
///                `median_km` km more median error and at most
///                `acc_3km_points` / `acc_5km_points` accuracy points less).
///                Acc@161 is not used: it is a country-scale ruler and reads
///                1.0 for every precision on a city-scale world.
///
/// `--accuracy-only` skips the cold-load/hot-reload sweeps (CI uses it to
/// check the quantization budget quickly).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "edge/common/check.h"
#include "edge/common/file_util.h"
#include "edge/common/stopwatch.h"
#include "edge/core/edge_model.h"
#include "edge/core/model_store.h"
#include "edge/data/generator.h"
#include "edge/data/pipeline.h"
#include "edge/data/worlds.h"
#include "edge/eval/metrics.h"
#include "edge/serve/geo_service.h"

namespace {

using namespace edge;

/// Resident set size in KiB, from /proc/self/statm (Linux; 0 elsewhere).
size_t ResidentKib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long total = 0, resident = 0;
  int n = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<size_t>(resident) * 4;  // Pages are 4 KiB on our targets.
}

/// A trained model over `entities` single-entity tweets ("poi_0", ...): one
/// epoch of entity2vec and of the MDN head, no GCN layer, dim 64, 5 mixture
/// components.
std::unique_ptr<core::EdgeModel> TrainSyntheticModel(size_t entities) {
  data::ProcessedDataset dataset;
  dataset.region = {40.5, 41.0, -74.3, -73.7};
  dataset.train.reserve(entities);
  for (size_t i = 0; i < entities; ++i) {
    data::ProcessedTweet tweet;
    tweet.id = static_cast<int64_t>(i);
    std::string name = "poi_" + std::to_string(i);
    tweet.location = {40.5 + 0.5 * static_cast<double>(i % 997) / 997.0,
                      -74.3 + 0.6 * static_cast<double>(i % 991) / 991.0};
    tweet.entities = {{name, text::EntityCategory::kOther}};
    tweet.tokens = {name};
    dataset.train_entity_names.insert(name);
    dataset.train.push_back(std::move(tweet));
  }
  core::EdgeConfig config;
  config.auto_dim = false;
  config.embedding_dim = 64;
  config.gcn_hidden = {};
  config.num_components = 5;
  config.epochs = 1;
  config.entity2vec.epochs = 1;
  auto model = std::make_unique<core::EdgeModel>(config);
  model->Fit(dataset);
  return model;
}

struct ColdLoad {
  size_t entities;
  double full_ms;
  double mmap_ms;
  size_t mmap_rss_kib;
  size_t binary_bytes;
};

struct HotReload {
  size_t entities;
  std::string format;
  double p50_ms;
  double p99_ms;
};

struct AccuracyRow {
  std::string precision;
  size_t bytes;
  double median_km;
  double acc_3km;
  double acc_5km;
};

/// How much int8 embeddings may cost against fp64 on the accuracy model.
constexpr double kInt8BudgetMedianKm = 0.02;
constexpr double kInt8BudgetAcc3kmPoints = 0.25;
constexpr double kInt8BudgetAcc5kmPoints = 0.25;

double PercentileMs(std::vector<double> samples, double q) {
  EDGE_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  size_t index = static_cast<size_t>(q * static_cast<double>(samples.size() - 1));
  return samples[index];
}

/// Best-of-N wall time of `fn` in milliseconds (min damps scheduler noise).
template <typename Fn>
double BestOfMs(size_t reps, Fn fn) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds() * 1e3);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool accuracy_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--accuracy-only") == 0) accuracy_only = true;
  }

  std::vector<ColdLoad> cold;
  std::vector<HotReload> reloads;

  if (!accuracy_only) {
    for (size_t entities : {size_t{2000}, size_t{10000}, size_t{40000}}) {
      std::fprintf(stderr, "synthetic world: %zu entities x dim 64\n", entities);
      std::string path = "bench_store_" + std::to_string(entities) + ".edge";
      {
        Stopwatch watch;
        std::unique_ptr<core::EdgeModel> model = TrainSyntheticModel(entities);
        std::fprintf(stderr, "  trained in %.3f s\n", watch.ElapsedSeconds());
        EDGE_CHECK(
            core::SaveModelStoreAtomic(*model, core::EmbedPrecision::kFp64, path).ok());
      }

      ColdLoad row;
      row.entities = entities;
      {
        std::string bytes;
        EDGE_CHECK(ReadFileToString(path, &bytes).ok());
        row.binary_bytes = bytes.size();
      }
      row.full_ms = BestOfMs(3, [&] {
        auto model = core::LoadInferenceAuto(path, core::StoreVerify::kFull);
        EDGE_CHECK(model.ok());
      });
      std::unique_ptr<core::EdgeModel> held;
      size_t rss_before = ResidentKib();
      row.mmap_ms = BestOfMs(3, [&] {
        auto model = core::LoadInferenceAuto(path, core::StoreVerify::kFast);
        EDGE_CHECK(model.ok());
        held = std::move(model).value();
      });
      row.mmap_rss_kib = ResidentKib() - std::min(ResidentKib(), rss_before);
      held.reset();
      cold.push_back(row);
      std::fprintf(stderr, "  cold load: full verify %.2f ms, mmap(fast) %.3f ms\n",
                   row.full_ms, row.mmap_ms);

      // Hot reload through the serve layer: the full swap a replica pays.
      struct VerifyRun {
        const char* name;
        core::StoreVerify verify;
      };
      for (const VerifyRun& run : {VerifyRun{"binary_full", core::StoreVerify::kFull},
                                   VerifyRun{"binary_fast", core::StoreVerify::kFast}}) {
        serve::GeoServiceOptions options;
        options.cache_capacity = 0;
        options.model_store_verify = run.verify;
        auto fresh = core::LoadInferenceAuto(path, core::StoreVerify::kFast);
        EDGE_CHECK(fresh.ok());
        auto service = serve::GeoService::Create(std::move(fresh).value(),
                                                 text::Gazetteer{}, options);
        EDGE_CHECK(service.ok()) << service.status().ToString();
        std::vector<double> samples;
        for (size_t r = 0; r < 20; ++r) {
          Stopwatch watch;
          Status status = service.value()->ReloadFromFile(path);
          EDGE_CHECK(status.ok()) << status.ToString();
          samples.push_back(watch.ElapsedSeconds() * 1e3);
        }
        reloads.push_back({entities, run.name, PercentileMs(samples, 0.5),
                           PercentileMs(samples, 0.99)});
        std::fprintf(stderr, "  hot reload %-11s p50 %.3f ms p99 %.3f ms\n",
                     run.name, reloads.back().p50_ms, reloads.back().p99_ms);
      }
      std::remove(path.c_str());
    }
  }

  // Accuracy-vs-size sweep on the NYMA-sim model the end-to-end benchmark's
  // train_nyma workload trains (12,000 tweets, default EdgeConfig with
  // entity2vec 10 and MDN 20 epochs): quantization error must stay inside
  // the CI budgets.
  std::fprintf(stderr, "training the NYMA-sim accuracy model...\n");
  data::TweetGenerator generator(data::MakeNymaWorld());
  data::Dataset dataset = generator.Generate(12000);
  data::Pipeline pipeline(generator.BuildGazetteer());
  data::ProcessedDataset processed = pipeline.Process(dataset);
  core::EdgeConfig config;
  config.entity2vec.epochs = 10;
  config.epochs = 20;
  core::EdgeModel trained(config);
  trained.Fit(processed);

  std::vector<AccuracyRow> accuracy;
  for (core::EmbedPrecision precision :
       {core::EmbedPrecision::kFp64, core::EmbedPrecision::kFp32,
        core::EmbedPrecision::kFp16, core::EmbedPrecision::kInt8}) {
    std::string bytes;
    EDGE_CHECK(core::SerializeModelStore(trained, precision, &bytes).ok());
    AccuracyRow row;
    row.precision = core::EmbedPrecisionName(precision);
    row.bytes = bytes.size();
    auto store = core::MmapModelStore::FromBytes(std::move(bytes),
                                                 core::StoreVerify::kFull);
    EDGE_CHECK(store.ok()) << store.status().ToString();
    auto model = core::EdgeModel::LoadFromStore(std::move(store).value());
    EDGE_CHECK(model.ok()) << model.status().ToString();
    eval::MetricResults metrics = eval::EvaluateGeolocator(model.value().get(), processed);
    row.median_km = metrics.median_km;
    row.acc_3km = metrics.at_3km;
    row.acc_5km = metrics.at_5km;
    accuracy.push_back(row);
    std::fprintf(stderr, "  %s: %zu bytes, median %.4f km, @3km %.4f, @5km %.4f\n",
                 row.precision.c_str(), row.bytes, row.median_km, row.acc_3km,
                 row.acc_5km);
  }

  std::FILE* out = std::fopen("BENCH_model_store.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_model_store.json for writing\n");
    return 1;
  }
  std::fprintf(out,
               "{\n  \"dim\": 64,\n  \"int8_budget\": {\"median_km\": %g, "
               "\"acc_3km_points\": %g, \"acc_5km_points\": %g},\n",
               kInt8BudgetMedianKm, kInt8BudgetAcc3kmPoints, kInt8BudgetAcc5kmPoints);
  std::fprintf(out, "  \"cold_load\": [\n");
  for (size_t i = 0; i < cold.size(); ++i) {
    const ColdLoad& r = cold[i];
    std::fprintf(out,
                 "    {\"entities\": %zu, \"binary_full_ms\": %.3f, "
                 "\"mmap_fast_ms\": %.3f, \"mmap_rss_kib\": %zu, "
                 "\"binary_bytes\": %zu}%s\n",
                 r.entities, r.full_ms, r.mmap_ms, r.mmap_rss_kib, r.binary_bytes,
                 i + 1 == cold.size() ? "" : ",");
  }
  std::fprintf(out, "  ],\n  \"hot_reload\": [\n");
  for (size_t i = 0; i < reloads.size(); ++i) {
    const HotReload& r = reloads[i];
    std::fprintf(out,
                 "    {\"entities\": %zu, \"format\": \"%s\", "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 r.entities, r.format.c_str(), r.p50_ms, r.p99_ms,
                 i + 1 == reloads.size() ? "" : ",");
  }
  std::fprintf(out, "  ],\n  \"accuracy\": [\n");
  for (size_t i = 0; i < accuracy.size(); ++i) {
    const AccuracyRow& r = accuracy[i];
    std::fprintf(out,
                 "    {\"precision\": \"%s\", \"bytes\": %zu, "
                 "\"median_km\": %.6f, \"acc_3km\": %.6f, \"acc_5km\": %.6f}%s\n",
                 r.precision.c_str(), r.bytes, r.median_km, r.acc_3km, r.acc_5km,
                 i + 1 == accuracy.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote BENCH_model_store.json\n");
  return 0;
}
