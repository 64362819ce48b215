/// Model-store benchmark (not a paper table): measures what the edge-model.v1
/// binary format buys over the text EDGE-INFERENCE checkpoint, across world
/// sizes and embedding precisions.
///
/// Writes BENCH_model_store.json with three sections:
///   cold_load  — load latency and resident-set growth for text parse vs
///                binary full-verify vs mmap fast-verify, on synthetic
///                checkpoints of 2k / 10k / 40k entities at dim 64. The
///                acceptance bar: mmap cold load >= 10x faster than the text
///                parse at every size.
///   hot_reload — GeoService::ReloadFromFile p50/p99 per size and format.
///                The binary fast path is a map-and-swap: its latency must be
///                flat across entity counts while the text path grows
///                linearly.
///   accuracy   — the paper's Table III metrics (median error, Acc@3km,
///                Acc@5km) and checkpoint bytes for fp64, fp32, fp16 and int8
///                embeddings of a NYMA-sim model, plus the regression budgets
///                CI enforces on int8 against fp64 (`int8_budget`: at most
///                `median_km` km more median error and at most
///                `acc_3km_points` / `acc_5km_points` accuracy points less).
///                Acc@161 is not used: it is a country-scale ruler and reads
///                1.0 for every precision on a city-scale world.
///
/// `--accuracy-only` skips the synthetic cold-load/hot-reload sweeps (CI uses
/// it to check the quantization budget quickly).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
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

/// Deterministic synthetic EDGE-INFERENCE v1 checkpoint with `entities`
/// nodes at dimension `dim` — structurally identical to a trained save, so
/// the parse path being timed is exactly the production one.
std::string MakeSyntheticCheckpoint(size_t entities, size_t dim) {
  uint64_t state = 0x9e3779b97f4a7c15ull + entities * 1315423911ull + dim;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((state >> 17) % 100000) / 100000.0 - 0.5;
  };
  constexpr size_t kComponents = 5;
  std::ostringstream os;
  os.precision(17);
  os << "EDGE-INFERENCE v1\n";
  os << "synthetic-" << entities << "\n";
  os << kComponents << " 0.1 0.9 1\n";
  os << "40.75 -73.98\n";
  os << entities << " " << dim << "\n";
  for (size_t n = 0; n < entities; ++n) os << "poi_" << n << "\n";
  auto write_random_matrix = [&os, &next](size_t rows, size_t cols) {
    os << rows << " " << cols << "\n";
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        os << next() << (c + 1 == cols ? '\n' : ' ');
      }
    }
  };
  write_random_matrix(entities, dim);       // Embeddings.
  write_random_matrix(dim, 1);              // Attention query.
  os << next() << "\n";                     // Attention bias.
  write_random_matrix(dim, 6 * kComponents);  // Head weights.
  write_random_matrix(1, 6 * kComponents);    // Head bias.
  os << "0.1 -0.2 12.5\n";                  // Fallback prior.
  os << "111.0\n";                          // Coordinate scale.
  return os.str();
}

struct ColdLoad {
  size_t entities;
  double text_ms;
  double full_ms;
  double mmap_ms;
  size_t text_rss_kib;
  size_t mmap_rss_kib;
  size_t text_bytes;
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
      std::string text = MakeSyntheticCheckpoint(entities, 64);
      std::string text_path = "bench_store_" + std::to_string(entities) + ".edge";
      std::string bin_path = "bench_store_" + std::to_string(entities) + ".bin";
      EDGE_CHECK(WriteFileAtomic(text_path, text).ok());
      {
        auto model = core::LoadInferenceAuto(text_path);
        EDGE_CHECK(model.ok()) << model.status().ToString();
        EDGE_CHECK(core::SaveModelStoreAtomic(*model.value(),
                                              core::EmbedPrecision::kFp64,
                                              bin_path)
                       .ok());
      }

      ColdLoad row;
      row.entities = entities;
      row.text_bytes = text.size();
      {
        std::string bin_bytes;
        EDGE_CHECK(ReadFileToString(bin_path, &bin_bytes).ok());
        row.binary_bytes = bin_bytes.size();
      }
      size_t rss_before = ResidentKib();
      std::unique_ptr<core::EdgeModel> held;
      row.text_ms = BestOfMs(3, [&] {
        auto model = core::LoadInferenceAuto(text_path);
        EDGE_CHECK(model.ok());
        held = std::move(model).value();
      });
      row.text_rss_kib = ResidentKib() - std::min(ResidentKib(), rss_before);
      held.reset();
      row.full_ms = BestOfMs(3, [&] {
        auto model = core::LoadInferenceAuto(bin_path, core::StoreVerify::kFull);
        EDGE_CHECK(model.ok());
      });
      rss_before = ResidentKib();
      row.mmap_ms = BestOfMs(3, [&] {
        auto model = core::LoadInferenceAuto(bin_path, core::StoreVerify::kFast);
        EDGE_CHECK(model.ok());
        held = std::move(model).value();
      });
      row.mmap_rss_kib = ResidentKib() - std::min(ResidentKib(), rss_before);
      held.reset();
      cold.push_back(row);
      std::fprintf(stderr,
                   "  cold load: text %.2f ms, binary(full) %.2f ms, "
                   "mmap(fast) %.2f ms (%.0fx)\n",
                   row.text_ms, row.full_ms, row.mmap_ms,
                   row.text_ms / std::max(row.mmap_ms, 1e-6));

      // Hot reload through the serve layer: the full swap a replica pays.
      struct FormatRun {
        const char* name;
        const std::string* path;
        core::StoreVerify verify;
      };
      FormatRun runs[] = {
          {"text", &text_path, core::StoreVerify::kFull},
          {"binary_full", &bin_path, core::StoreVerify::kFull},
          {"binary_fast", &bin_path, core::StoreVerify::kFast},
      };
      for (const FormatRun& run : runs) {
        serve::GeoServiceOptions options;
        options.cache_capacity = 0;
        options.model_store_verify = run.verify;
        auto fresh = core::LoadInferenceAuto(bin_path, core::StoreVerify::kFast);
        EDGE_CHECK(fresh.ok());
        auto service = serve::GeoService::Create(std::move(fresh).value(),
                                                 text::Gazetteer{}, options);
        EDGE_CHECK(service.ok()) << service.status().ToString();
        std::vector<double> samples;
        for (size_t r = 0; r < 20; ++r) {
          Stopwatch watch;
          Status status = service.value()->ReloadFromFile(*run.path);
          EDGE_CHECK(status.ok()) << status.ToString();
          samples.push_back(watch.ElapsedSeconds() * 1e3);
        }
        reloads.push_back({entities, run.name, PercentileMs(samples, 0.5),
                           PercentileMs(samples, 0.99)});
        std::fprintf(stderr, "  hot reload %-11s p50 %.2f ms p99 %.2f ms\n",
                     run.name, reloads.back().p50_ms, reloads.back().p99_ms);
      }
      std::remove(text_path.c_str());
      std::remove(bin_path.c_str());
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
                 "    {\"entities\": %zu, \"text_ms\": %.3f, "
                 "\"binary_full_ms\": %.3f, \"mmap_fast_ms\": %.3f, "
                 "\"text_rss_kib\": %zu, \"mmap_rss_kib\": %zu, "
                 "\"text_bytes\": %zu, \"binary_bytes\": %zu}%s\n",
                 r.entities, r.text_ms, r.full_ms, r.mmap_ms, r.text_rss_kib,
                 r.mmap_rss_kib, r.text_bytes, r.binary_bytes,
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
