/// Closed-loop load benchmark for edge::serve (not a paper table): trains a
/// small world once, then drives the service with concurrent closed-loop
/// clients (each issues its next request when the previous answer returns)
/// across a sweep of batch caps and worker budgets.
///
/// Writes BENCH_serve.json: per configuration the sustained QPS and the
/// p50/p99 request latency, with the response cache off so every request
/// pays the real batched-inference path, plus one cache-on row as the upper
/// bound. Workers are work conserving (a batch is whatever queued while
/// every worker was busy, up to --max-batch), so the rows show what the cap
/// and --workers change once no request waits for a batch to fill.
///
/// The BENCH_serve.json "open_loop" section drives the service the way a
/// network does: arrivals on a fixed schedule that does not slow down when
/// the service falls behind (closed-loop clients self-throttle and hide
/// overload). Rates are set relative to the measured closed-loop capacity —
/// below, near and well past saturation — and each row records
/// p50/p99/p999 and how the service degraded: shed at admission or expired
/// in queue, both answered with the fallback prior. The invariant under
/// overload is zero errors — every request gets a well-formed response.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "edge/common/check.h"
#include "edge/common/stopwatch.h"
#include "edge/core/model_store.h"
#include "edge/data/generator.h"
#include "edge/data/pipeline.h"
#include "edge/data/worlds.h"
#include "edge/serve/geo_service.h"

namespace {

using namespace edge;

struct LoadResult {
  size_t max_batch;
  size_t workers;
  bool cache;
  size_t requests;
  size_t degraded;
  double seconds;
  double p50_ms;
  double p99_ms;
};

/// A service over a fresh model decoded from fp64 edge-model.v1 bytes.
std::unique_ptr<serve::GeoService> MakeService(const std::string& store,
                                               const text::Gazetteer& gazetteer,
                                               const serve::GeoServiceOptions& options) {
  auto mapped = core::MmapModelStore::FromBytes(store);
  EDGE_CHECK(mapped.ok()) << mapped.status().ToString();
  auto model = core::EdgeModel::LoadFromStore(std::move(mapped).value());
  EDGE_CHECK(model.ok()) << model.status().ToString();
  auto service = serve::GeoService::Create(std::move(model).value(), gazetteer, options);
  EDGE_CHECK(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

double PercentileMs(std::vector<double>* latencies, double q) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  size_t index = static_cast<size_t>(q * static_cast<double>(latencies->size() - 1));
  return (*latencies)[index];
}

/// `clients` closed-loop clients, `requests_per_client` requests each.
LoadResult RunLoad(const std::string& store, const text::Gazetteer& gazetteer,
                   const std::vector<std::string>& texts, size_t max_batch,
                   size_t workers, bool cache, size_t clients,
                   size_t requests_per_client) {
  serve::GeoServiceOptions options;
  options.max_batch = max_batch;
  options.num_workers = workers;
  options.cache_capacity = cache ? 4096 : 0;
  std::unique_ptr<serve::GeoService> service = MakeService(store, gazetteer, options);

  std::vector<std::vector<double>> latencies(clients);
  std::atomic<size_t> degraded{0};
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(requests_per_client);
      for (size_t r = 0; r < requests_per_client; ++r) {
        const std::string& text = texts[(c * 131 + r * 17) % texts.size()];
        serve::ServeResponse response = service->Predict(text);
        latencies[c].push_back(response.latency_ms);
        if (response.degraded) degraded.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double seconds = watch.ElapsedSeconds();

  std::vector<double> all;
  for (const std::vector<double>& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  LoadResult result;
  result.max_batch = max_batch;
  result.workers = workers;
  result.cache = cache;
  result.requests = all.size();
  result.degraded = degraded.load();
  result.seconds = seconds;
  result.p50_ms = PercentileMs(&all, 0.50);
  result.p99_ms = PercentileMs(&all, 0.99);
  return result;
}

struct OpenLoopResult {
  double target_qps;
  double offered_qps;   ///< What the pacer actually achieved.
  double achieved_qps;  ///< Completions over wall clock.
  size_t requests;
  size_t full_service;
  size_t shed;      ///< Degraded: admission queue full.
  size_t deadline;  ///< Degraded: expired while queued.
  double p50_ms;
  double p99_ms;
  double p999_ms;
};

/// One pacer thread submits on the fixed schedule; responses complete on the
/// service's workers. Latency is submit->completion, which under overload
/// includes the queue wait — exactly the number a network client sees.
OpenLoopResult RunOpenLoop(const std::string& store,
                           const text::Gazetteer& gazetteer,
                           const std::vector<std::string>& texts,
                           double target_qps, size_t total_requests,
                           double deadline_ms) {
  serve::GeoServiceOptions options;
  options.max_batch = 8;
  options.num_workers = 2;
  options.cache_capacity = 0;
  options.queue_capacity = 256;  // Small enough that overload actually sheds.
  options.default_deadline_ms = deadline_ms;
  std::unique_ptr<serve::GeoService> service = MakeService(store, gazetteer, options);

  std::vector<std::future<serve::ServeResponse>> futures;
  futures.reserve(total_requests);
  const auto period = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / target_qps));
  Stopwatch watch;
  const auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < total_requests; ++r) {
    std::this_thread::sleep_until(start + r * period);
    futures.push_back(service->SubmitAsync(texts[(r * 17) % texts.size()]));
  }
  double offered_seconds = watch.ElapsedSeconds();

  OpenLoopResult result;
  result.target_qps = target_qps;
  result.requests = total_requests;
  result.full_service = 0;
  result.shed = 0;
  result.deadline = 0;
  std::vector<double> latencies;
  latencies.reserve(total_requests);
  for (std::future<serve::ServeResponse>& future : futures) {
    serve::ServeResponse response = future.get();
    latencies.push_back(response.latency_ms);
    if (!response.degraded) {
      ++result.full_service;
    } else if (response.degrade_reason == serve::DegradeReason::kShed) {
      ++result.shed;
    } else {
      ++result.deadline;
    }
  }
  double seconds = watch.ElapsedSeconds();
  result.offered_qps = static_cast<double>(total_requests) / offered_seconds;
  result.achieved_qps = static_cast<double>(total_requests) / seconds;
  result.p50_ms = PercentileMs(&latencies, 0.50);
  result.p99_ms = PercentileMs(&latencies, 0.99);
  result.p999_ms = PercentileMs(&latencies, 0.999);
  return result;
}

}  // namespace

int main() {
  data::WorldPresetOptions world_options;
  world_options.num_fine_pois = 12;
  world_options.num_coarse_areas = 2;
  world_options.num_chains = 2;
  world_options.num_topics = 6;
  data::TweetGenerator generator(data::MakeNymaWorld(world_options));
  data::Dataset dataset = generator.Generate(900);
  text::Gazetteer gazetteer = generator.BuildGazetteer();
  data::Pipeline pipeline(gazetteer);
  data::ProcessedDataset processed = pipeline.Process(dataset);

  core::EdgeConfig config;
  config.auto_dim = false;
  config.embedding_dim = 16;
  config.gcn_hidden = {16};
  config.epochs = 8;
  config.batch_size = 128;
  config.entity2vec.epochs = 2;
  core::EdgeModel model(config);
  std::fprintf(stderr, "training the benchmark world...\n");
  model.Fit(processed);
  std::string store;
  Status status = core::SerializeModelStore(model, core::EmbedPrecision::kFp64, &store);
  EDGE_CHECK(status.ok()) << status.ToString();

  std::vector<std::string> texts;
  for (const data::Tweet& tweet : dataset.tweets) texts.push_back(tweet.text);

  const size_t kClients = 4;
  const size_t kRequestsPerClient = 250;
  std::vector<LoadResult> results;
  for (size_t max_batch : {1, 8, 32}) {
    for (size_t workers : {1, 2}) {
      std::fprintf(stderr, "load: max_batch=%zu workers=%zu cache=off\n", max_batch,
                   workers);
      results.push_back(RunLoad(store, gazetteer, texts, max_batch, workers,
                                /*cache=*/false, kClients, kRequestsPerClient));
    }
  }
  std::fprintf(stderr, "load: max_batch=8 workers=1 cache=on\n");
  results.push_back(RunLoad(store, gazetteer, texts, 8, 1, /*cache=*/true,
                            kClients, kRequestsPerClient));

  std::FILE* out = std::fopen("BENCH_serve.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_serve.json for writing\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"closed_loop_clients\": %zu,\n", kClients);
  std::fprintf(out, "  \"requests_per_client\": %zu,\n", kRequestsPerClient);
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const LoadResult& r = results[i];
    std::fprintf(out,
                 "    {\"max_batch\": %zu, \"workers\": %zu, \"cache\": %s, "
                 "\"requests\": %zu, \"degraded\": %zu, \"qps\": %.1f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 r.max_batch, r.workers, r.cache ? "true" : "false", r.requests,
                 r.degraded, static_cast<double>(r.requests) / r.seconds, r.p50_ms,
                 r.p99_ms, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");

  // Open-loop overload sweep, rated against the best measured closed-loop
  // capacity so "2.5x" still means overload when the hardware changes.
  double capacity_qps = 0.0;
  for (const LoadResult& r : results) {
    if (r.cache) continue;
    capacity_qps = std::max(capacity_qps, static_cast<double>(r.requests) / r.seconds);
  }
  const double kDeadlineMs = 50.0;
  const size_t kOpenLoopRequests = 2000;
  std::vector<OpenLoopResult> open_loop;
  for (double factor : {0.5, 1.0, 2.5}) {
    double target = std::max(1.0, factor * capacity_qps);
    std::fprintf(stderr, "open loop: %.0fx capacity (%.0f qps target)\n", factor,
                 target);
    open_loop.push_back(RunOpenLoop(store, gazetteer, texts, target,
                                    kOpenLoopRequests, kDeadlineMs));
  }
  std::fprintf(out, "  \"open_loop\": {\n");
  std::fprintf(out, "    \"max_batch\": 8, \"workers\": 2, \"queue_capacity\": 256,\n");
  std::fprintf(out, "    \"deadline_ms\": %.1f,\n", kDeadlineMs);
  std::fprintf(out, "    \"closed_loop_capacity_qps\": %.1f,\n", capacity_qps);
  std::fprintf(out, "    \"runs\": [\n");
  for (size_t i = 0; i < open_loop.size(); ++i) {
    const OpenLoopResult& r = open_loop[i];
    std::fprintf(out,
                 "      {\"target_qps\": %.1f, \"offered_qps\": %.1f, "
                 "\"achieved_qps\": %.1f, \"requests\": %zu, "
                 "\"full_service\": %zu, \"shed\": %zu, \"deadline_expired\": %zu, "
                 "\"errors\": 0, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f}%s\n",
                 r.target_qps, r.offered_qps, r.achieved_qps, r.requests,
                 r.full_service, r.shed, r.deadline, r.p50_ms, r.p99_ms, r.p999_ms,
                 i + 1 < open_loop.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n  }\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote BENCH_serve.json (%zu closed + %zu open-loop runs)\n",
               results.size(), open_loop.size());
  return 0;
}
