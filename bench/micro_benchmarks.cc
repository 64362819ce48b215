/// Engineering micro-benchmarks (not a paper table): throughput of the
/// substrate pieces every experiment leans on — dense/sparse linear algebra,
/// the fused MDN loss, KDE queries, the tweet generator and the NER — plus
/// the DESIGN.md section 4 ablation of full GCN forward+backward cost.
///
/// Besides the Google-benchmark registrations, main() writes
/// BENCH_parallel.json: MatMul 512x512 and GCN CSR propagation timed at
/// 1/2/4/8 threads with speedups vs 1 thread, so the perf trajectory of the
/// parallel substrate is tracked run over run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "edge/common/rng.h"
#include "edge/common/stopwatch.h"
#include "edge/common/thread_pool.h"
#include "edge/data/generator.h"
#include "edge/data/worlds.h"
#include "edge/geo/kde.h"
#include "edge/geo/mixture.h"
#include "edge/graph/entity_graph.h"
#include "edge/graph/gcn.h"
#include "edge/nn/init.h"
#include "edge/nn/mdn.h"
#include "edge/obs/log.h"
#include "edge/obs/metrics.h"
#include "edge/obs/trace.h"
#include "edge/text/ner.h"

namespace {

using namespace edge;

void BM_MatMul(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  nn::Matrix a = nn::GaussianInit(n, n, 1.0, &rng);
  nn::Matrix b = nn::GaussianInit(n, n, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulThreads(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  ScopedNumThreads scoped(static_cast<int>(state.range(1)));
  Rng rng(1);
  nn::Matrix a = nn::GaussianInit(n, n, 1.0, &rng);
  nn::Matrix b = nn::GaussianInit(n, n, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulThreads)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({512, 8});

void BM_Haversine(benchmark::State& state) {
  geo::LatLon a{40.7580, -73.9855};
  geo::LatLon b{40.6413, -73.7781};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::HaversineKm(a, b));
    b.lat += 1e-9;  // Defeat CSE.
  }
}
BENCHMARK(BM_Haversine);

graph::EntityGraph BuildRandomGraph(size_t nodes, size_t tweets, Rng* rng) {
  std::vector<std::vector<std::string>> entity_sets(tweets);
  for (auto& set : entity_sets) {
    size_t k = 2 + rng->UniformInt(3);
    for (size_t i = 0; i < k; ++i) {
      set.push_back("e" + std::to_string(rng->UniformInt(nodes)));
    }
  }
  return graph::EntityGraph::Build(entity_sets);
}

void BM_GcnForwardBackward(benchmark::State& state) {
  size_t nodes = static_cast<size_t>(state.range(0));
  Rng rng(2);
  graph::EntityGraph g = BuildRandomGraph(nodes, nodes * 6, &rng);
  nn::CsrMatrix s = g.NormalizedAdjacency();
  size_t dim = 64;
  nn::Matrix features = nn::GaussianInit(g.num_nodes(), dim, 0.1, &rng);
  graph::GcnStack stack({dim, dim, dim}, &rng);
  for (auto _ : state) {
    graph::GcnInput input(&s, features);
    nn::Var h = stack.Forward(input, input.AllRows());
    nn::Var loss = nn::MeanAll(nn::Mul(h, h));
    nn::Backward(loss);
    benchmark::DoNotOptimize(loss->value.At(0, 0));
  }
}
BENCHMARK(BM_GcnForwardBackward)->Arg(200)->Arg(800);

void BM_CsrPropagateThreads(benchmark::State& state) {
  size_t nodes = static_cast<size_t>(state.range(0));
  ScopedNumThreads scoped(static_cast<int>(state.range(1)));
  Rng rng(2);
  graph::EntityGraph g = BuildRandomGraph(nodes, nodes * 6, &rng);
  nn::CsrMatrix s = g.NormalizedAdjacency();
  nn::Matrix h = nn::GaussianInit(g.num_nodes(), 64, 0.1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.Multiply(h));
  }
  state.SetItemsProcessed(state.iterations() * s.nnz() * h.cols());
}
BENCHMARK(BM_CsrPropagateThreads)
    ->Args({800, 1})
    ->Args({800, 2})
    ->Args({800, 4})
    ->Args({800, 8});

void BM_MdnLossForwardBackward(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  nn::MdnOptions options;
  options.num_components = 4;
  Rng rng(3);
  nn::Matrix theta_values = nn::GaussianInit(batch, 6 * options.num_components, 0.5, &rng);
  nn::Matrix targets = nn::GaussianInit(batch, 2, 1.0, &rng);
  for (auto _ : state) {
    nn::Var theta = nn::Param(theta_values);
    nn::Var loss = nn::BivariateMdnLoss(theta, targets, options);
    nn::Backward(loss);
    benchmark::DoNotOptimize(theta->grad.At(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MdnLossForwardBackward)->Arg(128)->Arg(512);

void BM_KdeQuery(benchmark::State& state) {
  size_t points = static_cast<size_t>(state.range(0));
  Rng rng(4);
  std::vector<geo::PlanePoint> data;
  for (size_t i = 0; i < points; ++i) {
    data.push_back({rng.Uniform(-20, 20), rng.Uniform(-20, 20)});
  }
  geo::Kde2d kde(data, 1.0);
  geo::PlanePoint q{0.0, 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde.Density(q));
    q.x += 1e-9;
  }
  state.SetItemsProcessed(state.iterations() * points);
}
BENCHMARK(BM_KdeQuery)->Arg(1000)->Arg(10000);

void BM_TweetGeneration(benchmark::State& state) {
  data::WorldPresetOptions options;
  data::TweetGenerator generator(data::MakeNymaWorld(options));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Generate(1000));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TweetGeneration);

void BM_NerExtract(benchmark::State& state) {
  data::TweetGenerator generator(data::MakeNymaWorld({}));
  data::Dataset ds = generator.Generate(500);
  text::TweetNer ner(generator.BuildGazetteer());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ner.Extract(ds.tweets[i % ds.tweets.size()].text));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NerExtract);

// --- Observability overhead: the acceptance bar is "kernels within 2% at
// default level with no trace sink", so the disabled paths must stay in the
// few-nanosecond range. ---

void BM_ObsLogFiltered(benchmark::State& state) {
  obs::SetLogLevel(obs::LogLevel::kInfo);
  int i = 0;
  for (auto _ : state) {
    EDGE_LOG(DEBUG) << "filtered" << obs::Kv("i", i);  // Below threshold.
    benchmark::DoNotOptimize(++i);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsLogFiltered);

void BM_ObsCounterIncrement(benchmark::State& state) {
  obs::Counter* counter =
      obs::Registry::Global().GetCounter("edge.bench.obs_overhead_counter");
  for (auto _ : state) {
    counter->Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncrement);

void BM_ObsTraceSpanDisabled(benchmark::State& state) {
  obs::StopTracing();
  for (auto _ : state) {
    EDGE_TRACE_SPAN("edge.bench.disabled_span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsTraceSpanDisabled);

void BM_MixtureModeFinding(benchmark::State& state) {
  Rng rng(5);
  std::vector<geo::Gaussian2d> components;
  std::vector<double> weights;
  for (int m = 0; m < 4; ++m) {
    components.push_back(geo::Gaussian2d::Isotropic(
        {rng.Uniform(-15, 15), rng.Uniform(-15, 15)}, rng.Uniform(0.5, 3.0)));
    weights.push_back(rng.Uniform(0.1, 1.0));
  }
  geo::GaussianMixture2d mixture(components, weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mixture.FindMode());
  }
}
BENCHMARK(BM_MixtureModeFinding);

/// Best-of-3 seconds for one run of fn() at the given budget.
template <typename Fn>
double BestSeconds(int threads, Fn fn) {
  ScopedNumThreads scoped(threads);
  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// Writes BENCH_parallel.json: wall-clock and speedup-vs-1-thread of the two
/// tentpole kernels at 1/2/4/8 threads. On a 1-core host the speedups will
/// hover around 1.0 — the file records hardware_concurrency so trajectory
/// dashboards can normalize.
void WriteParallelJson(const char* path) {
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  Rng rng(1);
  nn::Matrix a = nn::GaussianInit(512, 512, 1.0, &rng);
  nn::Matrix b = nn::GaussianInit(512, 512, 1.0, &rng);
  std::vector<double> matmul_seconds;
  for (int t : thread_counts) {
    matmul_seconds.push_back(
        BestSeconds(t, [&] { benchmark::DoNotOptimize(nn::MatMul(a, b)); }));
  }

  Rng graph_rng(2);
  graph::EntityGraph g = BuildRandomGraph(800, 4800, &graph_rng);
  nn::CsrMatrix s = g.NormalizedAdjacency();
  nn::Matrix h = nn::GaussianInit(g.num_nodes(), 64, 0.1, &graph_rng);
  std::vector<double> gcn_seconds;
  for (int t : thread_counts) {
    gcn_seconds.push_back(BestSeconds(t, [&] {
      for (int rep = 0; rep < 20; ++rep) benchmark::DoNotOptimize(s.Multiply(h));
    }));
  }

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  auto write_series = [out, &thread_counts](const char* name,
                                            const std::vector<double>& seconds) {
    std::fprintf(out, "  \"%s\": {\"threads\": [", name);
    for (size_t i = 0; i < thread_counts.size(); ++i) {
      std::fprintf(out, "%s%d", i ? ", " : "", thread_counts[i]);
    }
    std::fprintf(out, "], \"seconds\": [");
    for (size_t i = 0; i < seconds.size(); ++i) {
      std::fprintf(out, "%s%.6f", i ? ", " : "", seconds[i]);
    }
    std::fprintf(out, "], \"speedup_vs_1\": [");
    for (size_t i = 0; i < seconds.size(); ++i) {
      std::fprintf(out, "%s%.3f", i ? ", " : "", seconds[0] / seconds[i]);
    }
    std::fprintf(out, "]}");
  };
  std::fprintf(out, "{\n");
  write_series("matmul_512", matmul_seconds);
  std::fprintf(out, ",\n");
  write_series("gcn_propagate_800x64", gcn_seconds);
  std::fprintf(out, ",\n  \"hardware_concurrency\": %u\n}\n",
               std::thread::hardware_concurrency());
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteParallelJson("BENCH_parallel.json");
  return 0;
}
