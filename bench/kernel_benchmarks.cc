/// Kernel & memory benchmarks (not a paper table): before/after evidence for
/// the blocked matmul kernels and the tape arena. "Before" is a local copy of
/// the seed's naive triple-loop kernels (zero-skip branch included), so the
/// comparison tracks exactly what the rewrite changed, on the same build
/// flags and the same data.
///
/// Besides the Google-benchmark registrations, main() writes
/// BENCH_kernels.json: single-thread GFLOP/s of naive vs blocked kernels on
/// EDGE-realistic shapes (batch x dim activations, vocab x dim embedding
/// tables, CSR x dense propagation) plus heap allocations per steady-state
/// training step with the arena off vs on. The acceptance bar for the PR that
/// introduced this file: >= 2x single-thread speedup on the 256x64*64x64 and
/// 4096x64*64x64 products, >= 90% fewer allocations per steady-state step.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "edge/common/rng.h"
#include "edge/common/stopwatch.h"
#include "edge/common/thread_pool.h"
#include "edge/graph/entity_graph.h"
#include "edge/graph/gcn.h"
#include "edge/nn/autodiff.h"
#include "edge/nn/init.h"
#include "edge/nn/matrix.h"
#include "edge/nn/mdn.h"
#include "edge/nn/optimizer.h"
#include "edge/nn/tape_arena.h"

namespace {

using namespace edge;

// --- The seed kernels, reproduced verbatim as the "before" reference. ---

nn::Matrix NaiveMatMul(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      double aik = a.At(i, k);
      if (aik == 0.0) continue;
      for (size_t j = 0; j < b.cols(); ++j) {
        out.At(i, j) += aik * b.At(k, j);
      }
    }
  }
  return out;
}

nn::Matrix NaiveMatMulTransposeA(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix out(a.cols(), b.cols());
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t k = 0; k < a.rows(); ++k) {
      double aki = a.At(k, i);
      if (aki == 0.0) continue;
      for (size_t j = 0; j < b.cols(); ++j) {
        out.At(i, j) += aki * b.At(k, j);
      }
    }
  }
  return out;
}

nn::Matrix NaiveMatMulTransposeB(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix out(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) sum += a.At(i, k) * b.At(j, k);
      out.At(i, j) = sum;
    }
  }
  return out;
}

// --- Google-benchmark registrations over EDGE-realistic shapes. ---

void BM_MatMulBlocked(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  size_t n = static_cast<size_t>(state.range(2));
  ScopedNumThreads scoped(1);
  Rng rng(1);
  nn::Matrix a = nn::GaussianInit(m, k, 1.0, &rng);
  nn::Matrix b = nn::GaussianInit(k, n, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_MatMulBlocked)
    ->Args({256, 64, 64})    // batch x dim activations through a dim x dim layer
    ->Args({4096, 64, 64})   // vocab x dim embedding table through a layer
    ->Args({512, 512, 512});

void BM_MatMulNaive(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  size_t n = static_cast<size_t>(state.range(2));
  Rng rng(1);
  nn::Matrix a = nn::GaussianInit(m, k, 1.0, &rng);
  nn::Matrix b = nn::GaussianInit(k, n, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveMatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_MatMulNaive)->Args({256, 64, 64})->Args({4096, 64, 64})->Args({512, 512, 512});

void BM_TrainStep(benchmark::State& state) {
  bool arena = state.range(0) != 0;
  nn::SetTapeArenaEnabled(arena);
  ScopedNumThreads scoped(1);
  Rng rng(7);
  nn::Matrix features = nn::GaussianInit(512, 64, 0.1, &rng);
  graph::GcnStack stack({64, 64, 64}, &rng);
  std::vector<std::vector<std::string>> entity_sets(1024);
  for (auto& set : entity_sets) {
    size_t count = 2 + rng.UniformInt(3);
    for (size_t i = 0; i < count; ++i) {
      set.push_back("e" + std::to_string(rng.UniformInt(512)));
    }
  }
  graph::EntityGraph g = graph::EntityGraph::Build(entity_sets);
  nn::CsrMatrix s = g.NormalizedAdjacency();
  nn::Matrix feats = nn::GaussianInit(g.num_nodes(), 64, 0.1, &rng);
  for (auto _ : state) {
    graph::GcnInput input(&s, feats);
    nn::Var h = stack.Forward(input, input.AllRows());
    nn::Var loss = nn::MeanAll(nn::Mul(h, h));
    nn::Backward(loss);
    benchmark::DoNotOptimize(loss->value.At(0, 0));
  }
  nn::SetTapeArenaEnabled(true);
}
BENCHMARK(BM_TrainStep)->Arg(0)->Arg(1);

/// Best-of-`reps` seconds for one call of fn() on one thread.
template <typename Fn>
double BestSeconds(Fn fn, int reps = 3) {
  ScopedNumThreads scoped(1);
  double best = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

struct Shape {
  const char* label;
  size_t m, k, n;
};

/// Runs one naive-vs-blocked comparison; returns {naive_s, blocked_s}.
struct KernelRow {
  const char* label;
  double flops;
  double naive_seconds;
  double blocked_seconds;
};

void WriteKernelsJson(const char* path) {
  std::vector<KernelRow> rows;

  // Dense products at the shapes the trainer actually issues: batch x dim
  // through the MDN head, vocab x dim through a GCN layer, and the backward
  // transpose products of the same.
  const Shape shapes[] = {
      {"matmul_256x64_64x64", 256, 64, 64},
      {"matmul_4096x64_64x64", 4096, 64, 64},
      {"matmul_512x512_512x512", 512, 512, 512},
  };
  Rng rng(1);
  for (const Shape& s : shapes) {
    nn::Matrix a = nn::GaussianInit(s.m, s.k, 1.0, &rng);
    nn::Matrix b = nn::GaussianInit(s.k, s.n, 1.0, &rng);
    int reps = s.m * s.k * s.n > (size_t{1} << 24) ? 3 : 10;
    double naive =
        BestSeconds([&] { benchmark::DoNotOptimize(NaiveMatMul(a, b)); }, reps);
    double blocked =
        BestSeconds([&] { benchmark::DoNotOptimize(nn::MatMul(a, b)); }, reps);
    rows.push_back({s.label, 2.0 * s.m * s.k * s.n, naive, blocked});
  }
  {
    nn::Matrix a = nn::GaussianInit(4096, 64, 1.0, &rng);   // [K, I]
    nn::Matrix dz = nn::GaussianInit(4096, 64, 1.0, &rng);  // [K, J]
    double naive = BestSeconds(
        [&] { benchmark::DoNotOptimize(NaiveMatMulTransposeA(a, dz)); });
    double blocked =
        BestSeconds([&] { benchmark::DoNotOptimize(nn::MatMulTransposeA(a, dz)); });
    rows.push_back({"matmul_transpose_a_4096x64", 2.0 * 4096 * 64 * 64, naive, blocked});
  }
  {
    nn::Matrix dz = nn::GaussianInit(4096, 64, 1.0, &rng);
    nn::Matrix b = nn::GaussianInit(64, 64, 1.0, &rng);
    double naive = BestSeconds(
        [&] { benchmark::DoNotOptimize(NaiveMatMulTransposeB(dz, b)); });
    double blocked =
        BestSeconds([&] { benchmark::DoNotOptimize(nn::MatMulTransposeB(dz, b)); });
    rows.push_back({"matmul_transpose_b_4096x64", 2.0 * 4096 * 64 * 64, naive, blocked});
  }

  // CSR propagation (the GCN S*H kernel), one thread.
  Rng graph_rng(2);
  std::vector<std::vector<std::string>> entity_sets(4800);
  for (auto& set : entity_sets) {
    size_t count = 2 + graph_rng.UniformInt(3);
    for (size_t i = 0; i < count; ++i) {
      set.push_back("e" + std::to_string(graph_rng.UniformInt(800)));
    }
  }
  graph::EntityGraph g = graph::EntityGraph::Build(entity_sets);
  nn::CsrMatrix s = g.NormalizedAdjacency();
  nn::Matrix h = nn::GaussianInit(g.num_nodes(), 64, 0.1, &graph_rng);
  double csr_seconds = BestSeconds([&] {
    for (int rep = 0; rep < 20; ++rep) benchmark::DoNotOptimize(s.Multiply(h));
  });

  // Heap allocations per steady-state training step: run the same GCN
  // forward+backward step with the arena disabled (every matrix buffer and
  // tape node is a fresh heap allocation = the pre-arena behaviour) and
  // enabled (warmed free lists), counting arena misses, which are exactly
  // the calls that reached ::operator new.
  auto run_steps = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      graph::GcnInput input(&s, h);
      Rng step_rng(3);
      graph::GcnStack stack({64, 64}, &step_rng);
      nn::Var hid = stack.Forward(input, input.AllRows());
      nn::Var loss = nn::MeanAll(nn::Mul(hid, hid));
      nn::Backward(loss);
      benchmark::DoNotOptimize(loss->value.At(0, 0));
    }
  };
  const int kSteps = 10;
  ScopedNumThreads serial(1);
  nn::SetTapeArenaEnabled(false);
  run_steps(2);  // Equalize any cold-start effects.
  nn::ResetLocalTapeArenaStatsForTest();
  run_steps(kSteps);
  nn::TapeArenaStats off = nn::LocalTapeArenaStats();
  nn::SetTapeArenaEnabled(true);
  run_steps(2);  // Warm the free lists.
  nn::ResetLocalTapeArenaStatsForTest();
  run_steps(kSteps);
  nn::TapeArenaStats on = nn::LocalTapeArenaStats();
  double allocs_off =
      static_cast<double>(off.buffer_misses + off.node_misses) / kSteps;
  double allocs_on = static_cast<double>(on.buffer_misses + on.node_misses) / kSteps;
  double reduction = allocs_off > 0.0 ? 1.0 - allocs_on / allocs_off : 0.0;

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(out, "{\n  \"kernels\": {\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    std::fprintf(out,
                 "    \"%s\": {\"naive_seconds\": %.6f, \"blocked_seconds\": %.6f, "
                 "\"naive_gflops\": %.3f, \"blocked_gflops\": %.3f, \"speedup\": %.3f}%s\n",
                 r.label, r.naive_seconds, r.blocked_seconds,
                 r.flops / r.naive_seconds * 1e-9, r.flops / r.blocked_seconds * 1e-9,
                 r.naive_seconds / r.blocked_seconds, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"csr_propagate_800x64_seconds\": %.6f,\n", csr_seconds);
  std::fprintf(out,
               "  \"allocations_per_step\": {\"arena_off\": %.1f, \"arena_on\": %.1f, "
               "\"reduction\": %.4f},\n",
               allocs_off, allocs_on, reduction);
  std::fprintf(out, "  \"hardware_concurrency\": %u\n}\n",
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
  WriteKernelsJson("BENCH_kernels.json");
  return 0;
}
