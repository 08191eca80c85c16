// M1: microbenchmarks of the simulation kernel (google-benchmark):
// SINR slot resolution, spatial index construction/queries, graph build.

#include <benchmark/benchmark.h>

#include "mcs.h"

namespace mcs {
namespace {

std::vector<Vec2> points(int n, std::uint64_t seed) {
  Rng rng(seed);
  return deployUniformSquare(n, std::sqrt(n / 900.0), rng);
}

void BM_MediumResolveSlot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int channels = static_cast<int>(state.range(1));
  const auto pts = points(n, 1);
  Medium medium(SinrParams{}, channels);
  Rng rng(2);
  std::vector<Intent> intents(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto c = static_cast<ChannelId>(rng.below(static_cast<std::uint64_t>(channels)));
    intents[static_cast<std::size_t>(v)] =
        rng.bernoulli(0.05) ? Intent::transmit(c, {}) : Intent::listen(c);
  }
  const std::vector<NodeId> active = activeNodes(intents);
  std::vector<Reception> rx;
  for (auto _ : state) {
    medium.resolveSlot(pts, intents, active, rx);
    benchmark::DoNotOptimize(rx.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MediumResolveSlot)->Args({256, 1})->Args({1024, 1})->Args({1024, 8})->Args({4096, 8});

void BM_GridIndexBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto pts = points(n, 3);
  for (auto _ : state) {
    GridIndex grid(pts, 0.1);
    benchmark::DoNotOptimize(grid.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GridIndexBuild)->Arg(1024)->Arg(8192);

void BM_GridIndexQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto pts = points(n, 4);
  const GridIndex grid(pts, 0.1);
  Rng rng(5);
  std::vector<NodeId> out;
  for (auto _ : state) {
    const Vec2 c = pts[rng.below(pts.size())];
    grid.queryBall(c, 0.1, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GridIndexQuery)->Arg(1024)->Arg(8192);

void BM_CommGraphBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto pts = points(n, 6);
  for (auto _ : state) {
    CommGraph g(pts, 0.5);
    benchmark::DoNotOptimize(g.edgeCount());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CommGraphBuild)->Arg(1024)->Arg(4096);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(7);
  double acc = 0;
  for (auto _ : state) acc += rng.uniform();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniform);

}  // namespace
}  // namespace mcs

BENCHMARK_MAIN();
