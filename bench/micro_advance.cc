// Micro-benchmark for advancing an idle fleet: Engine::AdvanceTo over
// fleet10k-sparse's city (100x100 grid, city seed 42, 400 m cells) with 1k
// and 10k random-walking vehicles on one engine thread, and 10k on four (the
// idle walks then run on the pool), called 188 times at fractional times
// over 4,500 sim-s as that workload's waves do. Reports ns per vehicle-tick
// of wall time. Arguments: vehicles, engine threads.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "graph/generators.h"
#include "grid/grid_index.h"
#include "sim/engine.h"

namespace {

constexpr int kCalls = 188;
constexpr double kHorizonSeconds = 4500.0;

const ptar::RoadNetwork& City() {
  static const ptar::RoadNetwork* g = [] {
    ptar::GridCityOptions opts;
    opts.rows = 100;
    opts.cols = 100;
    opts.seed = 42;
    auto built = ptar::MakeGridCity(opts);
    PTAR_CHECK(built.ok());
    return new ptar::RoadNetwork(std::move(built).value());
  }();
  return *g;
}

const ptar::GridIndex& Index() {
  static const ptar::GridIndex* index = [] {
    auto built = ptar::GridIndex::Build(&City(), {.cell_size_meters = 400.0});
    PTAR_CHECK(built.ok());
    return new ptar::GridIndex(std::move(built).value());
  }();
  return *index;
}

double CallTime(int k) { return kHorizonSeconds * k / kCalls; }

void BM_AdvanceIdleFleet(benchmark::State& state) {
  ptar::EngineOptions opts;
  opts.num_vehicles = static_cast<int>(state.range(0));
  opts.engine_threads = static_cast<int>(state.range(1));
  // The engine's ticks: one per whole second, plus a short one wherever a
  // call ends between seconds.
  double ticks = 0.0;
  double now = 0.0;
  for (int k = 1; k <= kCalls; ++k) {
    for (; now + 1e-9 < CallTime(k); ++ticks) {
      now += std::min(1.0, CallTime(k) - now);
    }
  }
  double seconds = 0.0;
  for (auto _ : state) {
    ptar::Engine engine(&City(), &Index(), opts);
    const auto start = std::chrono::steady_clock::now();
    for (int k = 1; k <= kCalls; ++k) engine.AdvanceTo(CallTime(k));
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(elapsed.count());
    seconds += elapsed.count();
    benchmark::DoNotOptimize(engine.fleet().front().odometer());
  }
  state.counters["ns_per_vehicle_tick"] =
      seconds * 1e9 / (ticks * state.iterations() * opts.num_vehicles);
}
BENCHMARK(BM_AdvanceIdleFleet)
    ->Args({1000, 1})
    ->Args({10000, 1})
    ->Args({10000, 4})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
