// Shared scenario construction for the engine-level suites: a grid city
// with its spatial index, plus a seeded request stream. Keeps the world
// parameters the suites care about (size, seeds, constraint tightness) in
// one place so the engine, fuzz, and integration tests stay comparable.

#ifndef PTAR_TESTS_SCENARIO_BUILDER_H_
#define PTAR_TESTS_SCENARIO_BUILDER_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "graph/generators.h"
#include "grid/grid_index.h"
#include "kinetic/request.h"
#include "sim/engine.h"
#include "sim/workload.h"

namespace ptar::testing {

/// Both parts live on the heap: the grid stores a pointer into the graph,
/// so the pair must stay address-stable under moves.
struct GridWorld {
  std::unique_ptr<RoadNetwork> graph;
  std::unique_ptr<GridIndex> grid;
};

struct GridWorldOptions {
  int rows = 12;
  int cols = 12;
  std::uint64_t seed = 3;
  double cell_size_meters = 300.0;
};

/// Perturbed grid city plus its grid index.
inline GridWorld MakeGridWorld(const GridWorldOptions& options = {}) {
  GridWorld w;
  GridCityOptions copts;
  copts.rows = options.rows;
  copts.cols = options.cols;
  copts.seed = options.seed;
  auto g = MakeGridCity(copts);
  PTAR_CHECK(g.ok());
  w.graph = std::make_unique<RoadNetwork>(std::move(g).value());
  auto grid = GridIndex::Build(
      w.graph.get(), {.cell_size_meters = options.cell_size_meters});
  PTAR_CHECK(grid.ok());
  w.grid = std::make_unique<GridIndex>(std::move(grid).value());
  return w;
}

struct RequestStreamOptions {
  std::size_t num_requests = 30;
  double duration_seconds = 600.0;
  double epsilon = 0.5;
  double waiting_minutes = 3.0;
  double peak_sharpness = 0.0;
  std::uint64_t seed = 8;
};

/// Seeded request stream over the world's graph (ids 0..n-1, sorted by
/// submit time).
inline std::vector<Request> MakeRequestStream(
    const RoadNetwork& graph, const RequestStreamOptions& options = {}) {
  WorkloadOptions wopts;
  wopts.num_requests = options.num_requests;
  wopts.duration_seconds = options.duration_seconds;
  wopts.epsilon = options.epsilon;
  wopts.waiting_minutes = options.waiting_minutes;
  wopts.peak_sharpness = options.peak_sharpness;
  wopts.seed = options.seed;
  auto reqs = GenerateWorkload(graph, wopts);
  PTAR_CHECK(reqs.ok());
  return std::move(reqs).value();
}

/// Matcher slot factory for Engine::RunPipelined: builds an `M` from copies
/// of `args` on every call.
template <typename M, typename... Args>
MatcherFactory FactoryOf(Args... args) {
  return [args...] { return std::make_unique<M>(args...); };
}

}  // namespace ptar::testing

#endif  // PTAR_TESTS_SCENARIO_BUILDER_H_
