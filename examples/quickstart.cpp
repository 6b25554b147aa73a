// Quickstart: build a tiny road network by hand, place three vehicles,
// issue one ridesharing request, and print every non-dominated
// (pickup time, price) option — the core loop of the public API.
//
//   $ ./quickstart

#include <cstdio>

#include "graph/distance_oracle.h"
#include "graph/road_network.h"
#include "grid/grid_index.h"
#include "grid/vehicle_registry.h"
#include "kinetic/kinetic_tree.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/ssa_matcher.h"

using namespace ptar;

int main() {
  // 1. A 4 x 4 Manhattan block grid, 500 m blocks.
  RoadNetwork::Builder builder;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      builder.AddVertex(Coord{c * 500.0, r * 500.0});
    }
  }
  auto at = [](int r, int c) { return static_cast<VertexId>(r * 4 + c); };
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      if (c + 1 < 4) builder.AddEdge(at(r, c), at(r, c + 1), 500.0);
      if (r + 1 < 4) builder.AddEdge(at(r, c), at(r + 1, c), 500.0);
    }
  }
  auto graph = std::move(builder).Build();
  PTAR_CHECK_OK(graph.status());

  // 2. Index the network with a 500 m grid.
  auto grid = GridIndex::Build(&*graph, {.cell_size_meters = 500.0});
  PTAR_CHECK_OK(grid.status());

  // 3. Three taxis: two idle, one already carrying a request.
  std::vector<KineticTree> fleet;
  fleet.emplace_back(0, at(0, 0), /*capacity=*/4);
  fleet.emplace_back(1, at(0, 3), /*capacity=*/4);
  fleet.emplace_back(2, at(1, 1), /*capacity=*/4);

  DistanceOracle maintenance(&*graph);
  auto dist = [&maintenance](VertexId a, VertexId b) {
    return maintenance.Dist(a, b);
  };
  Request onboard;
  onboard.id = 100;
  onboard.start = at(1, 2);
  onboard.destination = at(3, 2);
  onboard.riders = 1;
  onboard.max_wait_dist = 2000.0;
  onboard.epsilon = 0.6;
  PTAR_CHECK_OK(fleet[2].Commit(onboard,
                                maintenance.Dist(onboard.start,
                                                 onboard.destination),
                                /*planned_pickup_dist=*/
                                maintenance.Dist(fleet[2].location(),
                                                 onboard.start),
                                dist));

  // 4. Register the fleet in the grid.
  VehicleRegistry registry(&*grid);
  registry.AddEmptyVehicle(0, fleet[0].location());
  registry.AddEmptyVehicle(1, fleet[1].location());
  registry.SetVehicleEdges(2, fleet[2].BuildRegistration(*grid));

  // 5. A new request: two riders from (1,3) to (3,0), willing to wait the
  // equivalent of 1.5 km, accepting 40 % detour.
  Request request;
  request.id = 1;
  request.start = at(1, 3);
  request.destination = at(3, 0);
  request.riders = 2;
  request.max_wait_dist = 1500.0;
  request.epsilon = 0.4;

  DistanceOracle match_oracle(&*graph);
  registry.RebuildDirtyAggregates();  // once after writes, before matching
  MatchContext ctx;
  ctx.grid = &*grid;
  ctx.registry = &registry;
  ctx.fleet = &fleet;
  ctx.oracle = &match_oracle;

  std::printf("request: %d riders from vertex %u to vertex %u\n",
              request.riders, request.start, request.destination);

  for (Matcher* matcher :
       std::initializer_list<Matcher*>{new BaselineMatcher,
                                       new SsaMatcher(1.0)}) {
    const MatchResult result = matcher->Match(request, ctx);
    std::printf("\n%s found %zu non-dominated option(s) "
                "(%llu compdists, %llu vehicles verified):\n",
                matcher->name().c_str(), result.options.size(),
                static_cast<unsigned long long>(result.stats.compdists),
                static_cast<unsigned long long>(
                    result.stats.verified_vehicles));
    for (const Option& option : result.options) {
      std::printf("  vehicle %u: pickup in %6.0f m (%4.1f min), price %.2f\n",
                  option.vehicle, option.pickup_dist,
                  option.pickup_dist / kDefaultSpeedMetersPerSec / 60.0,
                  option.price);
    }
    delete matcher;
  }
  std::printf("\nEach rider picks the option matching their own time/price "
              "preference.\n");
  return 0;
}
