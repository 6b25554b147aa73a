// City day: replay a synthetic morning of ridesharing demand over a whole
// city and compare the three matchers (BA / SSA / DSA) request-by-request on
// identical fleet state — the same shadow-evaluation methodology the bench
// suite uses, at example scale.
//
//   $ ./city_day [num_requests] [num_vehicles]

#include <cstdio>
#include <cstdlib>

#include "graph/generators.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/workload.h"

using namespace ptar;

int main(int argc, char** argv) {
  const std::size_t num_requests =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 80;
  const int num_vehicles = argc > 2 ? std::atoi(argv[2]) : 200;

  GridCityOptions copts;
  copts.rows = 30;
  copts.cols = 30;
  copts.spacing_meters = 150.0;
  copts.seed = 77;
  auto graph = MakeGridCity(copts);
  PTAR_CHECK_OK(graph.status());
  std::printf("city: %zu intersections, %zu road segments\n",
              graph->num_vertices(), graph->num_edges());

  auto grid = GridIndex::Build(&*graph, {.cell_size_meters = 400.0});
  PTAR_CHECK_OK(grid.status());
  std::printf("grid index: %zu active cells, %.2f MB\n",
              grid->num_active_cells(), grid->MemoryBytes() / 1048576.0);

  WorkloadOptions wopts;
  wopts.num_requests = num_requests;
  wopts.duration_seconds = 1800.0;
  wopts.epsilon = 0.3;
  wopts.waiting_minutes = 3.0;
  wopts.seed = 99;
  auto requests = GenerateWorkload(*graph, wopts);
  PTAR_CHECK_OK(requests.status());

  EngineOptions eopts;
  eopts.num_vehicles = num_vehicles;
  eopts.policy = ChoicePolicy::kBalanced;
  eopts.seed = 3;
  Engine engine(&*graph, &*grid, eopts);

  std::printf("replaying %zu requests over %d vehicles...\n\n",
              requests->size(), num_vehicles);
  // BA commits; SSA and DSA are shadow slots measured against it.
  const RunStats stats = engine.RunPipelined(
      *requests, [] { return std::make_unique<BaselineMatcher>(); }, nullptr,
      {[] { return std::make_unique<SsaMatcher>(0.16); },
       [] { return std::make_unique<DsaMatcher>(0.16); }});

  std::printf("%-5s %10s %10s %10s %10s %12s %9s %10s %8s\n", "algo",
              "mean(ms)", "p50(ms)", "p95(ms)", "verified", "compdists",
              "options", "precision", "recall");
  for (const MatcherAggregate& agg : stats.matchers) {
    std::printf("%-5s %10.3f %10.3f %10.3f %10.1f %12.1f %9.2f %10.4f "
                "%8.4f\n",
                agg.name.c_str(), agg.MeanMillis(),
                agg.latency_ms.Percentile(50), agg.latency_ms.Percentile(95),
                agg.MeanVerified(), agg.MeanCompdists(), agg.MeanOptions(),
                agg.MeanPrecision(), agg.MeanRecall());
  }
  std::printf("\nserved %llu / %zu requests, sharing rate %.3f\n",
              static_cast<unsigned long long>(stats.served),
              requests->size(), stats.SharingRate());
  std::printf("kinetic trees: %.3f MB across the fleet\n",
              engine.KineticTreeMemoryBytes() / 1048576.0);
  return 0;
}
