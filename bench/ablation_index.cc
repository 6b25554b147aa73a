// Ablation: uniform grid vs. quadtree (adaptive) partition
// (the paper's future-work index, Section IV.A / VIII).
//
// Run on a ring-radial city whose vertex density is highly non-uniform
// (dense downtown hub, sparse outskirts): the adaptive partition keeps
// leaves small where vehicles and requests concentrate without paying the
// uniform grid's quadratic cell-count blow-up.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "grid/grid_index.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/run_report.h"
#include "sim/workload.h"

using namespace ptar;

namespace {

void RunVariant(const char* label, const RoadNetwork& graph,
                const GridIndex& index,
                const std::vector<Request>& requests,
                bench::ObsSession& obs) {
  EngineOptions eopts;
  eopts.num_vehicles = 300;
  eopts.seed = 13;
  Engine engine(&graph, &index, eopts);
  const RunStats stats = engine.RunPipelined(
      requests, [] { return std::make_unique<BaselineMatcher>(); }, nullptr,
      {[] { return std::make_unique<SsaMatcher>(0.16); },
       [] { return std::make_unique<DsaMatcher>(0.16); }});
  obs.Add(label, BuildRunReport(stats, engine.metrics(),
                                std::string("bench ") + label));
  for (const MatcherAggregate& agg : stats.matchers) {
    std::printf("%-22s %-5s %10.3f %10.1f %12.1f %8.4f\n", label,
                agg.name.c_str(), agg.MeanMillis(), agg.MeanVerified(),
                agg.MeanCompdists(), agg.MeanRecall());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv, "ablation_index");
  std::printf("=== Ablation: uniform grid vs. quadtree partition ===\n");
  std::printf("(ring-radial city: dense hub, sparse outskirts)\n\n");

  RingRadialCityOptions copts;
  copts.rings = 24;
  copts.spokes = 48;
  copts.ring_spacing_meters = 160.0;
  auto graph = MakeRingRadialCity(copts);
  PTAR_CHECK_OK(graph.status());

  WorkloadOptions wopts;
  wopts.num_requests = 100;
  wopts.duration_seconds = 1200.0;
  wopts.seed = 7;
  wopts.num_hotspots = 2;
  wopts.hotspot_stddev_meters = 500.0;
  auto requests = GenerateWorkload(*graph, wopts);
  PTAR_CHECK_OK(requests.status());

  struct IndexRow {
    std::string label;
    StatusOr<GridIndex> index;
    double build_ms;
  };
  std::vector<IndexRow> rows;
  {
    Timer t;
    auto idx = GridIndex::Build(&*graph, {.cell_size_meters = 500.0});
    rows.push_back({"uniform-500m", std::move(idx), t.ElapsedMillis()});
  }
  {
    Timer t;
    auto idx = GridIndex::Build(&*graph, {.cell_size_meters = 250.0});
    rows.push_back({"uniform-250m", std::move(idx), t.ElapsedMillis()});
  }
  {
    Timer t;
    auto idx = GridIndex::BuildAdaptive(
        &*graph, {.max_vertices_per_cell = 48,
                  .min_cell_size_meters = 60.0});
    rows.push_back({"quadtree-48/leaf", std::move(idx), t.ElapsedMillis()});
  }

  std::printf("%-22s %12s %12s %12s\n", "index", "cells", "memory(MB)",
              "build(ms)");
  for (const IndexRow& row : rows) {
    PTAR_CHECK_OK(row.index.status());
    std::printf("%-22s %12zu %12.3f %12.1f\n", row.label.c_str(),
                row.index->num_active_cells(),
                row.index->MemoryBytes() / 1048576.0, row.build_ms);
  }

  std::printf("\n%-22s %-5s %10s %10s %12s %8s\n", "index", "algo",
              "time(ms)", "verified", "compdists", "recall");
  for (const IndexRow& row : rows) {
    RunVariant(row.label.c_str(), *graph, *row.index, *requests, obs);
  }
  return 0;
}
