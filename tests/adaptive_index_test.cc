// Tests for the quadtree (adaptive) partition variant of the grid index —
// the paper's future-work direction. The bound properties and the full
// matcher-equivalence guarantee must hold exactly as for the uniform grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "graph/generators.h"
#include "grid/grid_index.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "tests/scenario_builder.h"
#include "tests/test_util.h"

namespace ptar {
namespace {

TEST(AdaptiveIndexTest, RejectsBadOptions) {
  const RoadNetwork g = testing::MakeSmallGrid();
  EXPECT_FALSE(
      GridIndex::BuildAdaptive(nullptr, {.max_vertices_per_cell = 8}).ok());
  EXPECT_FALSE(
      GridIndex::BuildAdaptive(&g, {.max_vertices_per_cell = 0}).ok());
  EXPECT_FALSE(GridIndex::BuildAdaptive(
                   &g, {.max_vertices_per_cell = 8,
                        .min_cell_size_meters = 0.0})
                   .ok());
}

TEST(AdaptiveIndexTest, PartitionsAllVerticesIntoBoundedLeaves) {
  GridCityOptions copts;
  copts.rows = 20;
  copts.cols = 20;
  copts.seed = 5;
  auto g = MakeGridCity(copts);
  ASSERT_TRUE(g.ok());
  auto index = GridIndex::BuildAdaptive(
      &*g, {.max_vertices_per_cell = 16, .min_cell_size_meters = 10.0});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->partition_kind(), GridIndex::PartitionKind::kQuadtree);

  std::size_t total = 0;
  for (const CellId cell : index->active_cells()) {
    const std::size_t count = index->CellVertices(cell).size();
    EXPECT_LE(count, 16u);
    EXPECT_GE(count, 1u);
    total += count;
    for (const VertexId v : index->CellVertices(cell)) {
      EXPECT_EQ(index->CellOfVertex(v), cell);
    }
  }
  EXPECT_EQ(total, g->num_vertices());
}

TEST(AdaptiveIndexTest, DensityAdaptsLeafCount) {
  // The ring-radial city is dense near the hub: an adaptive partition
  // should use far fewer cells than a uniform grid of the smallest leaf
  // size, while still keeping leaves small.
  RingRadialCityOptions copts;
  copts.rings = 14;
  copts.spokes = 28;
  auto g = MakeRingRadialCity(copts);
  ASSERT_TRUE(g.ok());
  auto adaptive = GridIndex::BuildAdaptive(
      &*g, {.max_vertices_per_cell = 24, .min_cell_size_meters = 20.0});
  ASSERT_TRUE(adaptive.ok());
  auto fine_uniform = GridIndex::Build(&*g, {.cell_size_meters = 220.0});
  ASSERT_TRUE(fine_uniform.ok());
  EXPECT_LT(adaptive->num_active_cells(), fine_uniform->num_active_cells());
  EXPECT_GT(adaptive->num_active_cells(), 4u);
}

class AdaptiveBoundsPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(AdaptiveBoundsPropertyTest, BoundsAreSound) {
  const auto [seed, max_per_cell] = GetParam();
  const RoadNetwork g = testing::MakeRandomConnectedGraph(60, 90, seed);
  const auto fw = testing::FloydWarshall(g);
  auto index = GridIndex::BuildAdaptive(
      &g, {.max_vertices_per_cell = static_cast<std::size_t>(max_per_cell),
           .min_cell_size_meters = 5.0});
  ASSERT_TRUE(index.ok());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const Distance exact = fw[u][v];
      EXPECT_LE(index->LowerBound(u, v), exact + 1e-9)
          << "u=" << u << " v=" << v;
      if (exact != kInfDistance) {
        EXPECT_GE(index->UpperBound(u, v), exact - 1e-9)
            << "u=" << u << " v=" << v;
      }
    }
  }
  for (VertexId u = 0; u < g.num_vertices(); u += 5) {
    for (const CellId cell : index->active_cells()) {
      Distance exact_min = kInfDistance;
      for (const VertexId w : index->CellVertices(cell)) {
        exact_min = std::min(exact_min, fw[u][w]);
      }
      EXPECT_LE(index->LowerBoundToCell(u, cell), exact_min + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndLeafSizes, AdaptiveBoundsPropertyTest,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(4, 16, 64)));

TEST(AdaptiveIndexTest, FullCoverageMatchersStayExact) {
  GridCityOptions copts;
  copts.rows = 12;
  copts.cols = 12;
  copts.seed = 21;
  auto g = MakeGridCity(copts);
  ASSERT_TRUE(g.ok());
  auto index = GridIndex::BuildAdaptive(
      &*g, {.max_vertices_per_cell = 12, .min_cell_size_meters = 20.0});
  ASSERT_TRUE(index.ok());

  WorkloadOptions wopts;
  wopts.num_requests = 40;
  wopts.duration_seconds = 800.0;
  wopts.epsilon = 0.5;
  wopts.waiting_minutes = 3.0;
  wopts.seed = 9;
  auto requests = GenerateWorkload(*g, wopts);
  ASSERT_TRUE(requests.ok());

  EngineOptions eopts;
  eopts.num_vehicles = 20;
  eopts.seed = 11;
  Engine engine(&*g, &*index, eopts);
  const RunStats stats = engine.RunPipelined(
      *requests, testing::FactoryOf<BaselineMatcher>(), nullptr,
      {testing::FactoryOf<SsaMatcher>(1.0),
       testing::FactoryOf<DsaMatcher>(1.0)});
  EXPECT_DOUBLE_EQ(stats.matchers[1].MeanPrecision(), 1.0);
  EXPECT_DOUBLE_EQ(stats.matchers[1].MeanRecall(), 1.0);
  EXPECT_DOUBLE_EQ(stats.matchers[2].MeanPrecision(), 1.0);
  EXPECT_DOUBLE_EQ(stats.matchers[2].MeanRecall(), 1.0);
  EXPECT_GT(stats.served, 30u);
}

TEST(AdaptiveIndexTest, CellListsSortedByLowerBound) {
  GridCityOptions copts;
  copts.rows = 14;
  copts.cols = 14;
  auto g = MakeGridCity(copts);
  ASSERT_TRUE(g.ok());
  auto index = GridIndex::BuildAdaptive(
      &*g, {.max_vertices_per_cell = 20, .min_cell_size_meters = 20.0});
  ASSERT_TRUE(index.ok());
  for (const CellId cell : index->active_cells()) {
    const auto list = index->CellsByDistance(cell);
    ASSERT_EQ(list.size(), index->num_active_cells());
    EXPECT_EQ(list[0], cell);
    for (std::size_t i = 0; i + 1 < list.size(); ++i) {
      EXPECT_LE(index->CellPairLowerBound(cell, list[i]),
                index->CellPairLowerBound(cell, list[i + 1]));
    }
  }
}

}  // namespace
}  // namespace ptar
