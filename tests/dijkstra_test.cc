// Tests for the Dijkstra engine, including a randomized property sweep
// against a Floyd-Warshall oracle.

#include "graph/dijkstra.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ptar {
namespace {

TEST(DijkstraTest, TrivialSameVertex) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DijkstraEngine engine(&g);
  EXPECT_DOUBLE_EQ(engine.PointToPoint(4, 4), 0.0);
}

TEST(DijkstraTest, GridDistances) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  EXPECT_DOUBLE_EQ(engine.PointToPoint(0, 8), 400.0);  // corner to corner
  EXPECT_DOUBLE_EQ(engine.PointToPoint(0, 4), 200.0);
  EXPECT_DOUBLE_EQ(engine.PointToPoint(3, 5), 200.0);
}

TEST(DijkstraTest, UnreachableReturnsInfinity) {
  RoadNetwork::Builder b;
  b.AddVertex(Coord{0, 0});
  b.AddVertex(Coord{1, 0});
  b.AddVertex(Coord{2, 0});
  b.AddEdge(0, 1, 1.0);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  DijkstraEngine engine(&*g);
  EXPECT_EQ(engine.PointToPoint(0, 2), kInfDistance);
}

TEST(DijkstraTest, SingleSourceMatchesPointToPoint) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(40, 60, 3);
  DijkstraEngine full(&g);
  DijkstraEngine p2p(&g);
  full.SingleSource(0);
  // Snapshot before p2p runs invalidate nothing (separate engines).
  for (VertexId t = 0; t < g.num_vertices(); ++t) {
    EXPECT_DOUBLE_EQ(full.Dist(t), p2p.PointToPoint(0, t)) << "t=" << t;
  }
}

TEST(DijkstraTest, PathReconstructionIsConsistent) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(30, 40, 11);
  DijkstraEngine engine(&g);
  const Distance d = engine.PointToPoint(0, 17);
  const std::vector<VertexId> path = engine.PathTo(17);
  ASSERT_GE(path.size(), 1u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 17u);
  // Sum of edge weights along the path equals the reported distance.
  Distance sum = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    Distance best = kInfDistance;
    for (const Arc& a : g.OutArcs(path[i])) {
      if (a.head == path[i + 1]) best = std::min(best, a.weight);
    }
    ASSERT_NE(best, kInfDistance);
    sum += best;
  }
  EXPECT_NEAR(sum, d, 1e-9);
}

TEST(DijkstraTest, PathToUnreachedIsEmpty) {
  RoadNetwork::Builder b;
  b.AddVertex(Coord{0, 0});
  b.AddVertex(Coord{1, 0});
  b.AddVertex(Coord{2, 0});
  b.AddEdge(0, 1, 1.0);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  DijkstraEngine engine(&*g);
  engine.PointToPoint(0, 2);
  EXPECT_TRUE(engine.PathTo(2).empty());
}

TEST(DijkstraTest, TargetsStopEarlyButAreExact) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(60, 80, 5);
  DijkstraEngine engine(&g);
  DijkstraEngine reference(&g);
  reference.SingleSource(3);
  const std::vector<VertexId> targets = {7, 19, 42};
  engine.SingleSourceToTargets(3, targets);
  for (const VertexId t : targets) {
    EXPECT_DOUBLE_EQ(engine.Dist(t), reference.Dist(t));
    EXPECT_TRUE(engine.Settled(t));
  }
}

TEST(DijkstraTest, TargetsWithDuplicates) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DijkstraEngine engine(&g);
  const std::vector<VertexId> targets = {8, 8, 8};
  engine.SingleSourceToTargets(0, targets);
  EXPECT_DOUBLE_EQ(engine.Dist(8), 400.0);
}

TEST(DijkstraTest, TargetsDisconnectedAreInfinity) {
  RoadNetwork::Builder b;
  b.AddVertex(Coord{0, 0});
  b.AddVertex(Coord{1, 0});
  b.AddVertex(Coord{2, 0});  // isolated
  b.AddVertex(Coord{3, 0});  // isolated
  b.AddEdge(0, 1, 5.0);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  DijkstraEngine engine(&*g);
  // The run must terminate (heap exhaustion) even though two targets can
  // never be settled, and reachable targets must still be exact.
  const std::vector<VertexId> targets = {1, 2, 3};
  engine.SingleSourceToTargets(0, targets);
  EXPECT_DOUBLE_EQ(engine.Dist(1), 5.0);
  EXPECT_TRUE(engine.Settled(1));
  EXPECT_EQ(engine.Dist(2), kInfDistance);
  EXPECT_FALSE(engine.Settled(2));
  EXPECT_EQ(engine.Dist(3), kInfDistance);
  EXPECT_FALSE(engine.Settled(3));
}

TEST(DijkstraTest, TargetsContainingSource) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  const std::vector<VertexId> targets = {0, 8};
  engine.SingleSourceToTargets(0, targets);
  EXPECT_DOUBLE_EQ(engine.Dist(0), 0.0);
  EXPECT_TRUE(engine.Settled(0));
  EXPECT_DOUBLE_EQ(engine.Dist(8), 400.0);
  EXPECT_TRUE(engine.Settled(8));
}

TEST(DijkstraTest, TargetsOnlySource) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  const std::vector<VertexId> targets = {4, 4};
  engine.SingleSourceToTargets(4, targets);
  EXPECT_DOUBLE_EQ(engine.Dist(4), 0.0);
  EXPECT_TRUE(engine.Settled(4));
  // A later unrelated run must not be confused by the degenerate one.
  engine.SingleSourceToTargets(0, std::vector<VertexId>{8});
  EXPECT_DOUBLE_EQ(engine.Dist(8), 400.0);
}

TEST(DijkstraTest, TargetsMixedDuplicatesSourceAndUnreachable) {
  RoadNetwork::Builder b;
  for (int i = 0; i < 5; ++i) b.AddVertex(Coord{double(i), 0});
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 2.0);
  b.AddEdge(3, 4, 1.0);  // separate component
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  DijkstraEngine engine(&*g);
  const std::vector<VertexId> targets = {2, 0, 2, 4, 0, 4};
  engine.SingleSourceToTargets(0, targets);
  EXPECT_DOUBLE_EQ(engine.Dist(0), 0.0);
  EXPECT_DOUBLE_EQ(engine.Dist(2), 3.0);
  EXPECT_EQ(engine.Dist(4), kInfDistance);
}

TEST(DijkstraTest, TargetsMatchBitIdenticalPointToPoint) {
  // The batched distance engine relies on a sweep settling every target
  // with exactly the value an early-terminated point-to-point run reports.
  const RoadNetwork g = testing::MakeRandomConnectedGraph(60, 90, 29);
  DijkstraEngine sweep(&g);
  DijkstraEngine p2p(&g);
  const VertexId source = 31;
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < g.num_vertices(); t += 4) targets.push_back(t);
  sweep.SingleSourceToTargets(source, targets);
  std::vector<Distance> swept;
  swept.reserve(targets.size());
  for (const VertexId t : targets) swept.push_back(sweep.Dist(t));
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Distance direct = p2p.PointToPoint(source, targets[i]);
    EXPECT_EQ(swept[i], direct) << "t=" << targets[i];  // exact bits
  }
}

TEST(DijkstraTest, MultiSourceMinimum) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  const std::vector<DijkstraSource> sources = {{0, 0.0, 1}, {8, 0.0, 2}};
  engine.MultiSource(sources);
  // Vertex 1 is 100 from source 0 and 300 from source 8.
  EXPECT_DOUBLE_EQ(engine.Dist(1), 100.0);
  EXPECT_EQ(engine.SourceLabel(1), 1u);
  EXPECT_DOUBLE_EQ(engine.Dist(7), 100.0);
  EXPECT_EQ(engine.SourceLabel(7), 2u);
}

TEST(DijkstraTest, MultiSourceOffsets) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  // Source 0 handicapped by 500: source 8 wins everywhere.
  const std::vector<DijkstraSource> sources = {{0, 500.0, 1}, {8, 0.0, 2}};
  engine.MultiSource(sources);
  EXPECT_EQ(engine.SourceLabel(0), 2u);
  EXPECT_DOUBLE_EQ(engine.Dist(0), 400.0);
}

TEST(DijkstraTest, ReuseAcrossManyRuns) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(25, 30, 17);
  DijkstraEngine engine(&g);
  DijkstraEngine reference(&g);
  const auto fw = testing::FloydWarshall(g);
  // Interleave run types to exercise the stamp machinery.
  for (int round = 0; round < 50; ++round) {
    const VertexId s = round % g.num_vertices();
    const VertexId t = (round * 7 + 3) % g.num_vertices();
    EXPECT_NEAR(engine.PointToPoint(s, t), fw[s][t], 1e-9);
    engine.SingleSource(t);
    EXPECT_NEAR(engine.Dist(s), fw[t][s], 1e-9);
  }
}

TEST(DijkstraTest, MultiSourceWithNoSourcesReachesNothing) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DijkstraEngine engine(&g);
  engine.MultiSource({});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(engine.Dist(v), kInfDistance);
    EXPECT_FALSE(engine.Settled(v));
  }
}

TEST(DijkstraTest, SettledCountTracksWork) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  engine.SingleSource(0);
  EXPECT_EQ(engine.last_settled_count(), g.num_vertices());
  engine.PointToPoint(0, 1);  // adjacent: stops early
  EXPECT_LT(engine.last_settled_count(), g.num_vertices());
}

TEST(DijkstraTest, ParallelEdgesUseTheCheapest) {
  RoadNetwork::Builder b;
  b.AddVertex(Coord{0, 0});
  b.AddVertex(Coord{1, 0});
  b.AddEdge(0, 1, 10.0);
  b.AddEdge(0, 1, 3.0);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  DijkstraEngine engine(&*g);
  EXPECT_DOUBLE_EQ(engine.PointToPoint(0, 1), 3.0);
}

// Property sweep: Dijkstra (all variants) vs. Floyd-Warshall on random
// connected graphs of varying density.
class DijkstraPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(DijkstraPropertyTest, MatchesFloydWarshall) {
  const auto [n, extra, seed] = GetParam();
  const RoadNetwork g = testing::MakeRandomConnectedGraph(n, extra, seed);
  const auto fw = testing::FloydWarshall(g);
  DijkstraEngine engine(&g);
  for (VertexId s = 0; s < g.num_vertices(); s += 3) {
    engine.SingleSource(s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      EXPECT_NEAR(engine.Dist(t), fw[s][t], 1e-9)
          << "s=" << s << " t=" << t;
    }
  }
  for (VertexId s = 1; s < g.num_vertices(); s += 7) {
    for (VertexId t = 0; t < g.num_vertices(); t += 5) {
      EXPECT_NEAR(engine.PointToPoint(s, t), fw[s][t], 1e-9)
          << "s=" << s << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, DijkstraPropertyTest,
    ::testing::Values(std::make_tuple(15, 0, 1),    // tree
                      std::make_tuple(20, 10, 2),   // sparse
                      std::make_tuple(25, 60, 3),   // dense
                      std::make_tuple(40, 40, 4),
                      std::make_tuple(50, 120, 5),
                      std::make_tuple(30, 30, 6),
                      std::make_tuple(35, 200, 7)));  // very dense

}  // namespace
}  // namespace ptar
