// Tests for the counting, caching distance oracle.

#include "graph/distance_oracle.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/ch_graph.h"
#include "graph/ch_preprocessor.h"
#include "graph/ch_query.h"
#include "graph/dijkstra.h"

#include "tests/test_util.h"

namespace ptar {
namespace {

TEST(DistanceOracleTest, ExactDistances) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DistanceOracle oracle(&g);
  EXPECT_DOUBLE_EQ(oracle.Dist(0, 8), 400.0);
  EXPECT_DOUBLE_EQ(oracle.Dist(0, 0), 0.0);
}

TEST(DistanceOracleTest, CountsOnlyRealComputations) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DistanceOracle oracle(&g);
  EXPECT_EQ(oracle.compdists(), 0u);
  oracle.Dist(0, 8);
  EXPECT_EQ(oracle.compdists(), 1u);
  oracle.Dist(0, 8);  // cache hit
  EXPECT_EQ(oracle.compdists(), 1u);
  oracle.Dist(8, 0);  // symmetric cache hit
  EXPECT_EQ(oracle.compdists(), 1u);
  oracle.Dist(1, 2);
  EXPECT_EQ(oracle.compdists(), 2u);
}

TEST(DistanceOracleTest, SameVertexIsFree) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DistanceOracle oracle(&g);
  EXPECT_DOUBLE_EQ(oracle.Dist(3, 3), 0.0);
  EXPECT_EQ(oracle.compdists(), 0u);
}

TEST(DistanceOracleTest, ClearCacheForcesRecount) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DistanceOracle oracle(&g);
  oracle.Dist(0, 8);
  oracle.ClearCache();
  oracle.Dist(0, 8);
  EXPECT_EQ(oracle.compdists(), 2u);
}

TEST(DistanceOracleTest, ResetStatsKeepsCache) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DistanceOracle oracle(&g);
  oracle.Dist(0, 8);
  oracle.ResetStats();
  EXPECT_EQ(oracle.compdists(), 0u);
  oracle.Dist(0, 8);  // still cached
  EXPECT_EQ(oracle.compdists(), 0u);
}

TEST(DistanceOracleTest, PathMatchesDistance) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(30, 50, 9);
  DistanceOracle oracle(&g);
  const std::vector<VertexId> path = oracle.Path(2, 21);
  ASSERT_GE(path.size(), 1u);
  EXPECT_EQ(path.front(), 2u);
  EXPECT_EQ(path.back(), 21u);
  const std::uint64_t before = oracle.compdists();
  const Distance d = oracle.Dist(2, 21);  // cached by Path
  EXPECT_EQ(oracle.compdists(), before);
  Distance sum = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    Distance best = kInfDistance;
    for (const Arc& a : g.OutArcs(path[i])) {
      if (a.head == path[i + 1]) best = std::min(best, a.weight);
    }
    sum += best;
  }
  EXPECT_NEAR(sum, d, 1e-9);
}

TEST(DistanceOracleTest, AgreesWithFloydWarshall) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(25, 35, 21);
  const auto fw = testing::FloydWarshall(g);
  DistanceOracle oracle(&g);
  for (VertexId a = 0; a < g.num_vertices(); a += 2) {
    for (VertexId b = 1; b < g.num_vertices(); b += 3) {
      EXPECT_NEAR(oracle.Dist(a, b), fw[a][b], 1e-9);
    }
  }
}

TEST(DistanceOracleTest, ClearCacheKeepsBucketCapacity) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(40, 60, 5);
  DistanceOracle oracle(&g);
  for (VertexId t = 1; t < g.num_vertices(); ++t) oracle.Dist(0, t);
  const std::size_t buckets = oracle.cache_bucket_count();
  EXPECT_GT(buckets, 0u);
  oracle.ClearCache();
  EXPECT_EQ(oracle.cache_size(), 0u);
  // Steady-state request processing must not rehash from scratch.
  EXPECT_EQ(oracle.cache_bucket_count(), buckets);
}

TEST(BatchDistTest, MatchesSerialDistBitForBit) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(50, 80, 17);
  DistanceOracle serial(&g);
  DistanceOracle batched(&g);
  const VertexId source = 23;
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < g.num_vertices(); t += 3) targets.push_back(t);
  std::vector<Distance> expected;
  for (const VertexId t : targets) expected.push_back(serial.Dist(source, t));
  std::vector<Distance> got;
  batched.BatchDist(source, targets, &got);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "i=" << i;  // exact bits, not NEAR
  }
  EXPECT_EQ(batched.compdists(), serial.compdists());
}

TEST(BatchDistTest, CountsEachUncachedPairOnce) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DistanceOracle oracle(&g);
  std::vector<Distance> out;
  // 5 requested pairs: one duplicate, one source==target.
  const std::vector<VertexId> targets = {8, 2, 8, 0, 6};
  oracle.BatchDist(0, targets, &out);
  EXPECT_EQ(oracle.compdists(), 3u);  // {8, 2, 6}
  EXPECT_DOUBLE_EQ(out[3], 0.0);
  EXPECT_EQ(out[0], out[2]);
  EXPECT_EQ(oracle.batch_stats().sweeps, 1u);
  EXPECT_EQ(oracle.batch_stats().pairs_swept, 3u);
  // Re-batching the same targets is all cache hits: no sweep, no count.
  oracle.BatchDist(0, targets, &out);
  EXPECT_EQ(oracle.compdists(), 3u);
  EXPECT_EQ(oracle.batch_stats().sweeps, 1u);
}

TEST(BatchDistTest, MixedCachedAndUncached) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DistanceOracle oracle(&g);
  const Distance d8 = oracle.Dist(0, 8);
  EXPECT_EQ(oracle.compdists(), 1u);
  std::vector<Distance> out;
  const std::vector<VertexId> targets = {8, 4, 2};
  oracle.BatchDist(0, targets, &out);
  EXPECT_EQ(out[0], d8);  // served from cache, identical bits
  EXPECT_DOUBLE_EQ(out[1], 200.0);
  EXPECT_DOUBLE_EQ(out[2], 200.0);
  EXPECT_EQ(oracle.compdists(), 3u);
  EXPECT_EQ(oracle.batch_stats().pairs_from_cache, 1u);
}

TEST(BatchDistTest, UnreachableTargetIsInfinity) {
  RoadNetwork::Builder b;
  b.AddVertex(Coord{0, 0});
  b.AddVertex(Coord{1, 0});
  b.AddVertex(Coord{2, 0});
  b.AddEdge(0, 1, 1.0);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  DistanceOracle oracle(&*g);
  std::vector<Distance> out;
  const std::vector<VertexId> targets = {1, 2};
  oracle.BatchDist(0, targets, &out);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], kInfDistance);
  EXPECT_EQ(oracle.compdists(), 2u);  // unreachable still counts, like Dist
  EXPECT_EQ(oracle.Dist(0, 2), kInfDistance);
  EXPECT_EQ(oracle.compdists(), 2u);  // ... and is cached
}

// --- Request rows ----------------------------------------------------------

TEST(RowTest, DijkstraRowsMatchPointToPointBits) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(50, 80, 17);
  DijkstraEngine engine(&g);
  const VertexId s = 23;
  const VertexId d = 41;
  DistanceOracle oracle(&g);
  oracle.BeginRequest(s, d);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const Distance from_s = engine.PointToPoint(s, v);
    EXPECT_EQ(oracle.Dist(s, v), from_s) << "v=" << v;  // exact bits
    EXPECT_EQ(oracle.Dist(v, s), from_s) << "v=" << v;
    if (v == s) continue;  // (d, s) is s's row
    EXPECT_EQ(oracle.Dist(d, v), engine.PointToPoint(d, v)) << "v=" << v;
  }
  // Both directions of (s, d) read s's row: the value of the s -> d search.
  EXPECT_EQ(oracle.Dist(d, s), engine.PointToPoint(s, d));
  EXPECT_EQ(oracle.batch_stats().sweeps, 2u);
}

TEST(RowTest, CountsOnlyOnUse) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DistanceOracle oracle(&g);
  oracle.BeginRequest(0, 8);
  EXPECT_EQ(oracle.compdists(), 0u);  // anchoring computes nothing
  EXPECT_EQ(oracle.batch_stats().sweeps, 0u);
  EXPECT_DOUBLE_EQ(oracle.Dist(4, 0), 200.0);
  EXPECT_EQ(oracle.compdists(), 1u);
  EXPECT_EQ(oracle.batch_stats().sweeps, 1u);  // s's row, filled on use
  EXPECT_DOUBLE_EQ(oracle.Dist(0, 4), 200.0);  // same pair: free
  EXPECT_DOUBLE_EQ(oracle.Dist(0, 8), 400.0);
  EXPECT_DOUBLE_EQ(oracle.Dist(8, 0), 400.0);
  EXPECT_DOUBLE_EQ(oracle.Dist(2, 8), 200.0);  // d's row
  EXPECT_DOUBLE_EQ(oracle.Dist(8, 2), 200.0);
  EXPECT_DOUBLE_EQ(oracle.Dist(1, 2), 100.0);  // neither endpoint: memo
  EXPECT_DOUBLE_EQ(oracle.Dist(2, 1), 100.0);
  // Distinct pairs read: {0,4}, {0,8}, {8,2}, {1,2}. Pairs never read are
  // never counted.
  EXPECT_EQ(oracle.compdists(), 4u);
  EXPECT_EQ(oracle.batch_stats().warm_hits, 3u);
  EXPECT_EQ(oracle.batch_stats().sweeps, 2u);
  // A new request starts the count over.
  oracle.BeginRequest(0, 8);
  oracle.Dist(4, 0);
  EXPECT_EQ(oracle.compdists(), 5u);
}

TEST(RowTest, RowValueMatchesFreshSweepBits) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(40, 70, 9);
  DistanceOracle rowed(&g);
  DistanceOracle batched(&g);
  const VertexId source = 11;
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < g.num_vertices(); t += 2) targets.push_back(t);
  rowed.BeginRequest(source, 3);
  std::vector<Distance> direct;
  batched.BatchDist(source, targets, &direct);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(rowed.Dist(targets[i], source), direct[i]) << "i=" << i;
  }
  EXPECT_EQ(rowed.compdists(), batched.compdists());
}

TEST(RowTest, BatchDistReadsTheRows) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DistanceOracle oracle(&g);
  oracle.BeginRequest(0, 8);
  std::vector<Distance> out;
  oracle.BatchDist(0, std::vector<VertexId>{4, 4, 8, 0}, &out);
  EXPECT_DOUBLE_EQ(out[0], 200.0);
  EXPECT_EQ(out[0], out[1]);
  EXPECT_DOUBLE_EQ(out[2], 400.0);
  EXPECT_DOUBLE_EQ(out[3], 0.0);
  EXPECT_EQ(oracle.compdists(), 2u);  // {0,4}, {0,8}
  EXPECT_EQ(oracle.batch_stats().sweeps, 1u);
  EXPECT_EQ(oracle.batch_stats().pairs_swept, 0u);
  oracle.Dist(4, 0);  // already read through the batch
  EXPECT_EQ(oracle.compdists(), 2u);
}

TEST(RowTest, CHRowsMatchBidirectionalPointToPoint) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(80, 130, 37);
  const CHGraph ch = CHPreprocessor(CHPreprocessorOptions{}).Build(g);
  CHQuery query(&ch);
  DistanceOracle oracle(&g, &ch);
  const VertexId s = 5;
  const VertexId d = 62;
  oracle.BeginRequest(s, d);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId anchor : {s, d}) {
      const Distance want = query.PointToPoint(anchor, v);
      EXPECT_NEAR(oracle.Dist(v, anchor), want, 1e-9 * want) << "v=" << v;
    }
  }
  EXPECT_EQ(oracle.batch_stats().sweeps, 2u);
  EXPECT_EQ(oracle.compdists(), 2 * (g.num_vertices() - 1) - 1);
}

TEST(RowTest, FaultHookRunsOncePerPairReadAndFailedPairsStayInfinite) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DistanceOracle oracle(&g);
  std::vector<std::pair<VertexId, VertexId>> calls;
  oracle.SetFaultHook([&calls](VertexId a, VertexId b) {
    calls.emplace_back(a, b);
    return b == 4;  // fail every pair ending at the center
  });
  oracle.BeginRequest(0, 8);
  EXPECT_TRUE(calls.empty());  // nothing read yet
  EXPECT_DOUBLE_EQ(oracle.Dist(2, 0), 200.0);
  EXPECT_EQ(oracle.Dist(4, 0), kInfDistance);
  EXPECT_EQ(oracle.Dist(0, 4), kInfDistance);  // stays failed, no re-check
  EXPECT_DOUBLE_EQ(oracle.Dist(0, 2), 200.0);
  EXPECT_EQ(oracle.Dist(8, 4), kInfDistance);
  const std::vector<std::pair<VertexId, VertexId>> want = {
      {0, 2}, {0, 4}, {8, 4}};
  EXPECT_EQ(calls, want);  // (anchor, v), first reads only
  EXPECT_EQ(oracle.faults(), 2u);
  EXPECT_EQ(oracle.compdists(), 3u);
  // The next request computes afresh: the failure was per request.
  oracle.SetFaultHook(nullptr);
  oracle.BeginRequest(0, 8);
  EXPECT_DOUBLE_EQ(oracle.Dist(4, 0), 200.0);
}

TEST(RowTest, UnreachedVerticesReadInfinityWithoutTheHook) {
  RoadNetwork::Builder b;
  for (int i = 0; i < 3; ++i) b.AddVertex(Coord{100.0 * i, 0.0});
  b.AddEdge(0, 1, 1.0);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  DistanceOracle oracle(&*g);
  int hook_calls = 0;
  oracle.SetFaultHook([&hook_calls](VertexId, VertexId) {
    ++hook_calls;
    return false;
  });
  oracle.BeginRequest(0, 1);
  EXPECT_EQ(oracle.Dist(2, 0), kInfDistance);
  EXPECT_EQ(oracle.compdists(), 1u);  // unreachable still counts
  EXPECT_EQ(hook_calls, 0);
  EXPECT_DOUBLE_EQ(oracle.Dist(0, 1), 1.0);
  EXPECT_EQ(hook_calls, 1);
}

TEST(RowTest, ClearCacheDropsAnchors) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(40, 70, 9);
  DijkstraEngine engine(&g);
  DistanceOracle oracle(&g);
  oracle.BeginRequest(11, 3);
  oracle.Dist(11, 20);
  oracle.ClearCache();
  const BatchStats before = oracle.batch_stats();
  // A point-to-point search in the asked direction, not a row read.
  EXPECT_EQ(oracle.Dist(20, 11), engine.PointToPoint(20, 11));
  EXPECT_EQ(oracle.Dist(3, 7), engine.PointToPoint(3, 7));
  EXPECT_EQ(oracle.compdists(), 3u);
  EXPECT_EQ(oracle.batch_stats().sweeps, before.sweeps);
  EXPECT_EQ(oracle.batch_stats().warm_hits, before.warm_hits);
}

TEST(RowTest, StartOnlyRequestFillsOneRow) {
  // The grid-scan shape: dist(s, d) plus pickups dist(l, s) never touch
  // d's row.
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DistanceOracle oracle(&g);
  oracle.BeginRequest(0, 8);
  oracle.Dist(0, 8);
  for (const VertexId l : {2, 4, 6, 7}) oracle.Dist(l, 0);
  EXPECT_EQ(oracle.batch_stats().sweeps, 1u);
  EXPECT_EQ(oracle.compdists(), 5u);
}

// --- Legs carried between oracles -----------------------------------------

TEST(RowTest, ExportedLegsEqualDistBits) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(80, 130, 37);
  const CHGraph ch = CHPreprocessor(CHPreprocessorOptions{}).Build(g);
  const VertexId s = 5;
  const VertexId d = 62;
  for (const CHGraph* backend : {static_cast<const CHGraph*>(nullptr), &ch}) {
    DistanceOracle oracle(&g, backend);
    oracle.BeginRequest(s, d);
    oracle.Dist(s, 1);
    oracle.Dist(1, d);  // both rows filled
    const std::uint64_t compdists = oracle.compdists();
    const BatchStats before = oracle.batch_stats();
    const RequestLegs legs = oracle.ExportLegs({40, 7, d, 7, 19, 1});
    // The export neither counts nor searches.
    EXPECT_EQ(oracle.compdists(), compdists);
    EXPECT_EQ(oracle.batch_stats().warm_hits, before.warm_hits);
    EXPECT_EQ(oracle.batch_stats().sweeps, before.sweeps);
    EXPECT_EQ(legs.s, s);
    EXPECT_EQ(legs.d, d);
    const std::vector<VertexId> want_at = {1, 7, 19, 40, d};
    ASSERT_EQ(legs.at, want_at);
    ASSERT_EQ(legs.dist[0].size(), want_at.size());
    ASSERT_EQ(legs.dist[1].size(), want_at.size());
    for (std::size_t i = 0; i < legs.at.size(); ++i) {
      const VertexId v = legs.at[i];
      EXPECT_EQ(legs.dist[0][i], oracle.Dist(v, s)) << "v=" << v;  // bits
      if (v != d) {
        EXPECT_EQ(legs.dist[1][i], oracle.Dist(d, v)) << "v=" << v;
      }
    }
  }
}

TEST(RowTest, UnfilledRowExportsNothing) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DistanceOracle oracle(&g);
  oracle.BeginRequest(0, 8);
  const RequestLegs none = oracle.ExportLegs({2, 4});
  EXPECT_TRUE(none.at.empty());
  EXPECT_TRUE(none.dist[0].empty());
  EXPECT_TRUE(none.dist[1].empty());
  oracle.Dist(4, 0);  // s's row only
  const RequestLegs legs = oracle.ExportLegs({2, 4});
  EXPECT_EQ(legs.at.size(), 2u);
  EXPECT_EQ(legs.dist[0].size(), 2u);
  EXPECT_TRUE(legs.dist[1].empty());
  EXPECT_EQ(oracle.batch_stats().sweeps, 1u);
}

TEST(RowTest, HookedOracleExportsNothing) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DistanceOracle oracle(&g);
  int hook_calls = 0;
  oracle.SetFaultHook([&hook_calls](VertexId, VertexId) {
    ++hook_calls;
    return false;
  });
  oracle.BeginRequest(0, 8);
  oracle.Dist(4, 0);
  oracle.Dist(4, 8);  // both rows filled, no pair failed
  const RequestLegs legs = oracle.ExportLegs({2, 4, 8});
  EXPECT_TRUE(legs.at.empty());
  EXPECT_TRUE(legs.dist[0].empty());
  EXPECT_TRUE(legs.dist[1].empty());
  EXPECT_EQ(hook_calls, 2);  // the two reads; the export asks nothing
}

TEST(RowTest, ImportedLegsServeTheirPairsWithoutAFill) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(50, 80, 17);
  const VertexId s = 23;
  const VertexId d = 41;
  DistanceOracle matcher(&g);
  matcher.BeginRequest(s, d);
  matcher.Dist(s, 3);
  matcher.Dist(3, d);
  const RequestLegs legs = matcher.ExportLegs({3, 9, d});

  DistanceOracle importer(&g);
  importer.BeginRequest(s, d, legs);
  EXPECT_EQ(importer.Dist(s, d), matcher.Dist(s, d));  // s's row at d
  EXPECT_EQ(importer.Dist(9, s), matcher.Dist(s, 9));
  EXPECT_EQ(importer.Dist(3, d), matcher.Dist(d, 3));
  EXPECT_EQ(importer.Dist(d, 9), matcher.Dist(9, d));
  EXPECT_EQ(importer.Dist(d, s), matcher.Dist(s, d));  // read again: free
  EXPECT_EQ(importer.batch_stats().sweeps, 0u);
  EXPECT_EQ(importer.compdists(), 4u);
  EXPECT_EQ(importer.batch_stats().warm_hits, 4u);
  // A pair outside the legs fills its row, with the exporter's bits.
  EXPECT_EQ(importer.Dist(s, 30), matcher.Dist(30, s));
  EXPECT_EQ(importer.batch_stats().sweeps, 1u);
  EXPECT_EQ(importer.Dist(9, s), matcher.Dist(s, 9));
  EXPECT_EQ(importer.compdists(), 5u);
  EXPECT_EQ(importer.Dist(30, d), matcher.Dist(d, 30));
  EXPECT_EQ(importer.batch_stats().sweeps, 2u);
  // The next request imports nothing.
  importer.BeginRequest(s, d);
  importer.Dist(s, 9);
  EXPECT_EQ(importer.batch_stats().sweeps, 3u);
}

TEST(RowTest, FaultHookSeesImportedPairsAndFailuresOutliveTheFill) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DistanceOracle matcher(&g);
  matcher.BeginRequest(0, 8);
  matcher.Dist(0, 4);
  const RequestLegs legs = matcher.ExportLegs({2, 4});

  DistanceOracle importer(&g);
  std::vector<std::pair<VertexId, VertexId>> calls;
  importer.SetFaultHook([&calls](VertexId a, VertexId b) {
    calls.emplace_back(a, b);
    return b == 4;
  });
  importer.BeginRequest(0, 8, legs);
  EXPECT_EQ(importer.Dist(4, 0), kInfDistance);
  EXPECT_DOUBLE_EQ(importer.Dist(0, 2), 200.0);
  EXPECT_EQ(importer.batch_stats().sweeps, 0u);
  EXPECT_DOUBLE_EQ(importer.Dist(0, 6), 200.0);  // outside: fills s's row
  EXPECT_EQ(importer.batch_stats().sweeps, 1u);
  EXPECT_EQ(importer.Dist(0, 4), kInfDistance);  // still failed
  const std::vector<std::pair<VertexId, VertexId>> want = {
      {0, 4}, {0, 2}, {0, 6}};
  EXPECT_EQ(calls, want);
  EXPECT_EQ(importer.faults(), 1u);
}

}  // namespace
}  // namespace ptar
