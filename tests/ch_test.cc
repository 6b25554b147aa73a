// Contraction-hierarchy backend tests: preprocessing invariants, randomized
// point-to-point and one-to-many parity against Dijkstra across seeds and
// both city generators, path unpacking validity, disconnected graphs and
// degenerate inputs, oracle-level backend parity (identical compdists and
// BatchStats), and thread-count determinism of the engine on the CH backend.
//
// Parity against Dijkstra uses EXPECT_NEAR with a 1e-6 tolerance: a CH
// distance is the same real-number sum as the Dijkstra distance but the
// floating-point additions may associate differently along shortcuts.
// Parity between CH one-to-many and one-to-all is exact (==): both read the
// same downward sweep.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "graph/ch_graph.h"
#include "graph/ch_preprocessor.h"
#include "graph/ch_query.h"
#include "graph/dijkstra.h"
#include "graph/distance_oracle.h"
#include "graph/generators.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "tests/test_util.h"

namespace ptar {
namespace {

constexpr double kTol = 1e-6;

CHGraph BuildCH(const RoadNetwork& g) {
  return CHPreprocessor(CHPreprocessorOptions{}).Build(g);
}

std::vector<VertexId> SampleVertices(const RoadNetwork& g, std::size_t n,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<VertexId>(
        rng.UniformInt(0, static_cast<int>(g.num_vertices()) - 1)));
  }
  return out;
}

void ExpectPointToPointParity(const RoadNetwork& g, std::uint64_t seed,
                              std::size_t pairs = 50) {
  const CHGraph ch = BuildCH(g);
  CHQuery query(&ch);
  DijkstraEngine dijkstra(&g);
  const std::vector<VertexId> a = SampleVertices(g, pairs, seed);
  const std::vector<VertexId> b =
      SampleVertices(g, pairs, testing::DeriveSeed(seed, 1));
  for (std::size_t i = 0; i < pairs; ++i) {
    SCOPED_TRACE("pair " + std::to_string(a[i]) + "->" + std::to_string(b[i]));
    const Distance want = dijkstra.PointToPoint(a[i], b[i]);
    const Distance got = query.PointToPoint(a[i], b[i]);
    ASSERT_TRUE(std::isfinite(want));
    EXPECT_NEAR(got, want, kTol);
  }
}

void ExpectOneToManyParity(const RoadNetwork& g, std::uint64_t seed,
                           std::size_t targets = 40) {
  const CHGraph ch = BuildCH(g);
  CHQuery query(&ch);
  DijkstraEngine dijkstra(&g);
  const VertexId source = SampleVertices(g, 1, seed)[0];
  // A batch including duplicates and the source.
  std::vector<VertexId> ts =
      SampleVertices(g, targets, testing::DeriveSeed(seed, 2));
  ts.push_back(source);
  ts.push_back(ts.front());
  std::vector<Distance> got(ts.size(), -1.0);
  query.OneToMany(source, ts, got);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    SCOPED_TRACE("sweep target " + std::to_string(ts[i]));
    EXPECT_NEAR(got[i], dijkstra.PointToPoint(source, ts[i]), kTol);
    // Sweep sums associate top-down, the bidirectional query fwd+bwd, so
    // parity with PointToPoint is NEAR, not bitwise.
    EXPECT_NEAR(got[i], query.PointToPoint(source, ts[i]), kTol);
  }
  // One-to-all reads the same sweep: bitwise equal to one-to-many at every
  // target, vertex-indexed, 0 at the source.
  std::vector<Distance> all(g.num_vertices(), -1.0);
  query.OneToAll(source, all);
  EXPECT_EQ(all[source], 0.0);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(all[ts[i]], got[i]) << "target " << ts[i];
  }
}

TEST(CHPreprocessorTest, RanksAreAPermutation) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(60, 90, 5);
  const CHGraph ch = BuildCH(g);
  std::vector<char> seen(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_LT(ch.rank(v), g.num_vertices());
    EXPECT_FALSE(seen[ch.rank(v)]);
    seen[ch.rank(v)] = 1;
  }
  EXPECT_EQ(ch.num_arcs(), g.num_edges() + ch.num_shortcuts());
  EXPECT_GT(ch.MemoryBytes(), 0u);
}

TEST(CHPreprocessorTest, UpwardArcsPointUpward) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(50, 80, 11);
  const CHGraph ch = BuildCH(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const CHGraph::UpArc& arc : ch.UpArcs(v)) {
      EXPECT_GT(ch.rank(arc.head), ch.rank(v));
    }
  }
}

TEST(CHPreprocessorTest, DeterministicAcrossRebuilds) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(40, 70, 21);
  const CHGraph ch1 = BuildCH(g);
  const CHGraph ch2 = BuildCH(g);
  EXPECT_EQ(ch1.num_shortcuts(), ch2.num_shortcuts());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(ch1.rank(v), ch2.rank(v));
  }
}

TEST(CHQueryTest, SmallGridExact) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  const CHGraph ch = BuildCH(g);
  CHQuery query(&ch);
  EXPECT_DOUBLE_EQ(query.PointToPoint(0, 8), 400.0);
  EXPECT_DOUBLE_EQ(query.PointToPoint(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(query.PointToPoint(8, 0), 400.0);
}

TEST(CHQueryTest, PointToPointParityRandomGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectPointToPointParity(
        testing::MakeRandomConnectedGraph(80, 140, seed), seed);
  }
}

TEST(CHQueryTest, PointToPointParityGridCity) {
  for (std::uint64_t seed : {7u, 8u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GridCityOptions opts;
    opts.rows = 15;
    opts.cols = 15;
    opts.seed = seed;
    auto g = MakeGridCity(opts);
    ASSERT_TRUE(g.ok());
    ExpectPointToPointParity(g.value(), seed);
  }
}

TEST(CHQueryTest, PointToPointParityRingRadialCity) {
  for (std::uint64_t seed : {9u, 10u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RingRadialCityOptions opts;
    opts.rings = 8;
    opts.spokes = 16;
    opts.seed = seed;
    auto g = MakeRingRadialCity(opts);
    ASSERT_TRUE(g.ok());
    ExpectPointToPointParity(g.value(), seed);
  }
}

TEST(CHQueryTest, OneToManyParityBothGenerators) {
  GridCityOptions gopts;
  gopts.rows = 14;
  gopts.cols = 14;
  gopts.seed = 17;
  auto grid = MakeGridCity(gopts);
  ASSERT_TRUE(grid.ok());
  ExpectOneToManyParity(grid.value(), 17);

  RingRadialCityOptions ropts;
  ropts.rings = 7;
  ropts.spokes = 14;
  ropts.seed = 18;
  auto ring = MakeRingRadialCity(ropts);
  ASSERT_TRUE(ring.ok());
  ExpectOneToManyParity(ring.value(), 18);

  ExpectOneToManyParity(testing::MakeRandomConnectedGraph(90, 150, 19), 19);
}

TEST(CHQueryTest, PathUnpacksToOriginalEdges) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(70, 120, 29);
  const CHGraph ch = BuildCH(g);
  CHQuery query(&ch);
  DijkstraEngine dijkstra(&g);
  const std::vector<VertexId> a = SampleVertices(g, 25, 101);
  const std::vector<VertexId> b = SampleVertices(g, 25, 102);
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(a[i]) + "->" + std::to_string(b[i]));
    Distance dist = -1.0;
    const std::vector<VertexId> path = query.Path(a[i], b[i], &dist);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), a[i]);
    EXPECT_EQ(path.back(), b[i]);
    // Every hop is an original edge and the hop weights sum to the distance.
    Distance total = 0.0;
    for (std::size_t k = 0; k + 1 < path.size(); ++k) {
      Distance best_hop = kInfDistance;
      for (const auto& arc : g.OutArcs(path[k])) {
        if (arc.head == path[k + 1]) best_hop = std::min(best_hop, arc.weight);
      }
      ASSERT_LT(best_hop, kInfDistance)
          << "hop " << path[k] << "->" << path[k + 1] << " is not an edge";
      total += best_hop;
    }
    EXPECT_NEAR(total, dist, kTol);
    EXPECT_NEAR(dist, dijkstra.PointToPoint(a[i], b[i]), kTol);
  }
}

TEST(CHQueryTest, DisconnectedGraph) {
  // Two triangles with no connection between them.
  RoadNetwork::Builder b;
  for (int i = 0; i < 6; ++i) b.AddVertex(Coord{100.0 * i, 0.0});
  b.AddEdge(0, 1, 10.0);
  b.AddEdge(1, 2, 10.0);
  b.AddEdge(0, 2, 15.0);
  b.AddEdge(3, 4, 10.0);
  b.AddEdge(4, 5, 10.0);
  b.AddEdge(3, 5, 15.0);
  auto built = std::move(b).Build();
  ASSERT_TRUE(built.ok());
  const RoadNetwork g = std::move(built).value();
  const CHGraph ch = BuildCH(g);
  CHQuery query(&ch);
  EXPECT_EQ(query.PointToPoint(0, 3), kInfDistance);
  EXPECT_DOUBLE_EQ(query.PointToPoint(0, 2), 15.0);
  EXPECT_DOUBLE_EQ(query.PointToPoint(3, 5), 15.0);
  EXPECT_TRUE(query.Path(0, 4).empty());

  const std::vector<VertexId> targets = {1, 3, 2, 5, 0};
  std::vector<Distance> dists(targets.size(), -1.0);
  query.OneToMany(0, targets, dists);
  EXPECT_DOUBLE_EQ(dists[0], 10.0);
  EXPECT_EQ(dists[1], kInfDistance);
  EXPECT_DOUBLE_EQ(dists[2], 15.0);
  EXPECT_EQ(dists[3], kInfDistance);
  EXPECT_DOUBLE_EQ(dists[4], 0.0);
}

TEST(CHQueryTest, SingleVertexAndSingleEdge) {
  RoadNetwork::Builder b1;
  b1.AddVertex(Coord{0.0, 0.0});
  auto g1 = std::move(b1).Build();
  ASSERT_TRUE(g1.ok());
  const CHGraph ch1 = BuildCH(g1.value());
  CHQuery q1(&ch1);
  EXPECT_DOUBLE_EQ(q1.PointToPoint(0, 0), 0.0);
  EXPECT_EQ(q1.Path(0, 0), std::vector<VertexId>{0});

  RoadNetwork::Builder b2;
  b2.AddVertex(Coord{0.0, 0.0});
  b2.AddVertex(Coord{100.0, 0.0});
  b2.AddEdge(0, 1, 42.0);
  auto g2 = std::move(b2).Build();
  ASSERT_TRUE(g2.ok());
  const CHGraph ch2 = BuildCH(g2.value());
  CHQuery q2(&ch2);
  EXPECT_DOUBLE_EQ(q2.PointToPoint(0, 1), 42.0);
  EXPECT_EQ(q2.Path(0, 1), (std::vector<VertexId>{0, 1}));
}

TEST(CHQueryTest, ParallelEdgesUseLightest) {
  RoadNetwork::Builder b;
  b.AddVertex(Coord{0.0, 0.0});
  b.AddVertex(Coord{100.0, 0.0});
  b.AddVertex(Coord{200.0, 0.0});
  b.AddEdge(0, 1, 10.0);
  b.AddEdge(0, 1, 4.0);  // parallel, lighter
  b.AddEdge(1, 2, 7.0);
  auto built = std::move(b).Build();
  ASSERT_TRUE(built.ok());
  const RoadNetwork g = std::move(built).value();
  const CHGraph ch = BuildCH(g);
  CHQuery query(&ch);
  EXPECT_DOUBLE_EQ(query.PointToPoint(0, 2), 11.0);
  Distance dist = -1.0;
  const std::vector<VertexId> path = query.Path(0, 2, &dist);
  EXPECT_EQ(path, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(dist, 11.0);
}

TEST(CHQueryTest, TinyWitnessBudgetStaysExact) {
  // A pathological settle budget may only add redundant shortcuts — never
  // wrong distances.
  const RoadNetwork g = testing::MakeRandomConnectedGraph(50, 90, 31);
  CHPreprocessorOptions opts;
  opts.witness_settle_limit = 1;
  const CHGraph ch = CHPreprocessor(opts).Build(g);
  CHQuery query(&ch);
  DijkstraEngine dijkstra(&g);
  const std::vector<VertexId> a = SampleVertices(g, 30, 201);
  const std::vector<VertexId> b = SampleVertices(g, 30, 202);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(query.PointToPoint(a[i], b[i]),
                dijkstra.PointToPoint(a[i], b[i]), kTol);
  }
}

TEST(DistanceOracleCHTest, BackendParityAndIdenticalAccounting) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(80, 130, 37);
  const CHGraph ch = BuildCH(g);
  DistanceOracle dij(&g);
  DistanceOracle chh(&g, &ch);
  EXPECT_EQ(dij.backend(), DistanceBackend::kDijkstra);
  EXPECT_EQ(chh.backend(), DistanceBackend::kCH);

  const VertexId source = 5;
  std::vector<VertexId> targets = SampleVertices(g, 30, 301);
  targets.push_back(source);
  targets.push_back(targets.front());  // duplicate
  std::vector<Distance> a, b;
  dij.BatchDist(source, targets, &a);
  chh.BatchDist(source, targets, &b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], kTol);
  }
  EXPECT_EQ(dij.compdists(), chh.compdists());
  EXPECT_EQ(dij.batch_stats().batch_calls, chh.batch_stats().batch_calls);
  EXPECT_EQ(dij.batch_stats().pairs_requested,
            chh.batch_stats().pairs_requested);
  EXPECT_EQ(dij.batch_stats().pairs_from_cache,
            chh.batch_stats().pairs_from_cache);
  EXPECT_EQ(dij.batch_stats().pairs_swept, chh.batch_stats().pairs_swept);
  EXPECT_EQ(dij.batch_stats().sweeps, chh.batch_stats().sweeps);

  // Request rows behave the same on both backends.
  const VertexId rs = 9;
  const VertexId rd = 44;
  const std::vector<VertexId> reads = SampleVertices(g, 10, 302);
  dij.BeginRequest(rs, rd);
  chh.BeginRequest(rs, rd);
  EXPECT_EQ(dij.compdists(), chh.compdists());
  for (const VertexId v : reads) {
    EXPECT_NEAR(dij.Dist(v, rs), chh.Dist(v, rs), kTol);
    EXPECT_NEAR(dij.Dist(rd, v), chh.Dist(rd, v), kTol);
  }
  EXPECT_EQ(dij.batch_stats().warm_hits, chh.batch_stats().warm_hits);
  EXPECT_EQ(dij.batch_stats().sweeps, chh.batch_stats().sweeps);
  EXPECT_EQ(dij.compdists(), chh.compdists());

  // Re-running the identical batch after a cache clear is deterministic
  // bit-for-bit; a serial Dist answers via the bidirectional query, whose
  // sums may associate differently from the batch sweep (NEAR only).
  chh.ClearCache();
  const Distance via_batch = b[0];
  std::vector<Distance> rebatch;
  chh.BatchDist(source, targets, &rebatch);
  EXPECT_EQ(rebatch[0], via_batch);
  chh.ClearCache();
  EXPECT_NEAR(chh.Dist(source, targets[0]), via_batch, kTol);
}

TEST(DistanceOracleCHTest, UnreachablePairsCountedWithoutSearch) {
  RoadNetwork::Builder b;
  for (int i = 0; i < 4; ++i) b.AddVertex(Coord{100.0 * i, 0.0});
  b.AddEdge(0, 1, 10.0);
  b.AddEdge(2, 3, 10.0);
  auto built = std::move(b).Build();
  ASSERT_TRUE(built.ok());
  const RoadNetwork g = std::move(built).value();
  const CHGraph ch = BuildCH(g);
  for (DistanceOracle* oracle :
       {new DistanceOracle(&g), new DistanceOracle(&g, &ch)}) {
    EXPECT_EQ(oracle->Dist(0, 2), kInfDistance);
    EXPECT_EQ(oracle->compdists(), 1u);
    EXPECT_EQ(oracle->Dist(0, 2), kInfDistance);  // cached
    EXPECT_EQ(oracle->compdists(), 1u);
    EXPECT_TRUE(oracle->Path(1, 3).empty());
    EXPECT_EQ(oracle->compdists(), 2u);
    std::vector<Distance> out;
    oracle->BatchDist(0, std::vector<VertexId>{1, 2, 3, 2}, &out);
    EXPECT_DOUBLE_EQ(out[0], 10.0);
    EXPECT_EQ(out[1], kInfDistance);
    EXPECT_EQ(out[2], kInfDistance);
    EXPECT_EQ(out[3], kInfDistance);
    // (0,2) is already cached from the Dist call above, so the batch adds
    // two distinct new pairs: (0,1) reachable, (0,3) unreachable.
    EXPECT_EQ(oracle->compdists(), 4u);
    EXPECT_EQ(oracle->batch_stats().pairs_swept, 2u);
    delete oracle;
  }
}

// --- Engine-level determinism on the CH backend -----------------------------

struct World {
  RoadNetwork graph;
  std::unique_ptr<GridIndex> grid;
};

World MakeWorld(std::uint64_t seed = 3) {
  World w;
  GridCityOptions copts;
  copts.rows = 12;
  copts.cols = 12;
  copts.seed = seed;
  auto g = MakeGridCity(copts);
  PTAR_CHECK(g.ok());
  w.graph = std::move(g).value();
  auto grid = GridIndex::Build(&w.graph, {.cell_size_meters = 300.0});
  PTAR_CHECK(grid.ok());
  w.grid = std::make_unique<GridIndex>(std::move(grid).value());
  return w;
}

struct RequestTrace {
  bool served = false;
  Option chosen;
  std::vector<std::vector<Option>> skylines;
  std::vector<std::uint64_t> compdists;
};

std::vector<RequestTrace> TraceRun(const World& w,
                                   std::span<const Request> requests,
                                   int threads) {
  EngineOptions opts;
  opts.num_vehicles = 20;
  opts.seed = 13;
  opts.engine_threads = threads;
  opts.distance_backend = DistanceBackend::kCH;
  Engine engine(&w.graph, w.grid.get(), opts);
  BaselineMatcher ba;
  SsaMatcher ssa;
  DsaMatcher dsa;
  std::vector<Matcher*> matchers = {&ba, &ssa, &dsa};
  std::vector<RequestTrace> traces;
  traces.reserve(requests.size());
  for (const Request& r : requests) {
    auto outcome = engine.ProcessRequest(r, matchers);
    RequestTrace t;
    t.served = outcome.served;
    t.chosen = outcome.chosen;
    for (const MatchResult& res : outcome.results) {
      t.skylines.push_back(res.options);
      t.compdists.push_back(res.stats.compdists);
    }
    traces.push_back(std::move(t));
  }
  return traces;
}

TEST(EngineCHBackendTest, ThreadCountDoesNotChangeOutcomes) {
  const World w = MakeWorld();
  WorkloadOptions wopts;
  wopts.num_requests = 20;
  wopts.duration_seconds = 600.0;
  wopts.epsilon = 0.5;
  wopts.waiting_minutes = 3.0;
  wopts.seed = 8;
  auto reqs = GenerateWorkload(w.graph, wopts);
  ASSERT_TRUE(reqs.ok());
  const std::vector<Request> requests = std::move(reqs).value();

  const auto serial = TraceRun(w, requests, 1);
  const auto pooled = TraceRun(w, requests, 4);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(serial[i].served, pooled[i].served);
    EXPECT_EQ(serial[i].chosen, pooled[i].chosen);
    ASSERT_EQ(serial[i].skylines.size(), pooled[i].skylines.size());
    for (std::size_t m = 0; m < serial[i].skylines.size(); ++m) {
      SCOPED_TRACE("matcher " + std::to_string(m));
      EXPECT_EQ(serial[i].skylines[m], pooled[i].skylines[m]);
      EXPECT_EQ(serial[i].compdists[m], pooled[i].compdists[m]);
    }
  }
}

TEST(EngineCHBackendTest, ServesRequestsOnCH) {
  const World w = MakeWorld(5);
  WorkloadOptions wopts;
  wopts.num_requests = 15;
  wopts.duration_seconds = 600.0;
  wopts.epsilon = 0.5;
  wopts.waiting_minutes = 3.0;
  wopts.seed = 4;
  auto reqs = GenerateWorkload(w.graph, wopts);
  ASSERT_TRUE(reqs.ok());

  EngineOptions opts;
  opts.num_vehicles = 15;
  opts.seed = 2;
  opts.distance_backend = DistanceBackend::kCH;
  Engine engine(&w.graph, w.grid.get(), opts);
  const RunStats stats = engine.RunPipelined(
      reqs.value(), [] { return std::make_unique<BaselineMatcher>(); });
  EXPECT_GT(stats.served, 0u);
}

}  // namespace
}  // namespace ptar
