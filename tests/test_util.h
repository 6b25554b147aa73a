// Shared helpers for the test suites: small deterministic graphs, random
// connected graphs, and a Floyd-Warshall reference oracle.

#ifndef PTAR_TESTS_TEST_UTIL_H_
#define PTAR_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/road_network.h"

namespace ptar::testing {

/// Derives an independent RNG stream from a base seed and a stream tag
/// (common/random.h). The affine forms previously used for this
/// (`seed * 3 + 1`, `seed * 7 + 3`, ...) collide across parameterized
/// cases — e.g. workload seed 7*1+3 = city seed 3*3+1 — silently reusing
/// one random stream for two supposedly independent inputs.
using ::ptar::DeriveSeed;

/// 3x3 grid graph with unit coordinates spaced `spacing` apart and edge
/// weights equal to `spacing`:
///   6-7-8
///   | | |
///   3-4-5
///   | | |
///   0-1-2
inline RoadNetwork MakeSmallGrid(double spacing = 100.0) {
  RoadNetwork::Builder b;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      b.AddVertex(Coord{c * spacing, r * spacing});
    }
  }
  auto at = [](int r, int c) { return static_cast<VertexId>(r * 3 + c); };
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (c + 1 < 3) b.AddEdge(at(r, c), at(r, c + 1), spacing);
      if (r + 1 < 3) b.AddEdge(at(r, c), at(r + 1, c), spacing);
    }
  }
  auto result = std::move(b).Build();
  PTAR_CHECK(result.ok());
  return std::move(result).value();
}

/// Random connected graph: a random spanning tree plus `extra_edges` random
/// chords, random positive weights, random coordinates in a box.
inline RoadNetwork MakeRandomConnectedGraph(int num_vertices, int extra_edges,
                                            std::uint64_t seed,
                                            double box = 1000.0) {
  PTAR_CHECK(num_vertices >= 2);
  Rng rng(seed);
  RoadNetwork::Builder b;
  for (int i = 0; i < num_vertices; ++i) {
    b.AddVertex(Coord{rng.UniformReal(0, box), rng.UniformReal(0, box)});
  }
  for (int i = 1; i < num_vertices; ++i) {
    const auto parent = static_cast<VertexId>(rng.UniformIndex(i));
    b.AddEdge(static_cast<VertexId>(i), parent, rng.UniformReal(1.0, 50.0));
  }
  for (int e = 0; e < extra_edges; ++e) {
    const auto u = static_cast<VertexId>(rng.UniformIndex(num_vertices));
    auto v = static_cast<VertexId>(rng.UniformIndex(num_vertices));
    if (u == v) continue;
    b.AddEdge(u, v, rng.UniformReal(1.0, 50.0));
  }
  auto result = std::move(b).Build();
  PTAR_CHECK(result.ok());
  return std::move(result).value();
}

/// Exact all-pairs shortest paths by Floyd-Warshall (reference oracle for
/// Dijkstra and the grid-index bounds). O(V^3): keep graphs small.
inline std::vector<std::vector<Distance>> FloydWarshall(
    const RoadNetwork& g) {
  const std::size_t n = g.num_vertices();
  std::vector<std::vector<Distance>> dist(
      n, std::vector<Distance>(n, kInfDistance));
  for (std::size_t v = 0; v < n; ++v) dist[v][v] = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const VertexId u = g.EdgeU(e);
    const VertexId v = g.EdgeV(e);
    const Distance w = g.EdgeWeight(e);
    dist[u][v] = std::min(dist[u][v], w);
    dist[v][u] = std::min(dist[v][u], w);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (dist[i][k] == kInfDistance) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (dist[k][j] == kInfDistance) continue;
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }
  return dist;
}

}  // namespace ptar::testing

#endif  // PTAR_TESTS_TEST_UTIL_H_
