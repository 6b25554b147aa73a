// Reusable Dijkstra engine over a RoadNetwork.
//
// One engine owns the per-vertex scratch arrays (distance, parent, source
// label) and reuses them across runs via version stamps, so repeated queries
// do not pay O(|V|) re-initialization. All variants compute exact
// shortest-path distances; there is no approximation anywhere in this layer.

#ifndef PTAR_GRAPH_DIJKSTRA_H_
#define PTAR_GRAPH_DIJKSTRA_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/road_network.h"
#include "graph/types.h"

namespace ptar {

/// A (vertex, initial distance) pair used to seed multi-source searches.
struct DijkstraSource {
  VertexId vertex = kInvalidVertex;
  Distance offset = 0.0;
  /// Caller-chosen label propagated to every vertex this source settles
  /// first; used to recover witness border vertices in the grid index.
  std::uint32_t label = 0;
};

/// Single-threaded Dijkstra workspace. Results of the most recent run are
/// readable until the next run starts.
class DijkstraEngine {
 public:
  explicit DijkstraEngine(const RoadNetwork* graph);

  DijkstraEngine(const DijkstraEngine&) = delete;
  DijkstraEngine& operator=(const DijkstraEngine&) = delete;
  DijkstraEngine(DijkstraEngine&&) = default;
  DijkstraEngine& operator=(DijkstraEngine&&) = default;

  /// Shortest-path distance from s to t with early termination as soon as t
  /// is settled. Returns kInfDistance if t is unreachable.
  Distance PointToPoint(VertexId s, VertexId t);

  /// Full single-source run; afterwards Dist(v) is valid for every vertex.
  void SingleSource(VertexId s);

  /// Single-source run that stops once every target is settled. Unreached
  /// targets (disconnected) report kInfDistance.
  void SingleSourceToTargets(VertexId s, std::span<const VertexId> targets);

  /// Full multi-source run seeded with per-source offsets and labels.
  void MultiSource(std::span<const DijkstraSource> sources);

  /// Distance of v from the source set of the most recent run, or
  /// kInfDistance if v was not reached.
  Distance Dist(VertexId v) const {
    return stamp_[v] == run_stamp_ ? dist_[v] : kInfDistance;
  }

  /// Whether v was settled (finalized) in the most recent run.
  bool Settled(VertexId v) const {
    return stamp_[v] == run_stamp_ && settled_[v];
  }

  /// Label of the source that first reaches v (multi-source runs), or 0.
  std::uint32_t SourceLabel(VertexId v) const {
    return stamp_[v] == run_stamp_ ? label_[v] : 0;
  }

  /// Predecessor of v on its shortest path, or kInvalidVertex for sources
  /// and unreached vertices.
  VertexId Parent(VertexId v) const {
    return stamp_[v] == run_stamp_ ? parent_[v] : kInvalidVertex;
  }

  /// Reconstructs the vertex sequence source..t from the most recent run.
  /// Returns an empty vector if t was not reached.
  std::vector<VertexId> PathTo(VertexId t) const;

  /// Number of vertices settled by the most recent run (work measure).
  std::size_t last_settled_count() const { return last_settled_count_; }

  const RoadNetwork& graph() const { return *graph_; }

 private:
  struct QueueEntry {
    Distance dist;
    VertexId vertex;
    friend bool operator>(const QueueEntry& a, const QueueEntry& b) {
      return a.dist > b.dist;
    }
  };

  void BeginRun();
  void Seed(VertexId v, Distance dist, std::uint32_t label);
  /// Core loop. Stops when `stop_vertex` is settled (if valid) or when
  /// `targets_remaining` hits zero.
  void Run(VertexId stop_vertex);

  const RoadNetwork* graph_;
  std::vector<Distance> dist_;
  std::vector<VertexId> parent_;
  std::vector<std::uint32_t> label_;
  std::vector<std::uint8_t> settled_;
  std::vector<std::uint8_t> is_target_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> target_stamp_;
  std::uint32_t run_stamp_ = 0;
  std::size_t targets_remaining_ = 0;
  std::size_t last_settled_count_ = 0;
  std::vector<QueueEntry> heap_;
};

}  // namespace ptar

#endif  // PTAR_GRAPH_DIJKSTRA_H_
