// Query workspace over a CHGraph: bidirectional point-to-point, one-to-many
// and one-to-all, and shortest-path unpacking.
//
// All searches run on the upward graph only (the network is undirected, so
// the backward/downward side of a query is an upward search from the other
// endpoint). One workspace owns the per-vertex scratch arrays, reused across
// queries via version stamps, exactly like DijkstraEngine; a CHGraph may be
// shared by any number of workspaces concurrently.
//
// One-to-many and one-to-all share one strategy, a PHAST-style downward
// sweep: one upward search from the source, then one linear pass over the
// vertices in descending rank order relaxing each vertex from its
// (already-final) upward neighbors. The pass costs O(n + m) with zero heap
// operations, so for city-scale graphs it beats per-target hierarchy
// searches as soon as a batch holds more than a handful of targets, and it
// answers every vertex at once.
//
// The sweep returns exact distances; they may differ from PointToPoint in
// the low bits because floating-point path sums associate differently (the
// bidirectional query adds fwd + bwd halves, the sweep accumulates
// top-down). Callers that need bit-stability get it from DistanceOracle's
// per-request rows and memo, not from the raw query layer.
//
// Stall-on-demand prunes the *expansion* of provably suboptimal vertices
// but keeps their labels, and meets consider every reached vertex, so the
// results are exact regardless of stalling; the downward sweep recovers any
// stalled vertex's true distance through its higher-ranked neighbors.

#ifndef PTAR_GRAPH_CH_QUERY_H_
#define PTAR_GRAPH_CH_QUERY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/ch_graph.h"
#include "graph/types.h"

namespace ptar {

class CHQuery {
 public:
  explicit CHQuery(const CHGraph* ch);

  CHQuery(const CHQuery&) = delete;
  CHQuery& operator=(const CHQuery&) = delete;

  /// Exact shortest-path distance from s to t (kInfDistance if
  /// unreachable).
  Distance PointToPoint(VertexId s, VertexId t);

  /// Exact shortest path s..t as an original-graph vertex sequence, with
  /// every shortcut unpacked. Empty if t is unreachable; {s} if s == t.
  /// `dist`, if non-null, receives the path length.
  std::vector<VertexId> Path(VertexId s, VertexId t,
                             Distance* dist = nullptr);

  /// Exact distances from `source` to every target. `out` must have
  /// targets.size() slots; unreachable targets report kInfDistance.
  /// Duplicate targets are fine (each slot is filled).
  void OneToMany(VertexId source, std::span<const VertexId> targets,
                 std::span<Distance> out);

  /// Exact distances from `source` to every vertex, vertex-indexed. `out`
  /// must have num_vertices() slots; unreachable vertices report
  /// kInfDistance. Bit-identical to OneToMany over the same targets.
  void OneToAll(VertexId source, std::span<Distance> out);

  /// Vertices settled across both sides of the most recent query (work
  /// measure; compare with DijkstraEngine::last_settled_count()).
  std::size_t last_settled_count() const { return last_settled_count_; }

  const CHGraph& ch() const { return *ch_; }

 private:
  struct QueueEntry {
    Distance dist;
    VertexId vertex;
    friend bool operator>(const QueueEntry& a, const QueueEntry& b) {
      return a.dist > b.dist || (a.dist == b.dist && a.vertex > b.vertex);
    }
  };

  /// One direction of a bidirectional search (also the whole of a
  /// single-sided upward search).
  struct Side {
    std::vector<Distance> dist;
    std::vector<std::uint32_t> parent_arc;  ///< Pool index, kNoChild at seed.
    std::vector<VertexId> parent;
    std::vector<std::uint32_t> stamp;
    std::uint32_t run = 0;
    std::vector<QueueEntry> heap;

    void Begin(std::size_t n);
    bool Reached(VertexId v) const { return stamp[v] == run; }
  };

  /// Settles the next vertex of `side` (if any); returns whether a vertex
  /// was settled and fills *settled_vertex / *settled_dist. Skips stalled
  /// vertices' expansions but still reports them settled.
  bool SettleNext(Side& side, VertexId* settled_vertex,
                  Distance* settled_dist);

  /// Runs the bidirectional query, leaving labels in fwd_/bwd_. Returns
  /// the best meeting vertex (kInvalidVertex if none) and sets *best.
  VertexId RunBidirectional(VertexId s, VertexId t, Distance* best);

  /// Runs the forward upward search from `source` to exhaustion, leaving
  /// labels in fwd_.
  void RunUpwardFrom(VertexId source);

  /// Upward search from `source`, then the downward sweep into
  /// `sweep_dist_` (indexed by sweep position).
  void DownwardSweep(VertexId source);

  const CHGraph* ch_;
  Side fwd_;
  Side bwd_;
  std::size_t last_settled_count_ = 0;

  /// Downward-sweep scratch, indexed by sweep position (descending rank):
  /// every slot is overwritten on each sweep, so it needs no stamps or
  /// clearing.
  std::vector<Distance> sweep_dist_;
};

}  // namespace ptar

#endif  // PTAR_GRAPH_CH_QUERY_H_
