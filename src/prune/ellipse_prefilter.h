// Calibrated Euclidean lower bounds for the GeoPrune prefilter.
//
// The synthetic generators jitter edge weights, so the raw Euclidean
// distance between two vertices is NOT guaranteed to underestimate their
// network distance. Build() therefore calibrates a per-graph factor
//
//   alpha = min over edges (u,v) with euc(u,v) > 0 of weight(u,v)/euc(u,v)
//
// For any path P from a to b, len(P) = sum of weights >= alpha * sum of
// edge Euclidean lengths >= alpha * euc(a,b) by the triangle inequality, so
// alpha * euc(a,b) <= dist(a,b) for every reachable pair (unreachable pairs
// have dist = kInfDistance and are trivially consistent). alpha may exceed
// 1 when every edge is longer than its chord. A relative shave absorbs
// floating-point error in the calibration itself; the lemma predicates'
// kPruneTolerance adds an absolute cushion on top (DESIGN.md §13).

#ifndef PTAR_PRUNE_ELLIPSE_PREFILTER_H_
#define PTAR_PRUNE_ELLIPSE_PREFILTER_H_

#include "graph/road_network.h"
#include "graph/types.h"

namespace ptar::prune {

class EllipsePrefilter {
 public:
  struct Options {
    /// ShrinkEllipse fault seam: factors < 1 under-size every feasibility
    /// ellipse (equivalently, inflate LowerBound by 1/shrink_factor),
    /// deliberately making the filter unsound so the differential harness
    /// can prove it detects and attributes a miscalibrated bound
    /// (check::BrokenPrefilterMatcher). 1.0 is the only sound setting.
    double shrink_factor = 1.0;
  };

  EllipsePrefilter() = default;

  /// Calibrates alpha over the graph's edges. O(E); the result borrows
  /// `graph`, which must outlive the prefilter.
  static EllipsePrefilter Build(const RoadNetwork& graph,
                                const Options& opts);
  static EllipsePrefilter Build(const RoadNetwork& graph) {
    return Build(graph, Options{});
  }

  /// Lower bound on the network distance u -> v. Sound (never exceeds the
  /// true shortest-path distance) when shrink_factor == 1; returns 0 on
  /// graphs where no edge has positive chord length (filter disabled).
  Distance LowerBound(VertexId u, VertexId v) const {
    return scale_ * graph_->EuclideanDistance(u, v);
  }

  /// LowerBound(a,via) + LowerBound(via,b): the scaled focal sum. A value
  /// above `budget` (plus tolerance) proves no route a -> via -> b fits in
  /// `budget` — containment of via in the detour ellipse with foci a and b,
  /// in the form the lemma predicates consume.
  Distance DetourLowerBound(VertexId a, VertexId via, VertexId b) const {
    return LowerBound(a, via) + LowerBound(via, b);
  }

  double alpha() const { return alpha_; }

 private:
  const RoadNetwork* graph_ = nullptr;
  double alpha_ = 0.0;  ///< min weight / chord over edges, pre-shave
  double scale_ = 0.0;  ///< alpha * (1 - shave) / shrink_factor
};

}  // namespace ptar::prune

#endif  // PTAR_PRUNE_ELLIPSE_PREFILTER_H_
