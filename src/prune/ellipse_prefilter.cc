#include "prune/ellipse_prefilter.h"

#include <cmath>
#include <limits>

namespace ptar::prune {
namespace {

// Relative shave applied to the calibrated alpha so that rounding in the
// Euclidean evaluations can never push a lower bound above the true
// distance. One part in 1e9 dwarfs double rounding error at these
// magnitudes while costing nothing measurable in pruning power.
constexpr double kCalibrationShave = 1e-9;

}  // namespace

EllipsePrefilter EllipsePrefilter::Build(const RoadNetwork& graph,
                                         const Options& opts) {
  EllipsePrefilter filter;
  filter.graph_ = &graph;

  double alpha = std::numeric_limits<double>::infinity();
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const double chord = graph.EuclideanDistance(graph.EdgeU(e),
                                                 graph.EdgeV(e));
    if (chord <= 0.0) continue;  // zero-length chords constrain nothing
    const double ratio = graph.EdgeWeight(e) / chord;
    if (ratio < alpha) alpha = ratio;
  }
  if (!std::isfinite(alpha)) alpha = 0.0;  // no usable edge: disable filter
  filter.alpha_ = alpha;
  filter.scale_ = alpha * (1.0 - kCalibrationShave) / opts.shrink_factor;
  return filter;
}

}  // namespace ptar::prune
