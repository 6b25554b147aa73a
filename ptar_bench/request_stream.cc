#include "ptar_bench/request_stream.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "common/random.h"

namespace ptar::bench {
namespace {

/// Demand hotspots and the seed of their centres, shared by every run like
/// the city seed.
constexpr int kHotspots = 4;
constexpr std::uint64_t kHotspotLayoutSeed = 42;
constexpr double kHotspotStddevMeters = 800.0;
/// Resolution of the tabulated arrival CDF.
constexpr int kCdfSteps = 1 << 16;

/// Relative arrival intensity at fraction u of the window: flat, plus two
/// rush peaks at 30% and 75% scaled by `sharpness` (0 = uniform arrivals).
double Intensity(double u, double sharpness) {
  const auto bump = [u](double center) {
    const double z = (u - center) / 0.08;
    return std::exp(-0.5 * z * z);
  };
  return 1.0 + sharpness * (bump(0.3) + bump(0.75));
}

std::vector<double> ArrivalTimes(const WorkloadSpec& spec, Rng& rng) {
  std::vector<double> cdf(kCdfSteps + 1, 0.0);
  for (int k = 1; k <= kCdfSteps; ++k) {
    const double a = Intensity((k - 1.0) / kCdfSteps, spec.peak_sharpness);
    const double b = Intensity(static_cast<double>(k) / kCdfSteps,
                               spec.peak_sharpness);
    cdf[k] = cdf[k - 1] + 0.5 * (a + b);
  }
  for (double& c : cdf) c /= cdf.back();

  std::vector<double> times(spec.requests);
  for (std::size_t i = 0; i < spec.requests; ++i) {
    const double q = (i + rng.UniformReal(0.0, 1.0)) / spec.requests;
    const std::size_t k = std::min<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), q) - cdf.begin() - 1,
        kCdfSteps - 1);
    const double frac = (q - cdf[k]) / (cdf[k + 1] - cdf[k]);
    times[i] = (k + frac) / kCdfSteps * spec.duration_s;
  }
  return times;
}

/// Draws vertices with probability proportional to a Gaussian of their
/// Euclidean distance to a centre.
class HotspotSampler {
 public:
  HotspotSampler(const RoadNetwork& graph, VertexId center) {
    const Coord& c = graph.position(center);
    const double inv_two_var =
        1.0 / (2.0 * kHotspotStddevMeters * kHotspotStddevMeters);
    std::vector<double> weights(graph.num_vertices());
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      const double dx = graph.position(v).x - c.x;
      const double dy = graph.position(v).y - c.y;
      weights[v] = std::exp(-(dx * dx + dy * dy) * inv_two_var);
    }
    dist_ = std::discrete_distribution<std::size_t>(weights.begin(),
                                                    weights.end());
  }

  VertexId Sample(Rng& rng) {
    return static_cast<VertexId>(dist_(rng.engine()));
  }

 private:
  std::discrete_distribution<std::size_t> dist_;
};

}  // namespace

std::vector<Request> MakeRequestStream(const RoadNetwork& graph,
                                       const WorkloadSpec& spec,
                                       std::uint64_t seed) {
  Rng layout(kHotspotLayoutSeed);
  std::vector<HotspotSampler> hotspots;
  for (int h = 0; h < kHotspots; ++h) {
    const auto center =
        static_cast<VertexId>(layout.UniformIndex(graph.num_vertices()));
    hotspots.emplace_back(graph, center);
  }

  Rng rng(seed);
  const std::vector<double> times = ArrivalTimes(spec, rng);
  const auto sample_vertex = [&]() -> VertexId {
    if (rng.Bernoulli(spec.hotspot_prob)) {
      return hotspots[rng.UniformIndex(hotspots.size())].Sample(rng);
    }
    return static_cast<VertexId>(rng.UniformIndex(graph.num_vertices()));
  };

  std::vector<Request> requests(spec.requests);
  for (std::size_t i = 0; i < spec.requests; ++i) {
    Request& r = requests[i];
    r.id = static_cast<RequestId>(i);
    r.start = sample_vertex();
    do {
      r.destination = sample_vertex();
    } while (r.destination == r.start);
    r.riders = 1;
    r.max_wait_dist = spec.waiting_minutes * 60.0 * kDefaultSpeedMetersPerSec;
    r.epsilon = spec.epsilon;
    r.submit_time = times[i];
  }
  return requests;
}

}  // namespace ptar::bench
