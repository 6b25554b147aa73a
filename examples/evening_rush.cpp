// Evening rush: the paper's motivating story. A couple finishes dinner at
// the seaside — far from downtown where most taxis roam — and wants to get
// home. Getting a car quickly costs extra (big pickup detour); waiting for a
// car that will pass nearby later is cheaper. The skyline of
// (pickup time, price) options makes that trade-off explicit.
//
//   $ ./evening_rush

#include <cstdio>

#include "common/random.h"
#include "graph/generators.h"
#include "rideshare/baseline_matcher.h"
#include "sim/engine.h"
#include "sim/workload.h"

using namespace ptar;

int main() {
  // A ring-radial downtown with long radial avenues: the "seaside" is the
  // outer end of one avenue, downtown is the hub.
  RingRadialCityOptions copts;
  copts.rings = 10;
  copts.spokes = 16;
  copts.ring_spacing_meters = 400.0;
  copts.seed = 2026;
  auto graph = MakeRingRadialCity(copts);
  PTAR_CHECK_OK(graph.status());

  auto grid = GridIndex::Build(&*graph, {.cell_size_meters = 800.0});
  PTAR_CHECK_OK(grid.status());

  EngineOptions eopts;
  eopts.num_vehicles = 28;
  eopts.seed = 5;
  eopts.policy = ChoicePolicy::kMinPrice;
  Engine engine(&*graph, &*grid, eopts);

  // Background demand: mostly downtown-to-downtown trips, plus a steady
  // trickle of evening traffic heading out toward the seaside spoke — the
  // vehicles that will pass near the couple "later on".
  Rng rng(8);
  auto ring_vertex = [&](int ring_lo, int ring_hi, int spoke_lo,
                         int spoke_hi) {
    const int ring = static_cast<int>(
        rng.UniformInt(ring_lo, ring_hi));
    const int spoke = static_cast<int>(
        rng.UniformInt(spoke_lo, spoke_hi)) % copts.spokes;
    return static_cast<VertexId>(1 + ring * copts.spokes + spoke);
  };
  std::vector<Request> background;
  for (int i = 0; i < 140; ++i) {
    Request r;
    r.id = static_cast<RequestId>(i);
    r.start = ring_vertex(0, 3, 0, copts.spokes - 1);  // downtown
    if (i % 3 == 0) {
      // Outbound toward the seaside end of spoke 0 (+/- one spoke).
      r.destination = ring_vertex(7, 9, copts.spokes - 1, copts.spokes + 1);
    } else {
      r.destination = ring_vertex(0, 4, 0, copts.spokes - 1);
    }
    if (r.destination == r.start) r.destination = (r.destination % 160) + 1;
    r.riders = 1;
    r.max_wait_dist = 6.0 * 60.0 * kDefaultSpeedMetersPerSec;
    r.epsilon = 0.8;
    r.submit_time = i * 8.0;
    background.push_back(r);
  }

  engine.RunPipelined(background,
                      [] { return std::make_unique<BaselineMatcher>(); });

  // Now the couple at the seaside: outer ring vertex on spoke 0, heading to
  // a vertex two rings from the hub on the opposite side.
  const auto seaside = static_cast<VertexId>(1 + 9 * copts.spokes + 0);
  const auto home = static_cast<VertexId>(1 + 1 * copts.spokes +
                                          copts.spokes / 2);
  Request couple;
  couple.id = 9999;
  couple.start = seaside;
  couple.destination = home;
  couple.riders = 2;
  couple.max_wait_dist = 15.0 * 60.0 * kDefaultSpeedMetersPerSec;  // 15 min
  couple.epsilon = 0.8;
  couple.submit_time = engine.now();

  BaselineMatcher exact;
  std::vector<Matcher*> matchers = {&exact};
  const auto outcome = engine.ProcessRequest(couple, matchers);
  const auto& options = outcome.results[0].options;

  std::printf("The couple at the seaside (vertex %u -> %u) gets %zu "
              "non-dominated offers:\n\n", seaside, home, options.size());
  std::printf("%8s %12s %10s  %s\n", "vehicle", "pickup(min)", "price", "");
  for (std::size_t i = 0; i < options.size(); ++i) {
    const Option& o = options[i];
    const double minutes =
        o.pickup_dist / kDefaultSpeedMetersPerSec / 60.0;
    const char* note = "";
    if (i == 0) note = "<- fastest pickup";
    if (i + 1 == options.size()) note = "<- cheapest ride";
    std::printf("%8u %12.1f %10.2f  %s\n", o.vehicle, minutes, o.price,
                note);
  }
  if (options.size() > 1) {
    const double dt =
        (options.back().pickup_dist - options.front().pickup_dist) /
        kDefaultSpeedMetersPerSec / 60.0;
    const double dp = options.front().price - options.back().price;
    std::printf("\nWaiting %.1f more minutes saves %.2f on the fare — the "
                "rider decides.\n", dt, dp);
  } else {
    std::printf("\n(Only one offer this time — rerun with another seed for "
                "a richer skyline.)\n");
  }
  return 0;
}
