// GeoPrune property tests: calibration soundness of the Euclidean lower
// bound against exact shortest paths, candidate-enumeration parity between
// the matchers and the grid-scan ladder, and end-to-end prune soundness
// (BA/SSA/DSA behind the engine's prefilter must match the unpruned
// reference — and the ShrinkEllipse fault matcher must diverge and be
// attributed to the prune stage). Registered under the compound
// `prune-tsan` CTest label.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/differential.h"
#include "check/fault_injection.h"
#include "graph/generators.h"
#include "grid/grid_index.h"
#include "prune/ellipse_prefilter.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/matcher_internal.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "tests/test_util.h"

namespace ptar {
namespace {

using prune::EllipsePrefilter;

// ---------------------------------------------------------------------------
// Calibration soundness: alpha * euc must never exceed the true network
// distance, on jittered grid cities and on random connected graphs.

void ExpectLowerBoundSound(const RoadNetwork& g) {
  const EllipsePrefilter filter = EllipsePrefilter::Build(g);
  const std::vector<std::vector<Distance>> dist = testing::FloydWarshall(g);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (dist[u][v] == kInfDistance) continue;  // trivially consistent
      ASSERT_LE(filter.LowerBound(u, v), dist[u][v] + 1e-9)
          << "u=" << u << " v=" << v << " alpha=" << filter.alpha();
    }
  }
}

TEST(EllipsePrefilterTest, LowerBoundNeverExceedsNetworkDistanceOnGridCity) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    GridCityOptions copts;
    copts.rows = 6;
    copts.cols = 6;
    copts.seed = seed;
    auto g = MakeGridCity(copts);
    ASSERT_TRUE(g.ok());
    ExpectLowerBoundSound(g.value());
  }
}

TEST(EllipsePrefilterTest, LowerBoundNeverExceedsNetworkDistanceOnRandom) {
  // Random weights are uncorrelated with the embedding, so alpha has to do
  // all the work here.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ExpectLowerBoundSound(testing::MakeRandomConnectedGraph(
        40, 30, testing::DeriveSeed(seed, 1)));
  }
}

TEST(EllipsePrefilterTest, ShrinkFactorInflatesTheBound) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(20, 10, 7);
  EllipsePrefilter::Options shrunk;
  shrunk.shrink_factor = 0.5;
  const EllipsePrefilter sound = EllipsePrefilter::Build(g);
  const EllipsePrefilter faulty = EllipsePrefilter::Build(g, shrunk);
  EXPECT_DOUBLE_EQ(sound.alpha(), faulty.alpha());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    EXPECT_DOUBLE_EQ(faulty.LowerBound(0, u), 2.0 * sound.LowerBound(0, u));
  }
}

TEST(EllipsePrefilterTest, DegenerateGraphDisablesFilterSoundly) {
  // Every vertex at the same coordinate: no edge has a positive chord, so
  // calibration is impossible and the filter must fall back to the trivial
  // lower bound 0 (never pruning) instead of crashing or over-pruning.
  RoadNetwork::Builder b;
  b.AddVertex(Coord{5.0, 5.0});
  b.AddVertex(Coord{5.0, 5.0});
  b.AddEdge(0, 1, 42.0);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  const EllipsePrefilter filter = EllipsePrefilter::Build(g.value());
  EXPECT_EQ(filter.alpha(), 0.0);
  EXPECT_EQ(filter.LowerBound(0, 1), 0.0);
}

// ---------------------------------------------------------------------------
// Candidate-enumeration parity: the matchers' empty-vehicle base set and
// the grid-scan ladder must come from the same helper, so the helper must
// agree exactly with the spelled-out capacity filter on the registry.

struct Scenario {
  RoadNetwork graph;
  std::unique_ptr<GridIndex> grid;
  std::vector<Request> requests;
};

Scenario MakeScenario(std::uint64_t seed) {
  Scenario sc;
  GridCityOptions copts;
  copts.rows = 8;
  copts.cols = 8;
  copts.seed = seed;
  auto g = MakeGridCity(copts);
  PTAR_CHECK(g.ok());
  sc.graph = std::move(g).value();
  auto grid = GridIndex::Build(&sc.graph, {.cell_size_meters = 300.0});
  PTAR_CHECK(grid.ok());
  sc.grid = std::make_unique<GridIndex>(std::move(grid).value());
  WorkloadOptions wopts;
  wopts.num_requests = 15;
  wopts.duration_seconds = 600.0;
  wopts.epsilon = 0.5;
  wopts.waiting_minutes = 3.0;
  wopts.seed = testing::DeriveSeed(seed, 2);
  auto reqs = GenerateWorkload(sc.graph, wopts);
  PTAR_CHECK(reqs.ok());
  sc.requests = std::move(reqs).value();
  return sc;
}

TEST(CandidateParityTest, HelperMatchesManualCapacityFilterAcross20Seeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Scenario sc = MakeScenario(seed);
    EngineOptions eopts;
    eopts.num_vehicles = 12;
    eopts.seed = testing::DeriveSeed(seed, 3);
    Engine engine(&sc.graph, sc.grid.get(), eopts);
    SsaMatcher ssa(1.0);
    std::vector<Matcher*> matchers = {&ssa};

    for (const Request& request : sc.requests) {
      MatchContext ctx;
      ctx.grid = sc.grid.get();
      ctx.registry = &engine.registry();
      ctx.fleet = &engine.fleet();
      internal::RequestEnv env;
      env.request = &request;

      std::vector<char> emitted(engine.fleet().size(), 0);
      if (!engine.fleet().empty()) emitted[0] = 1;  // exercise dedup skip
      for (const CellId cell : sc.grid->active_cells()) {
        std::vector<VehicleId> manual;
        std::size_t manual_skipped = 0;
        for (const VehicleId v : ctx.registry->EmptyVehicles(cell)) {
          if (emitted[v]) continue;
          if ((*ctx.fleet)[v].capacity() < request.riders) {
            ++manual_skipped;
            continue;
          }
          manual.push_back(v);
        }
        std::vector<VehicleId> helper;
        const std::size_t helper_skipped = internal::AppendBoardableEmpties(
            cell, env, ctx, emitted, &helper);
        ASSERT_EQ(helper, manual) << "seed " << seed << " cell " << cell;
        ASSERT_EQ(helper_skipped, manual_skipped);

        // Grid-scan ladder path: empty `emitted` span means no dedup.
        std::vector<VehicleId> no_dedup;
        internal::AppendBoardableEmpties(cell, env, ctx, {}, &no_dedup);
        std::vector<VehicleId> manual_all;
        for (const VehicleId v : ctx.registry->EmptyVehicles(cell)) {
          if ((*ctx.fleet)[v].capacity() >= request.riders) {
            manual_all.push_back(v);
          }
        }
        ASSERT_EQ(no_dedup, manual_all);
      }
      engine.ProcessRequest(request, matchers);  // evolve fleet state
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end prune soundness via the differential harness.

TEST(PruneSoundnessTest, PrunedSkylinesMatchUnprunedReference) {
  // BA/SSA/DSA behind the engine's prefilter; the reference never prunes.
  check::DifferentialConfig config;
  config.prune = PruneMode::kEllipse;
  std::uint64_t ellipse_checked = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const check::ScenarioSpec spec = check::MakeRandomSpec(seed);
    auto outcome = check::RunDifferential(spec, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    for (const check::Divergence& d : outcome.value().divergences) {
      ADD_FAILURE() << "seed " << seed << ": " << d.Describe();
    }
    for (const check::MatcherSummary& m : outcome.value().matchers) {
      ellipse_checked += m.totals.ellipse_checked;
    }
  }
  // The sweep only means something if the prefilter actually ran.
  EXPECT_GT(ellipse_checked, 0u);
}

TEST(PruneSoundnessTest, ShrunkEllipseIsCaughtAndAttributed) {
  // The ShrinkEllipse fault makes the bound inflate past the true network
  // distance, so options go missing — and the divergence must carry the
  // ellipse_pruned counter that pins the loss on the prune stage.
  const check::DifferentialConfig config;
  const check::MatcherFactory factory = [] {
    std::vector<std::unique_ptr<Matcher>> matchers;
    matchers.push_back(std::make_unique<BaselineMatcher>());
    matchers.push_back(std::make_unique<check::BrokenPrefilterMatcher>(0.5));
    return matchers;
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const check::ScenarioSpec spec = check::MakeRandomSpec(seed);
    auto outcome = check::RunDifferential(spec, config, factory);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome.value().ok()) continue;
    const check::Divergence& first = outcome.value().divergences.front();
    EXPECT_EQ(first.type, check::DivergenceType::kMissingOption)
        << first.Describe();
    EXPECT_GT(first.ellipse_pruned, 0u) << first.Describe();
    return;  // caught — done
  }
  FAIL() << "ShrinkEllipse(0.5) produced no divergence in 20 seeds";
}

}  // namespace
}  // namespace ptar
