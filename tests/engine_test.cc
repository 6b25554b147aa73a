// Tests for the fleet simulation engine: movement, commitment, choice
// policies, conservation invariants, and determinism.

#include "sim/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>

#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/grid_scan_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "tests/scenario_builder.h"

namespace ptar {
namespace {

using testing::FactoryOf;
using testing::GridWorld;

GridWorld MakeWorld(std::uint64_t seed = 3) {
  testing::GridWorldOptions copts;
  copts.seed = seed;
  return testing::MakeGridWorld(copts);
}

std::vector<Request> MakeRequests(const RoadNetwork& g, std::size_t n,
                                  std::uint64_t seed = 8) {
  testing::RequestStreamOptions opts;
  opts.num_requests = n;
  opts.seed = seed;
  return testing::MakeRequestStream(g, opts);
}

TEST(EngineTest, FleetStartsIdleAndRegistered) {
  GridWorld w = MakeWorld();
  EngineOptions opts;
  opts.num_vehicles = 10;
  Engine engine(w.graph.get(), w.grid.get(), opts);
  EXPECT_EQ(engine.fleet().size(), 10u);
  std::size_t registered = 0;
  for (const CellId cell : w.grid->active_cells()) {
    registered += engine.registry().EmptyVehicles(cell).size();
  }
  EXPECT_EQ(registered, 10u);
  for (const KineticTree& tree : engine.fleet()) {
    EXPECT_TRUE(tree.IsEmpty());
    EXPECT_EQ(tree.onboard(), 0);
  }
}

TEST(EngineTest, IdleVehiclesWanderButStayRegistered) {
  GridWorld w = MakeWorld();
  EngineOptions opts;
  opts.num_vehicles = 8;
  Engine engine(w.graph.get(), w.grid.get(), opts);
  engine.AdvanceTo(120.0);
  EXPECT_DOUBLE_EQ(engine.now(), 120.0);
  std::size_t registered = 0;
  for (const CellId cell : w.grid->active_cells()) {
    registered += engine.registry().EmptyVehicles(cell).size();
  }
  EXPECT_EQ(registered, 8u);
  // Vehicles actually moved (odometers advanced roughly speed * time).
  for (const KineticTree& tree : engine.fleet()) {
    EXPECT_GT(tree.odometer(), 0.0);
    EXPECT_LE(tree.odometer(), 120.0 * kDefaultSpeedMetersPerSec + 1e-6);
  }
}

TEST(EngineTest, MovementIsPinnedBitForBit) {
  // Every vehicle's location and odometer bits after a short stream, plus
  // the clock, hashed and compared with one value at one and four engine
  // threads. The value was recorded when idle walks moved to one SplitMix64
  // stream per vehicle, from those streams in the former tick-major
  // advance. The stream has idle walkers, commits landing mid-edge, stop
  // arrivals, and advances to fractional times, so any change to where a
  // tick leaves a vehicle moves the hash.
  GridWorld w = MakeWorld();
  const std::vector<Request> requests = MakeRequests(*w.graph, 30);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EngineOptions opts;
    opts.num_vehicles = 12;
    opts.engine_threads = threads;
    opts.wave_size = 1;
    Engine engine(w.graph.get(), w.grid.get(), opts);
    const std::span<const Request> all(requests);
    std::uint64_t served = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      engine.AdvanceTo(all[i].submit_time - 0.37);
      served +=
          engine.RunPipelined(all.subspan(i, 1), FactoryOf<BaselineMatcher>())
              .served;
    }
    engine.AdvanceTo(engine.now() + 30.25);

    std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over 64-bit words
    const auto mix = [&hash](std::uint64_t word) {
      hash = (hash ^ word) * 0x100000001b3ull;
    };
    std::size_t busy = 0;
    for (const KineticTree& tree : engine.fleet()) {
      mix(tree.location());
      mix(std::bit_cast<std::uint64_t>(tree.odometer()));
      busy += tree.IsEmpty() ? 0 : 1;
    }
    mix(std::bit_cast<std::uint64_t>(engine.now()));
    EXPECT_GT(served, 20u);
    EXPECT_GT(busy, 0u);
    EXPECT_LT(busy, engine.fleet().size());
    EXPECT_EQ(hash, 0xa0fa1f8502637d76ull);
  }
}

TEST(EngineTest, ServesRequestsEndToEnd) {
  GridWorld w = MakeWorld();
  EngineOptions opts;
  opts.num_vehicles = 20;
  Engine engine(w.graph.get(), w.grid.get(), opts);
  const std::vector<Request> requests = MakeRequests(*w.graph, 30);
  const RunStats stats =
      engine.RunPipelined(requests, FactoryOf<BaselineMatcher>());

  EXPECT_EQ(stats.served + stats.unserved, 30u);
  EXPECT_GT(stats.served, 25u);  // plenty of fleet for 30 requests
  ASSERT_EQ(stats.matchers.size(), 1u);
  EXPECT_EQ(stats.matchers[0].requests, 30u);
  EXPECT_GT(stats.matchers[0].MeanOptions(), 0.0);
  // The committing matcher is its own reference: precision/recall 1.
  EXPECT_DOUBLE_EQ(stats.matchers[0].MeanPrecision(), 1.0);
  EXPECT_DOUBLE_EQ(stats.matchers[0].MeanRecall(), 1.0);
  EXPECT_GE(stats.SharingRate(), 0.0);
  EXPECT_LE(stats.SharingRate(), 1.0);
}

TEST(EngineTest, AllRequestsEventuallyCompleted) {
  GridWorld w = MakeWorld();
  EngineOptions opts;
  opts.num_vehicles = 15;
  Engine engine(w.graph.get(), w.grid.get(), opts);
  const std::vector<Request> requests = MakeRequests(*w.graph, 20);
  engine.RunPipelined(requests, FactoryOf<BaselineMatcher>());
  // Give the fleet ample time to finish every trip.
  engine.AdvanceTo(20000.0);
  for (const KineticTree& tree : engine.fleet()) {
    EXPECT_TRUE(tree.IsEmpty());
    EXPECT_EQ(tree.onboard(), 0);
  }
}

TEST(EngineTest, DeterministicRuns) {
  GridWorld w = MakeWorld();
  const std::vector<Request> requests = MakeRequests(*w.graph, 25);
  RunStats a;
  RunStats b;
  for (int trial = 0; trial < 2; ++trial) {
    EngineOptions opts;
    opts.num_vehicles = 15;
    opts.seed = 77;
    Engine engine(w.graph.get(), w.grid.get(), opts);
    (trial == 0 ? a : b) =
        engine.RunPipelined(requests, FactoryOf<BaselineMatcher>());
  }
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.shared, b.shared);
  EXPECT_EQ(a.matchers[0].totals.compdists, b.matchers[0].totals.compdists);
  EXPECT_EQ(a.matchers[0].totals.verified_vehicles,
            b.matchers[0].totals.verified_vehicles);
  EXPECT_EQ(a.matchers[0].options_sum, b.matchers[0].options_sum);
}

TEST(EngineTest, ChoicePoliciesAllRun) {
  for (const ChoicePolicy policy :
       {ChoicePolicy::kMinPrice, ChoicePolicy::kMinTime,
        ChoicePolicy::kBalanced, ChoicePolicy::kRandom}) {
    GridWorld w = MakeWorld();
    EngineOptions opts;
    opts.num_vehicles = 10;
    opts.policy = policy;
    Engine engine(w.graph.get(), w.grid.get(), opts);
    const std::vector<Request> requests = MakeRequests(*w.graph, 10);
    const RunStats stats =
      engine.RunPipelined(requests, FactoryOf<BaselineMatcher>());
    EXPECT_GT(stats.served, 0u) << "policy " << static_cast<int>(policy);
  }
}

TEST(EngineTest, MinPriceVsMinTimeChooseDifferently) {
  GridWorld w = MakeWorld();
  const std::vector<Request> requests = MakeRequests(*w.graph, 25);
  std::vector<double> chosen_prices[2];
  int idx = 0;
  for (const ChoicePolicy policy :
       {ChoicePolicy::kMinPrice, ChoicePolicy::kMinTime}) {
    EngineOptions opts;
    opts.num_vehicles = 20;
    opts.policy = policy;
    opts.seed = 5;
    Engine engine(w.graph.get(), w.grid.get(), opts);
    BaselineMatcher ba;
    std::vector<Matcher*> matchers = {&ba};
    for (const Request& r : requests) {
      const auto outcome = engine.ProcessRequest(r, matchers);
      if (outcome.served) chosen_prices[idx].push_back(outcome.chosen.price);
    }
    ++idx;
  }
  double sum0 = 0;
  double sum1 = 0;
  for (double p : chosen_prices[0]) sum0 += p;
  for (double p : chosen_prices[1]) sum1 += p;
  // Min-price accumulates no more total price than min-time.
  EXPECT_LE(sum0, sum1 + 1e-6);
}

EngineOptions ScarceFleet() {
  EngineOptions opts;
  opts.num_vehicles = 5;  // scarce fleet forces sharing
  // Concentrated demand on a scarce fleet is exactly the workload where
  // unbounded enumeration goes factorial (every rider fits every gap of
  // the hot vehicle); the tests are about sharing, so pin the bounded mode.
  opts.tree_max_branches = 64;
  return opts;
}

std::vector<Request> ConcentratedDemand(const RoadNetwork& g) {
  WorkloadOptions wopts;
  wopts.num_requests = 40;
  wopts.duration_seconds = 300.0;
  wopts.epsilon = 1.0;       // generous detours
  wopts.waiting_minutes = 8.0;
  wopts.num_hotspots = 1;    // everyone travels the same corridor
  wopts.hotspot_prob = 1.0;
  wopts.seed = 12;
  auto requests = GenerateWorkload(g, wopts);
  PTAR_CHECK(requests.ok());
  return std::move(requests).value();
}

TEST(EngineTest, SharingHappensWithConcentratedDemand) {
  GridWorld w = MakeWorld();
  Engine engine(w.graph.get(), w.grid.get(), ScarceFleet());
  const RunStats stats = engine.RunPipelined(ConcentratedDemand(*w.graph),
                                             FactoryOf<BaselineMatcher>());
  EXPECT_GT(stats.served, 0u);
  EXPECT_GT(stats.shared, 0u) << "no sharing in a forced-sharing scenario";
}

TEST(EngineTest, SharedCountsAddUpAcrossCalls) {
  // RunStats::shared counts the requests that first shared since the last
  // call returned, like `served` counts per call. Running the stream one
  // request per call, with the world advanced between calls as ptar_bench
  // does, must add up to the same stream run as one call.
  GridWorld w = MakeWorld();
  const std::vector<Request> requests = ConcentratedDemand(*w.graph);
  std::vector<CommitRecord> whole_log;
  Engine whole_engine(w.graph.get(), w.grid.get(), ScarceFleet());
  const RunStats whole = whole_engine.RunPipelined(
      requests, FactoryOf<BaselineMatcher>(), &whole_log);

  std::vector<CommitRecord> split_log;
  RunStats sum;
  Engine split_engine(w.graph.get(), w.grid.get(), ScarceFleet());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    split_engine.AdvanceTo(requests[i].submit_time);
    std::vector<CommitRecord> log;
    const RunStats part = split_engine.RunPipelined(
        std::span<const Request>(requests).subspan(i, 1),
        FactoryOf<BaselineMatcher>(), &log);
    split_log.insert(split_log.end(), log.begin(), log.end());
    sum.served += part.served;
    sum.shared += part.shared;
  }

  EXPECT_EQ(split_log, whole_log);
  EXPECT_GT(whole.shared, 0u);
  EXPECT_EQ(sum.served, whole.served);
  EXPECT_EQ(sum.shared, whole.shared);
}

TEST(EngineTest, PartialCoverageSsaCanCommit) {
  // The committing matcher does not have to be exact: options from a
  // partial-coverage SSA are still achievable and the engine must commit
  // them without violating any invariant.
  GridWorld w = MakeWorld();
  EngineOptions opts;
  opts.num_vehicles = 15;
  Engine engine(w.graph.get(), w.grid.get(), opts);
  const std::vector<Request> requests = MakeRequests(*w.graph, 25);
  const RunStats stats = engine.RunPipelined(
      requests, FactoryOf<SsaMatcher>(0.16));
  EXPECT_GT(stats.served, 20u);
  engine.AdvanceTo(20000.0);
  for (const KineticTree& tree : engine.fleet()) {
    EXPECT_TRUE(tree.IsEmpty());
  }
}

TEST(EngineTest, KineticMemoryTracksLoad) {
  GridWorld w = MakeWorld();
  EngineOptions opts;
  opts.num_vehicles = 10;
  Engine engine(w.graph.get(), w.grid.get(), opts);
  const std::size_t before = engine.KineticTreeMemoryBytes();
  const std::vector<Request> requests = MakeRequests(*w.graph, 10);
  engine.RunPipelined(requests, FactoryOf<BaselineMatcher>());
  EXPECT_GT(engine.KineticTreeMemoryBytes(), 0u);
  EXPECT_GE(engine.KineticTreeMemoryBytes(), before);
}

TEST(EngineTest, EachMatchFillsAtMostTwoRows) {
  // Every distance a matcher reads has s or d as an endpoint, so a match
  // runs at most two one-to-all searches. The stream runs as two calls on
  // one engine: the matching oracles outlive a call, so a harvest that
  // counted an earlier call's sweeps again would break the bound.
  GridWorld w = MakeWorld();
  const std::vector<Request> requests = MakeRequests(*w.graph, 40);
  const std::span<const Request> all(requests);
  const std::pair<const char*, MatcherFactory> matchers[] = {
      {"SSA", FactoryOf<SsaMatcher>(0.5)},
      {"DSA", FactoryOf<DsaMatcher>(0.5)},
      {"BA", FactoryOf<BaselineMatcher>()},
      {"GRID", FactoryOf<GridScanMatcher>()}};
  for (const auto& [name, factory] : matchers) {
    EngineOptions opts;
    opts.num_vehicles = 12;
    opts.engine_threads = 2;
    opts.wave_size = 4;
    Engine engine(w.graph.get(), w.grid.get(), opts);
    std::uint64_t match_calls = 0;
    std::uint64_t served = 0;
    for (const std::span<const Request> part :
         {all.first(20), all.subspan(20)}) {
      const RunStats stats = engine.RunPipelined(part, factory);
      match_calls += part.size() + stats.rematches + stats.serial_rematches;
      served += stats.served;
    }
    const std::uint64_t sweeps =
        engine.metrics().Counter("pipeline/match/batch/sweeps");
    EXPECT_GT(served, 0u) << name;
    EXPECT_GT(sweeps, 0u) << name;
    EXPECT_LE(sweeps, 2 * match_calls) << name;
  }
}

TEST(EngineTest, RemovedFaultHookFactoryLeavesNoHookBehind) {
  // The matching oracles outlive a call, and every call installs its fault
  // hooks afresh: after the factory is removed, no oracle still fails.
  GridWorld w = MakeWorld();
  const std::vector<Request> requests = MakeRequests(*w.graph, 24);
  const std::span<const Request> all(requests);
  EngineOptions opts;
  opts.num_vehicles = 12;
  opts.engine_threads = 2;
  opts.wave_size = 4;
  Engine engine(w.graph.get(), w.grid.get(), opts);
  engine.SetFaultHookFactory([](std::size_t) -> DistanceOracle::FaultHook {
    return [](VertexId, VertexId) { return true; };
  });
  const RunStats faulted = engine.RunPipelined(
      all.first(12), FactoryOf<SsaMatcher>(0.5), nullptr,
      {FactoryOf<DsaMatcher>(0.5)});
  EXPECT_EQ(faulted.partial_skylines, 12u);

  engine.SetFaultHookFactory(nullptr);
  SsaMatcher ssa(0.5);
  DsaMatcher dsa(0.5);
  const std::vector<Matcher*> slots = {&ssa, &dsa};
  std::uint64_t served = 0;
  for (const Request& request : all.subspan(12)) {
    const Engine::RequestOutcome outcome =
        engine.ProcessRequest(request, slots);
    ASSERT_EQ(outcome.results.size(), 2u);
    for (const MatchResult& result : outcome.results) {
      EXPECT_TRUE(result.complete) << "request " << request.id;
    }
    served += outcome.served ? 1 : 0;
  }
  EXPECT_GT(served, 0u);
}

}  // namespace
}  // namespace ptar
