// Tests for the cost-accounting semantics of MatchStats: the counters the
// paper's experiments are built on must mean what they claim.

#include <gtest/gtest.h>

#include <memory>

#include "graph/generators.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "tests/scenario_builder.h"

namespace ptar {
namespace {

struct World {
  RoadNetwork graph;
  std::unique_ptr<GridIndex> grid;
  std::vector<Request> requests;
};

World MakeWorld(std::size_t num_requests = 30) {
  World w;
  GridCityOptions copts;
  copts.rows = 14;
  copts.cols = 14;
  copts.seed = 33;
  auto g = MakeGridCity(copts);
  PTAR_CHECK(g.ok());
  w.graph = std::move(g).value();
  auto grid = GridIndex::Build(&w.graph, {.cell_size_meters = 250.0});
  PTAR_CHECK(grid.ok());
  w.grid = std::make_unique<GridIndex>(std::move(grid).value());
  WorkloadOptions wopts;
  wopts.num_requests = num_requests;
  wopts.duration_seconds = 600.0;
  wopts.epsilon = 0.4;
  wopts.waiting_minutes = 3.0;
  wopts.seed = 3;
  auto reqs = GenerateWorkload(w.graph, wopts);
  PTAR_CHECK(reqs.ok());
  w.requests = std::move(reqs).value();
  return w;
}

TEST(MatchStatsTest, AccumulateSums) {
  MatchStats a;
  a.verified_vehicles = 3;
  a.compdists = 10;
  a.scanned_cells = 2;
  a.pruned_cells = 1;
  a.pruned_vehicles = 4;
  a.elapsed_micros = 1.5;
  MatchStats b = a;
  b.Accumulate(a);
  EXPECT_EQ(b.verified_vehicles, 6u);
  EXPECT_EQ(b.compdists, 20u);
  EXPECT_EQ(b.scanned_cells, 4u);
  EXPECT_EQ(b.pruned_cells, 2u);
  EXPECT_EQ(b.pruned_vehicles, 8u);
  EXPECT_DOUBLE_EQ(b.elapsed_micros, 3.0);
}

TEST(MatchStatsTest, SsaScansExactlyTheCellBudget) {
  World w = MakeWorld();
  EngineOptions eopts;
  eopts.num_vehicles = 20;
  Engine engine(&w.graph, w.grid.get(), eopts);
  const std::size_t active = w.grid->num_active_cells();
  for (const double fraction : {0.08, 0.25, 1.0}) {
    SsaMatcher ssa(fraction);
    std::vector<Matcher*> matchers = {&ssa};
    const auto outcome = engine.ProcessRequest(
        w.requests[static_cast<std::size_t>(fraction * 10) % w.requests.size()],
        matchers);
    const auto expected = std::min<std::uint64_t>(
        active,
        std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(fraction * active + 0.999999)));
    EXPECT_EQ(outcome.results[0].stats.scanned_cells, expected)
        << "fraction " << fraction;
  }
}

TEST(MatchStatsTest, DsaScansAtMostTwiceTheBudget) {
  World w = MakeWorld();
  EngineOptions eopts;
  eopts.num_vehicles = 20;
  Engine engine(&w.graph, w.grid.get(), eopts);
  DsaMatcher dsa(0.16);
  std::vector<Matcher*> matchers = {&dsa};
  const auto outcome = engine.ProcessRequest(w.requests[0], matchers);
  const std::size_t active = w.grid->num_active_cells();
  const auto limit = static_cast<std::uint64_t>(0.16 * active + 0.999999);
  EXPECT_LE(outcome.results[0].stats.scanned_cells, 2 * limit);
  EXPECT_GE(outcome.results[0].stats.scanned_cells, limit);
}

TEST(MatchStatsTest, BaselineNeverPrunes) {
  World w = MakeWorld();
  EngineOptions eopts;
  eopts.num_vehicles = 15;
  Engine engine(&w.graph, w.grid.get(), eopts);
  BaselineMatcher ba;
  std::vector<Matcher*> matchers = {&ba};
  for (std::size_t i = 0; i < 10; ++i) {
    const auto outcome = engine.ProcessRequest(w.requests[i], matchers);
    EXPECT_EQ(outcome.results[0].stats.pruned_cells, 0u);
    EXPECT_EQ(outcome.results[0].stats.pruned_vehicles, 0u);
    EXPECT_EQ(outcome.results[0].stats.scanned_cells, 0u);
    EXPECT_EQ(outcome.results[0].stats.verified_vehicles, 15u);
  }
}

TEST(MatchStatsTest, PruningCountersFireOverARun) {
  World w = MakeWorld(50);
  EngineOptions eopts;
  eopts.num_vehicles = 40;
  Engine engine(&w.graph, w.grid.get(), eopts);
  const RunStats stats = engine.RunPipelined(
      w.requests, testing::FactoryOf<BaselineMatcher>(), nullptr,
      {testing::FactoryOf<SsaMatcher>(0.5)});
  const MatchStats& totals = stats.matchers[1].totals;
  // A realistic run must exercise both pruning tiers.
  EXPECT_GT(totals.pruned_vehicles, 0u);
  EXPECT_GT(totals.pruned_cells, 0u);
  // And pruning must actually reduce verification below the fleet size.
  EXPECT_LT(stats.matchers[1].MeanVerified(), 40.0);
}

TEST(MatchStatsTest, LatencyDistributionMatchesTotals) {
  World w = MakeWorld();
  EngineOptions eopts;
  eopts.num_vehicles = 10;
  Engine engine(&w.graph, w.grid.get(), eopts);
  const RunStats stats =
      engine.RunPipelined(w.requests, testing::FactoryOf<BaselineMatcher>());
  const MatcherAggregate& agg = stats.matchers[0];
  ASSERT_EQ(agg.latency_ms.count(), w.requests.size());
  EXPECT_NEAR(agg.latency_ms.Sum(), agg.totals.elapsed_micros / 1e3, 1e-6);
  EXPECT_LE(agg.latency_ms.Percentile(50), agg.latency_ms.Percentile(95));
}

TEST(MatchStatsTest, UnservableRequestIsReportedUnserved) {
  World w = MakeWorld();
  EngineOptions eopts;
  eopts.num_vehicles = 6;
  eopts.vehicle_capacity = 1;  // a 2-rider group can never board
  Engine engine(&w.graph, w.grid.get(), eopts);
  BaselineMatcher ba;
  std::vector<Matcher*> matchers = {&ba};
  Request big = w.requests[0];
  big.riders = 2;
  const auto outcome = engine.ProcessRequest(big, matchers);
  EXPECT_FALSE(outcome.served);
  EXPECT_TRUE(outcome.results[0].options.empty());
  const RunStats stats =
      engine.RunPipelined({&big, 1}, testing::FactoryOf<BaselineMatcher>());
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.unserved, 1u);
}

}  // namespace
}  // namespace ptar
