// Matching-algorithm tests. The central property: with 100 % of grid cells
// verified, SSA and DSA return exactly the baseline's non-dominated option
// set on every request of a dynamic scenario — the pruning lemmas never
// change results, only work.

#include <gtest/gtest.h>

#include <memory>

#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "tests/test_util.h"

namespace ptar {
namespace {

struct Scenario {
  RoadNetwork graph;
  std::unique_ptr<GridIndex> grid;
  std::vector<Request> requests;
};

Scenario MakeScenario(std::uint64_t seed, int rows, int cols,
                      std::size_t num_requests, double cell_size,
                      double epsilon = 0.5, double waiting_minutes = 3.0) {
  Scenario sc;
  GridCityOptions copts;
  copts.rows = rows;
  copts.cols = cols;
  copts.seed = seed;
  auto g = MakeGridCity(copts);
  PTAR_CHECK(g.ok());
  sc.graph = std::move(g).value();
  auto grid = GridIndex::Build(&sc.graph, {.cell_size_meters = cell_size});
  PTAR_CHECK(grid.ok());
  sc.grid = std::make_unique<GridIndex>(std::move(grid).value());
  WorkloadOptions wopts;
  wopts.num_requests = num_requests;
  wopts.duration_seconds = 900.0;
  wopts.epsilon = epsilon;
  wopts.waiting_minutes = waiting_minutes;
  wopts.seed = seed + 1;
  auto reqs = GenerateWorkload(sc.graph, wopts);
  PTAR_CHECK(reqs.ok());
  sc.requests = std::move(reqs).value();
  return sc;
}

std::string Describe(const Option& o) {
  return "vehicle " + std::to_string(o.vehicle) + " pickup " +
         std::to_string(o.pickup_dist) + " price " + std::to_string(o.price);
}

class MatcherEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MatcherEquivalenceTest, FullSearchMatchesBaselineOnEveryRequest) {
  Scenario sc = MakeScenario(GetParam(), 12, 12, 50, 300.0);
  EngineOptions eopts;
  eopts.num_vehicles = 25;
  eopts.seed = GetParam() * 31 + 7;
  Engine engine(&sc.graph, sc.grid.get(), eopts);

  BaselineMatcher ba;
  SsaMatcher ssa(1.0);
  DsaMatcher dsa(1.0);
  std::vector<Matcher*> matchers = {&ba, &ssa, &dsa};

  std::size_t nonempty_results = 0;
  std::size_t multi_option_results = 0;
  for (const Request& request : sc.requests) {
    const Engine::RequestOutcome outcome =
        engine.ProcessRequest(request, matchers);
    const auto& exact = outcome.results[0].options;
    if (!exact.empty()) ++nonempty_results;
    if (exact.size() > 1) ++multi_option_results;
    for (std::size_t m = 1; m < outcome.results.size(); ++m) {
      const auto& approx = outcome.results[m].options;
      ASSERT_EQ(approx.size(), exact.size())
          << "request " << request.id << " matcher " << m;
      for (std::size_t i = 0; i < exact.size(); ++i) {
        EXPECT_EQ(approx[i].vehicle, exact[i].vehicle)
            << "request " << request.id << ": " << Describe(approx[i])
            << " vs " << Describe(exact[i]);
        EXPECT_NEAR(approx[i].pickup_dist, exact[i].pickup_dist, 1e-6);
        EXPECT_NEAR(approx[i].price, exact[i].price, 1e-6);
      }
    }
    // Pruning can only reduce work, never add it.
    EXPECT_LE(outcome.results[1].stats.compdists,
              outcome.results[0].stats.compdists);
    EXPECT_LE(outcome.results[1].stats.verified_vehicles,
              outcome.results[0].stats.verified_vehicles);
  }
  // The scenario must be non-trivial.
  EXPECT_GT(nonempty_results, sc.requests.size() / 2);
  EXPECT_GT(multi_option_results, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(MatcherTest, BaselineVerifiesWholeFleet) {
  Scenario sc = MakeScenario(9, 10, 10, 10, 250.0);
  EngineOptions eopts;
  eopts.num_vehicles = 15;
  Engine engine(&sc.graph, sc.grid.get(), eopts);
  BaselineMatcher ba;
  std::vector<Matcher*> matchers = {&ba};
  for (const Request& request : sc.requests) {
    const auto outcome = engine.ProcessRequest(request, matchers);
    EXPECT_EQ(outcome.results[0].stats.verified_vehicles, 15u);
  }
}

TEST(MatcherTest, PartialSearchNeverInventsOptions) {
  // At partial coverage, every option a partial search returns must be an
  // exactly achievable (vehicle, pickup, price) triple — i.e. present in
  // the baseline's *pre-skyline* candidate space. We verify the weaker but
  // still strong form: each returned option is not strictly better than
  // the exact skyline (nothing dominates an exact-skyline member).
  Scenario sc = MakeScenario(11, 12, 12, 40, 300.0);
  EngineOptions eopts;
  eopts.num_vehicles = 25;
  Engine engine(&sc.graph, sc.grid.get(), eopts);
  BaselineMatcher ba;
  SsaMatcher ssa(0.16);
  DsaMatcher dsa(0.16);
  std::vector<Matcher*> matchers = {&ba, &ssa, &dsa};
  for (const Request& request : sc.requests) {
    const auto outcome = engine.ProcessRequest(request, matchers);
    for (std::size_t m = 1; m < outcome.results.size(); ++m) {
      for (const Option& o : outcome.results[m].options) {
        for (const Option& e : outcome.results[0].options) {
          EXPECT_FALSE(Dominates(o, e))
              << Describe(o) << " dominates exact " << Describe(e);
        }
      }
    }
  }
}

TEST(MatcherTest, DeterministicAcrossIdenticalRuns) {
  for (int trial = 0; trial < 2; ++trial) {
    static std::vector<double> first_prices;
    Scenario sc = MakeScenario(21, 10, 10, 20, 250.0);
    EngineOptions eopts;
    eopts.num_vehicles = 12;
    eopts.seed = 5;
    Engine engine(&sc.graph, sc.grid.get(), eopts);
    BaselineMatcher ba;
    std::vector<Matcher*> matchers = {&ba};
    std::vector<double> prices;
    for (const Request& request : sc.requests) {
      const auto outcome = engine.ProcessRequest(request, matchers);
      for (const Option& o : outcome.results[0].options) {
        prices.push_back(o.price);
      }
    }
    if (trial == 0) {
      first_prices = prices;
    } else {
      EXPECT_EQ(prices, first_prices);
    }
  }
}

TEST(MatcherTest, NamesAreStable) {
  EXPECT_EQ(BaselineMatcher().name(), "BA");
  EXPECT_EQ(SsaMatcher().name(), "SSA");
  EXPECT_EQ(DsaMatcher().name(), "DSA");
  EXPECT_DOUBLE_EQ(SsaMatcher().fraction(), 0.16);
  EXPECT_DOUBLE_EQ(DsaMatcher(0.5).fraction(), 0.5);
}

TEST(MatcherDeathTest, StaleTreeStopsAtEnumerateInsertions) {
  // Matchers read the fleet; they never repair it. The engine refreshes
  // every stale tree before a match round, so a stale tree that reaches a
  // matcher stops at the tree's own CHECK.
  const RoadNetwork graph = testing::MakeSmallGrid();
  DistanceOracle oracle(&graph);
  const KineticTree::DistFn dist = [&oracle](VertexId a, VertexId b) {
    return oracle.Dist(a, b);
  };
  const auto request = [](RequestId id, VertexId s, VertexId d) {
    Request r;
    r.id = id;
    r.start = s;
    r.destination = d;
    r.max_wait_dist = 600.0;
    r.epsilon = 3.0;
    return r;
  };
  std::vector<KineticTree> fleet;
  fleet.emplace_back(/*vehicle=*/0, /*location=*/4, /*capacity=*/4);
  KineticTree& tree = fleet.front();
  const Request r1 = request(1, 3, 5);
  ASSERT_TRUE(tree.Commit(r1, oracle.Dist(3, 5), oracle.Dist(4, 3), dist).ok());
  const Request r2 = request(2, 1, 7);
  const std::vector<InsertionCandidate> candidates =
      tree.EnumerateInsertions(r2, oracle.Dist(1, 7), dist, InsertionHooks{});
  ASSERT_FALSE(candidates.empty());
  ASSERT_TRUE(tree.Commit(r2, oracle.Dist(1, 7),
                          candidates.front().pickup_dist, dist)
                  .ok());
  ASSERT_GT(tree.num_branches(), 1u) << "need a multi-branch tree";
  // One edge along the active first leg leaves the other branches stale.
  DijkstraEngine engine(&graph);
  const VertexId target = tree.NextStopLocation();
  engine.PointToPoint(tree.location(), target);
  const std::vector<VertexId> path = engine.PathTo(target);
  ASSERT_GE(path.size(), 2u);
  tree.MoveTo(path[1], oracle.Dist(path[0], path[1]));
  ASSERT_TRUE(tree.stale());

  MatchContext ctx;
  ctx.fleet = &fleet;
  ctx.oracle = &oracle;
  BaselineMatcher ba;
  EXPECT_DEATH(ba.Match(request(3, 0, 8), ctx),
               "Refresh\\(\\) the tree before enumerating insertions");
}

}  // namespace
}  // namespace ptar
