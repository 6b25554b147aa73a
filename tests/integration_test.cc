// End-to-end integration: a mid-sized city, all three matchers evaluated in
// shadow on the same request stream, checking the paper's qualitative
// relationships (pruning reduces verified vehicles and compdists; partial
// search keeps precision/recall within bounds; the system stays consistent).

#include <gtest/gtest.h>

#include <memory>

#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "tests/scenario_builder.h"

namespace ptar {
namespace {

using testing::FactoryOf;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::GridWorldOptions copts;
    copts.rows = 18;
    copts.cols = 18;
    copts.seed = 101;
    world_ = testing::MakeGridWorld(copts);

    testing::RequestStreamOptions wopts;
    wopts.num_requests = 60;
    wopts.duration_seconds = 1200.0;
    wopts.epsilon = 0.4;
    wopts.waiting_minutes = 3.0;
    wopts.seed = 55;
    requests_ = testing::MakeRequestStream(*world_.graph, wopts);
  }

  // The grid holds a pointer into world_.graph, so the pair moves as one.
  testing::GridWorld world_;
  std::vector<Request> requests_;
};

TEST_F(IntegrationTest, ShadowComparisonReproducesPaperRelationships) {
  EngineOptions eopts;
  eopts.num_vehicles = 40;
  eopts.seed = 9;
  Engine engine(world_.graph.get(), world_.grid.get(), eopts);

  const RunStats stats = engine.RunPipelined(
      requests_, FactoryOf<BaselineMatcher>(), nullptr,
      {FactoryOf<SsaMatcher>(0.16), FactoryOf<DsaMatcher>(0.16)});

  ASSERT_EQ(stats.matchers.size(), 3u);
  const MatcherAggregate& agg_ba = stats.matchers[0];
  const MatcherAggregate& agg_ssa = stats.matchers[1];
  const MatcherAggregate& agg_dsa = stats.matchers[2];

  // Everyone answered every request.
  EXPECT_EQ(agg_ba.requests, requests_.size());
  EXPECT_EQ(agg_ssa.requests, requests_.size());
  EXPECT_GT(stats.served, requests_.size() * 3 / 4);

  // BA verifies the whole fleet on every request; the index-based searches
  // verify fewer vehicles and compute fewer distances (the paper's headline
  // relationship).
  EXPECT_DOUBLE_EQ(agg_ba.MeanVerified(), 40.0);
  EXPECT_LT(agg_ssa.MeanVerified(), agg_ba.MeanVerified());
  EXPECT_LT(agg_dsa.MeanVerified(), agg_ba.MeanVerified() + 1e-9);
  EXPECT_LT(agg_ssa.MeanCompdists(), agg_ba.MeanCompdists());
  EXPECT_LT(agg_dsa.MeanCompdists(), agg_ba.MeanCompdists());

  // DSA's dual-side filter verifies no more vehicles than SSA on average.
  EXPECT_LE(agg_dsa.MeanVerified(), agg_ssa.MeanVerified() + 1e-9);

  // Quality bounds (Table III): precision/recall are probabilities; the
  // reference matcher scores exactly 1.
  EXPECT_DOUBLE_EQ(agg_ba.MeanPrecision(), 1.0);
  EXPECT_DOUBLE_EQ(agg_ba.MeanRecall(), 1.0);
  for (const MatcherAggregate* agg : {&agg_ssa, &agg_dsa}) {
    EXPECT_GE(agg->MeanPrecision(), 0.0);
    EXPECT_LE(agg->MeanPrecision(), 1.0);
    EXPECT_GE(agg->MeanRecall(), 0.0);
    EXPECT_LE(agg->MeanRecall(), 1.0);
    // Partial search still finds the bulk of the exact skyline in practice.
    EXPECT_GT(agg->MeanRecall(), 0.5);
  }
}

TEST_F(IntegrationTest, FullCoverageSearchIsExactOverWholeRun) {
  EngineOptions eopts;
  eopts.num_vehicles = 30;
  eopts.seed = 4;
  Engine engine(world_.graph.get(), world_.grid.get(), eopts);

  const RunStats stats = engine.RunPipelined(
      requests_, FactoryOf<BaselineMatcher>(), nullptr,
      {FactoryOf<SsaMatcher>(1.0), FactoryOf<DsaMatcher>(1.0)});

  // Full-coverage SSA and DSA agree with BA on every request, so their
  // aggregate precision and recall are exactly 1.
  EXPECT_DOUBLE_EQ(stats.matchers[1].MeanPrecision(), 1.0);
  EXPECT_DOUBLE_EQ(stats.matchers[1].MeanRecall(), 1.0);
  EXPECT_DOUBLE_EQ(stats.matchers[2].MeanPrecision(), 1.0);
  EXPECT_DOUBLE_EQ(stats.matchers[2].MeanRecall(), 1.0);
  EXPECT_EQ(stats.matchers[1].options_sum, stats.matchers[0].options_sum);
  EXPECT_EQ(stats.matchers[2].options_sum, stats.matchers[0].options_sum);
}

TEST_F(IntegrationTest, GridAndTreeMemoryAccountingBehaveLikeTableIV) {
  auto coarse = GridIndex::Build(world_.graph.get(), {.cell_size_meters = 600.0});
  auto fine = GridIndex::Build(world_.graph.get(), {.cell_size_meters = 150.0});
  ASSERT_TRUE(coarse.ok() && fine.ok());
  // Grid-index memory grows steeply as cells shrink.
  EXPECT_GT(fine->MemoryBytes(), coarse->MemoryBytes());

  // Kinetic-tree memory is independent of the grid resolution.
  EngineOptions eopts;
  eopts.num_vehicles = 20;
  Engine coarse_engine(world_.graph.get(), &*coarse, eopts);
  Engine fine_engine(world_.graph.get(), &*fine, eopts);
  coarse_engine.RunPipelined(requests_, FactoryOf<BaselineMatcher>());
  const std::size_t coarse_tree_bytes =
      coarse_engine.KineticTreeMemoryBytes();
  fine_engine.RunPipelined(requests_, FactoryOf<BaselineMatcher>());
  const std::size_t fine_tree_bytes = fine_engine.KineticTreeMemoryBytes();
  // Same fleet, same workload: tree memory within a small factor.
  EXPECT_LT(
      std::abs(static_cast<double>(coarse_tree_bytes) -
               static_cast<double>(fine_tree_bytes)),
      0.5 * static_cast<double>(coarse_tree_bytes) + 4096.0);
}

}  // namespace
}  // namespace ptar
