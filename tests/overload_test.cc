// Robustness suite: deterministic work budgets, the overload controller's
// degradation ladder, engine-level shedding/partial skylines, and the
// schema-v2 run report that carries the robustness block. Registered under
// the compound `robustness-tsan` label so `ctest -L robustness` and the
// sanitize config's `ctest -L tsan` both pick it up; everything here is
// work-count-driven (no wall-clock deadlines), so results are bit-identical
// across thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/report.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "rideshare/work_budget.h"
#include "scenario_builder.h"
#include "sim/engine.h"
#include "sim/overload.h"
#include "sim/run_report.h"

namespace ptar {
namespace {

using testing::GridWorld;
using testing::MakeGridWorld;
using testing::MakeRequestStream;

TEST(WorkBudgetTest, DefaultIsUnlimited) {
  WorkBudget budget;
  EXPECT_FALSE(budget.limited());
  budget.Charge(1'000'000);
  EXPECT_FALSE(budget.Exhausted());
}

TEST(WorkBudgetTest, WorkUnitsExhaustDeterministically) {
  WorkBudget budget(10);
  EXPECT_TRUE(budget.limited());
  budget.Arm();
  budget.Charge(9);
  EXPECT_FALSE(budget.Exhausted());
  budget.Charge(1);
  EXPECT_TRUE(budget.Exhausted());
  // Arm() resets the spend but not the limit.
  budget.Arm();
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_EQ(budget.max_units(), 10u);
}

TEST(WorkBudgetTest, DeadlineLatchesOnceHit) {
  // A 1 us deadline armed in the past is immediately exhausted, and stays
  // exhausted (the latch) on every later check.
  WorkBudget budget(0, /*deadline_micros=*/1.0);
  budget.Arm();
  while (!budget.Exhausted()) {
  }
  EXPECT_TRUE(budget.deadline_hit());
  EXPECT_TRUE(budget.Exhausted());
}

TEST(OverloadControllerTest, DisabledWithoutBudgetOrDeadline) {
  OverloadController controller(OverloadOptions{});
  EXPECT_FALSE(controller.enabled());
  OverloadOptions with_budget;
  with_budget.request_budget = 100;
  EXPECT_TRUE(OverloadController(with_budget).enabled());
  OverloadOptions with_deadline;
  with_deadline.deadline_ms = 5.0;
  EXPECT_TRUE(OverloadController(with_deadline).enabled());
  EXPECT_DOUBLE_EQ(OverloadController(with_deadline).DeadlineMicros(),
                   5000.0);
}

TEST(OverloadControllerTest, LevelBudgetHalvesWithFloorOne) {
  OverloadOptions options;
  options.request_budget = 8;
  options.degrade_after = 1;
  options.recover_after = 1;
  OverloadController controller(options);
  EXPECT_EQ(controller.LevelBudget(), 8u);
  controller.Observe(0.0, /*budget_exhausted=*/true);
  EXPECT_EQ(controller.LevelBudget(), 4u);
  controller.Observe(0.0, true);
  EXPECT_EQ(controller.LevelBudget(), 2u);
  controller.Observe(0.0, true);
  EXPECT_EQ(controller.level(), DegradeLevel::kShed);
  // A deeper shift can never degrade a configured budget back to 0
  // ("unlimited"): the floor is 1.
  EXPECT_GE(controller.LevelBudget(), 1u);
}

TEST(OverloadControllerTest, BudgetForLevelFollowsHalvingSchedule) {
  OverloadOptions options;
  options.request_budget = 8;
  const OverloadController controller(options);
  // Explicit-level query (the pipeline arms a wave's requests at their
  // admission level even after the ladder moves): same halving schedule as
  // LevelBudget, floor 1, independent of the controller's current level.
  EXPECT_EQ(controller.BudgetForLevel(DegradeLevel::kFull), 8u);
  EXPECT_EQ(controller.BudgetForLevel(DegradeLevel::kSsa), 4u);
  EXPECT_EQ(controller.BudgetForLevel(DegradeLevel::kGridScan), 2u);
  EXPECT_EQ(controller.BudgetForLevel(DegradeLevel::kShed), 1u);
  // No configured budget stays "unlimited" at every level.
  OverloadOptions deadline_only;
  deadline_only.deadline_ms = 1.0;
  EXPECT_EQ(OverloadController(deadline_only)
                .BudgetForLevel(DegradeLevel::kGridScan),
            0u);
}

TEST(OverloadControllerTest, WorkerDeadlineHitIsBadWithoutGlobalClock) {
  // Pipeline regime: many requests match concurrently, so the controller
  // cannot infer overruns from one global wall clock. The worker budget's
  // latched deadline signal alone must mark the request bad — even with a
  // tiny elapsed time and an unexhausted work budget.
  OverloadOptions options;
  options.request_budget = 100;
  options.degrade_after = 1;
  OverloadController controller(options);
  const auto obs = controller.Observe(/*elapsed_micros=*/0.0,
                                      /*budget_exhausted=*/false,
                                      /*worker_deadline_hit=*/true);
  EXPECT_TRUE(obs.bad);
  EXPECT_TRUE(obs.deadline_missed);
  EXPECT_EQ(controller.level(), DegradeLevel::kSsa);
  // And the default (no worker signal) stays good.
  const auto ok = controller.Observe(0.0, false);
  EXPECT_FALSE(ok.bad);
}

TEST(OverloadControllerTest, LadderDegradesAndRecoversWithHysteresis) {
  OverloadOptions options;
  options.request_budget = 100;
  options.degrade_after = 2;
  options.recover_after = 3;
  OverloadController controller(options);

  // One bad request is not enough.
  controller.Observe(0.0, true);
  EXPECT_EQ(controller.level(), DegradeLevel::kFull);
  // A good request resets the bad streak.
  controller.Observe(0.0, false);
  controller.Observe(0.0, true);
  EXPECT_EQ(controller.level(), DegradeLevel::kFull);
  // Two consecutive bad requests move exactly one level.
  const auto obs = controller.Observe(0.0, true);
  EXPECT_EQ(obs.level_delta, 1);
  EXPECT_EQ(controller.level(), DegradeLevel::kSsa);

  // Degrade all the way; the ladder saturates at kShed.
  for (int i = 0; i < 10; ++i) controller.Observe(0.0, true);
  EXPECT_EQ(controller.level(), DegradeLevel::kShed);

  // Recovery needs `recover_after` consecutive good requests per level.
  controller.Observe(0.0, false);
  controller.Observe(0.0, false);
  EXPECT_EQ(controller.level(), DegradeLevel::kShed);
  const auto up = controller.Observe(0.0, false);
  EXPECT_EQ(up.level_delta, -1);
  EXPECT_EQ(controller.level(), DegradeLevel::kGridScan);
  // The streak reset on the transition: two good requests do not yet
  // recover the next level.
  controller.Observe(0.0, false);
  controller.Observe(0.0, false);
  EXPECT_EQ(controller.level(), DegradeLevel::kGridScan);
  controller.Observe(0.0, false);
  EXPECT_EQ(controller.level(), DegradeLevel::kSsa);
}

TEST(OverloadControllerTest, DeadlineMissIsBad) {
  OverloadOptions options;
  options.deadline_ms = 1.0;  // 1000 us
  options.degrade_after = 1;
  OverloadController controller(options);
  const auto ok = controller.Observe(/*elapsed_micros=*/900.0, false);
  EXPECT_FALSE(ok.bad);
  const auto missed = controller.Observe(/*elapsed_micros=*/1100.0, false);
  EXPECT_TRUE(missed.bad);
  EXPECT_TRUE(missed.deadline_missed);
  EXPECT_EQ(controller.level(), DegradeLevel::kSsa);
}

TEST(OverloadControllerTest, LevelNames) {
  EXPECT_STREQ(DegradeLevelName(DegradeLevel::kFull), "full");
  EXPECT_STREQ(DegradeLevelName(DegradeLevel::kSsa), "ssa");
  EXPECT_STREQ(DegradeLevelName(DegradeLevel::kGridScan), "grid_scan");
  EXPECT_STREQ(DegradeLevelName(DegradeLevel::kShed), "shed");
}

TEST(OverloadControllerTest, SloAloneEnablesTheController) {
  OverloadOptions options;
  options.slo_p99_us = 5000.0;
  OverloadController controller(options);
  EXPECT_TRUE(controller.enabled());
  EXPECT_EQ(controller.LevelBudget(), 0u);  // Still no work budget.
}

TEST(OverloadControllerTest, ObserveWindowDegradesOnViolation) {
  OverloadOptions options;
  options.slo_p99_us = 1000.0;
  OverloadController controller(options);

  // A violating window degrades immediately — no streak needed.
  const auto violated = controller.ObserveWindow(
      /*p99_commit_us=*/1500.0, /*shed_rate=*/0.0, /*window_requests=*/20);
  EXPECT_TRUE(violated.bad);
  EXPECT_TRUE(violated.deadline_missed);
  EXPECT_EQ(violated.level_delta, 1);
  EXPECT_EQ(controller.level(), DegradeLevel::kSsa);

  // A merely-OK window (between slo/2 and slo) holds the level.
  const auto held = controller.ObserveWindow(800.0, 0.0, 20);
  EXPECT_EQ(held.level_delta, 0);
  EXPECT_EQ(controller.level(), DegradeLevel::kSsa);

  // A clearly healthy window (p99 < slo/2, nothing shed) recovers
  // immediately.
  const auto healthy = controller.ObserveWindow(300.0, 0.0, 20);
  EXPECT_EQ(healthy.level_delta, -1);
  EXPECT_EQ(controller.level(), DegradeLevel::kFull);

  // Healthy latency but shed traffic does not recover.
  controller.ObserveWindow(1500.0, 0.0, 20);
  ASSERT_EQ(controller.level(), DegradeLevel::kSsa);
  const auto still_shedding = controller.ObserveWindow(300.0, 0.1, 20);
  EXPECT_EQ(still_shedding.level_delta, 0);
  EXPECT_EQ(controller.level(), DegradeLevel::kSsa);
}

TEST(OverloadControllerTest, ObserveWindowSaturatesAndIgnoresEmptyWindows) {
  OverloadOptions options;
  options.slo_p99_us = 1000.0;
  OverloadController controller(options);

  for (int i = 0; i < 6; ++i) controller.ObserveWindow(5000.0, 0.5, 10);
  EXPECT_EQ(controller.level(), DegradeLevel::kShed);  // Saturated.

  // Empty windows (a quiet stream) carry no signal either way.
  const auto empty = controller.ObserveWindow(0.0, 0.0, 0);
  EXPECT_EQ(empty.level_delta, 0);
  EXPECT_EQ(controller.level(), DegradeLevel::kShed);

  // With slo_p99_us unset the window path is inert even when enabled via
  // a work budget.
  OverloadOptions budget_only;
  budget_only.request_budget = 100;
  OverloadController inert(budget_only);
  const auto noop = inert.ObserveWindow(1e9, 1.0, 100);
  EXPECT_EQ(noop.level_delta, 0);
  EXPECT_EQ(inert.level(), DegradeLevel::kFull);
}

TEST(OverloadControllerTest, ObserveWindowResetsRequestStreaks) {
  OverloadOptions options;
  options.request_budget = 100;
  options.slo_p99_us = 1000.0;
  options.degrade_after = 2;
  OverloadController controller(options);

  // One bad request, then a violating window: the window takes the level
  // and resets the per-request streak, so the next bad request starts a
  // fresh streak instead of compounding into a double degrade.
  controller.Observe(0.0, true);
  controller.ObserveWindow(2000.0, 0.0, 10);
  ASSERT_EQ(controller.level(), DegradeLevel::kSsa);
  controller.Observe(0.0, true);
  EXPECT_EQ(controller.level(), DegradeLevel::kSsa) << "streak leaked";
}

// --- Engine-level determinism and degradation. ---

struct ReplayResult {
  std::vector<Engine::RequestOutcome> outcomes;
  RunStats stats;
};

ReplayResult ReplayWithBudget(const GridWorld& world,
                              const std::vector<Request>& requests,
                              int threads, std::uint64_t request_budget) {
  EngineOptions eopts;
  eopts.num_vehicles = 25;
  eopts.seed = 5;
  eopts.engine_threads = threads;
  eopts.overload.request_budget = request_budget;
  eopts.audit_after_commit = false;  // Keep runs comparable across builds.
  Engine engine(world.graph.get(), world.grid.get(), eopts);
  BaselineMatcher ba;
  SsaMatcher ssa(1.0);
  DsaMatcher dsa(1.0);
  std::vector<Matcher*> matchers = {&ba, &ssa, &dsa};

  ReplayResult result;
  for (const Request& request : requests) {
    result.outcomes.push_back(engine.ProcessRequest(request, matchers));
    const Engine::RequestOutcome& outcome = result.outcomes.back();
    result.stats.ladder_requests[static_cast<int>(outcome.degrade_level)]++;
    if (outcome.shed()) ++result.stats.shed_requests;
  }
  return result;
}

TEST(EngineOverloadTest, FixedBudgetIsBitIdenticalAcrossThreadCounts) {
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests = MakeRequestStream(
      *world.graph, {.num_requests = 25, .seed = 11});

  // A budget small enough that many results truncate, so the comparison
  // covers the partial-skyline path, not just the complete one.
  const ReplayResult serial = ReplayWithBudget(world, requests, 1, 60);
  const ReplayResult pooled = ReplayWithBudget(world, requests, 4, 60);

  ASSERT_EQ(serial.outcomes.size(), pooled.outcomes.size());
  std::uint64_t partial = 0;
  for (std::size_t r = 0; r < serial.outcomes.size(); ++r) {
    const Engine::RequestOutcome& a = serial.outcomes[r];
    const Engine::RequestOutcome& b = pooled.outcomes[r];
    ASSERT_EQ(a.results.size(), b.results.size()) << "request " << r;
    EXPECT_EQ(a.degrade_level, b.degrade_level) << "request " << r;
    EXPECT_EQ(a.shed(), b.shed()) << "request " << r;
    EXPECT_EQ(a.served, b.served) << "request " << r;
    for (std::size_t m = 0; m < a.results.size(); ++m) {
      EXPECT_EQ(a.Evaluated(m), b.Evaluated(m));
      if (!a.Evaluated(m)) continue;
      const MatchResult& ra = a.results[m];
      const MatchResult& rb = b.results[m];
      EXPECT_EQ(ra.complete, rb.complete) << "request " << r << " slot " << m;
      if (!ra.complete) ++partial;
      ASSERT_EQ(ra.options.size(), rb.options.size())
          << "request " << r << " slot " << m;
      for (std::size_t i = 0; i < ra.options.size(); ++i) {
        EXPECT_EQ(ra.options[i].vehicle, rb.options[i].vehicle);
        // Bit-identical, not merely close: per-slot budgets are
        // deterministic, so the worker a slot ran on cannot matter.
        EXPECT_EQ(ra.options[i].pickup_dist, rb.options[i].pickup_dist);
        EXPECT_EQ(ra.options[i].price, rb.options[i].price);
      }
    }
  }
  EXPECT_GT(partial, 0u) << "budget 400 never truncated: test is vacuous";
  EXPECT_EQ(serial.stats.shed_requests, pooled.stats.shed_requests);
  EXPECT_EQ(serial.stats.ladder_requests, pooled.stats.ladder_requests);
}

TEST(EngineOverloadTest, TinyBudgetWalksLadderToShedAndRecovers) {
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests = MakeRequestStream(
      *world.graph, {.num_requests = 40, .seed = 4});

  EngineOptions eopts;
  eopts.num_vehicles = 25;
  eopts.seed = 5;
  eopts.overload.request_budget = 1;  // Every matched request exhausts.
  eopts.overload.degrade_after = 1;
  eopts.overload.recover_after = 2;
  eopts.audit_after_commit = false;
  Engine engine(world.graph.get(), world.grid.get(), eopts);

  const RunStats stats = engine.RunPipelined(
      requests, [] { return std::make_unique<SsaMatcher>(0.16); });

  // The ladder was actually walked: some requests ran degraded, some were
  // shed, and sheds count as unserved.
  EXPECT_GT(stats.ladder_requests[static_cast<int>(DegradeLevel::kSsa)], 0u);
  EXPECT_GT(stats.shed_requests, 0u);
  EXPECT_EQ(stats.shed_requests,
            stats.ladder_requests[static_cast<int>(DegradeLevel::kShed)]);
  EXPECT_GT(stats.partial_skylines, 0u);
  std::uint64_t ladder_total = 0;
  for (const std::uint64_t n : stats.ladder_requests) ladder_total += n;
  EXPECT_EQ(ladder_total, requests.size());
  // recover_after=2 consecutive sheds step the ladder back, so shedding
  // cannot absorb the whole tail of the stream.
  EXPECT_LT(stats.shed_requests, requests.size());
  EXPECT_EQ(stats.served + stats.unserved, requests.size());

  // Shed counts live in RunStats only; degrade/* counts ladder moves.
  EXPECT_FALSE(engine.metrics().counters().contains("degrade/shed_requests"));
  EXPECT_GT(engine.metrics().Counter("degrade/level_up"), 0u);
  EXPECT_GT(engine.metrics().Counter("degrade/level_down"), 0u);
}

TEST(EngineOverloadTest, ShedRequestCarriesExplicitStatus) {
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests = MakeRequestStream(
      *world.graph, {.num_requests = 30, .seed = 4});

  EngineOptions eopts;
  eopts.num_vehicles = 25;
  eopts.seed = 5;
  eopts.overload.request_budget = 1;
  eopts.overload.degrade_after = 1;
  eopts.overload.recover_after = 100;  // Stay shedding once there.
  eopts.audit_after_commit = false;
  Engine engine(world.graph.get(), world.grid.get(), eopts);
  SsaMatcher ssa(0.16);
  std::vector<Matcher*> matchers = {&ssa};

  bool saw_shed = false;
  for (const Request& request : requests) {
    const Engine::RequestOutcome outcome =
        engine.ProcessRequest(request, matchers);
    if (!outcome.shed()) {
      EXPECT_TRUE(outcome.status().ok());
      continue;
    }
    saw_shed = true;
    EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
    EXPECT_FALSE(outcome.served);
    EXPECT_EQ(outcome.degrade_level, DegradeLevel::kShed);
    for (std::size_t s = 0; s < outcome.results.size(); ++s) {
      EXPECT_FALSE(outcome.Evaluated(s));
    }
  }
  ASSERT_TRUE(saw_shed);
  EXPECT_EQ(engine.degrade_level(), DegradeLevel::kShed);
}

TEST(EngineOverloadTest, SloWindowThatShedNeverRecoversTheLadder) {
  // The engine closes each 60 s window and feeds its p99 and shed rate to
  // the ladder. The SLO target is unreachable, so only the shed rate can
  // keep a window from counting as healthy.
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests = MakeRequestStream(
      *world.graph,
      {.num_requests = 60, .duration_seconds = 600.0, .seed = 4});

  EngineOptions eopts;
  eopts.num_vehicles = 25;
  eopts.seed = 5;
  eopts.overload.request_budget = 1;  // Every matched request exhausts.
  eopts.overload.degrade_after = 1;
  eopts.overload.recover_after = 1000;  // No per-request recovery.
  eopts.overload.slo_p99_us = 1e12;
  eopts.telemetry.window_seconds = 60.0;
  eopts.audit_after_commit = false;
  Engine engine(world.graph.get(), world.grid.get(), eopts);
  const RunStats stats = engine.RunPipelined(
      requests, [] { return std::make_unique<SsaMatcher>(0.16); });

  // Three exhausted requests walk the ladder to kShed, and every later
  // window holds sheds, so none of them is healthy enough to recover.
  EXPECT_EQ(stats.shed_requests, 57u);
  EXPECT_EQ(engine.metrics().Counter("degrade/slo_level_down"), 0u);
  EXPECT_EQ(engine.metrics().Counter("degrade/slo_violations"), 0u);
}

// --- Schema-v2 report round-trip and back-compat. ---

TEST(ReportRobustnessTest, RunReportRoundTripsThroughSummary) {
  obs::RunReport report;
  report.tool = "overload_test";
  report.served = 31;
  report.unserved = 9;
  report.shared = 12;
  report.shed_requests = 7;
  report.partial_skylines = 5;
  report.ladder_requests = {20, 10, 6, 4};

  const std::string json = obs::RunReportToJson(report);
  const auto summary = obs::ParseReportSummary(json);
  ASSERT_TRUE(summary.ok()) << summary.status().message();
  EXPECT_EQ(summary->schema_version, obs::kReportSchemaVersion);
  EXPECT_EQ(summary->served, 31u);
  EXPECT_EQ(summary->unserved, 9u);
  EXPECT_EQ(summary->shared, 12u);
  EXPECT_EQ(summary->shed_requests, 7u);
  EXPECT_EQ(summary->partial_skylines, 5u);
  EXPECT_EQ(summary->ladder_requests,
            (std::array<std::uint64_t, 4>{20, 10, 6, 4}));
}

TEST(ReportRobustnessTest, EngineRunFeedsRobustnessBlock) {
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests = MakeRequestStream(
      *world.graph, {.num_requests = 30, .seed = 4});
  EngineOptions eopts;
  eopts.num_vehicles = 25;
  eopts.overload.request_budget = 1;
  eopts.overload.degrade_after = 1;
  eopts.audit_after_commit = false;
  Engine engine(world.graph.get(), world.grid.get(), eopts);
  const RunStats stats = engine.RunPipelined(
      requests, [] { return std::make_unique<SsaMatcher>(0.16); });

  const obs::RunReport report =
      BuildRunReport(stats, engine.metrics(), "overload_test");
  const auto summary = obs::ParseReportSummary(obs::RunReportToJson(report));
  ASSERT_TRUE(summary.ok()) << summary.status().message();
  EXPECT_EQ(summary->shed_requests, stats.shed_requests);
  EXPECT_EQ(summary->partial_skylines, stats.partial_skylines);
  EXPECT_EQ(summary->ladder_requests, stats.ladder_requests);
}

TEST(ReportRobustnessTest, V1ReportParsesWithZeroRobustness) {
  // Golden v1 fragment (pre-robustness schema): the reader must accept it
  // and default the whole robustness block to zero.
  const std::string v1 =
      "{\n"
      "  \"schema_version\": 1,\n"
      "  \"tool\": \"ptar_cli simulate\",\n"
      "  \"served\": 42,\n"
      "  \"unserved\": 3,\n"
      "  \"shared\": 17,\n"
      "  \"matchers\": [],\n"
      "  \"metrics\": {\"counters\": {}, \"histograms\": {}}\n"
      "}\n";
  const auto summary = obs::ParseReportSummary(v1);
  ASSERT_TRUE(summary.ok()) << summary.status().message();
  EXPECT_EQ(summary->schema_version, 1);
  EXPECT_EQ(summary->served, 42u);
  EXPECT_EQ(summary->unserved, 3u);
  EXPECT_EQ(summary->shared, 17u);
  EXPECT_EQ(summary->shed_requests, 0u);
  EXPECT_EQ(summary->partial_skylines, 0u);
  EXPECT_EQ(summary->ladder_requests, (std::array<std::uint64_t, 4>{}));
}

TEST(ReportRobustnessTest, RejectsMissingOrNewerSchema) {
  EXPECT_FALSE(obs::ParseReportSummary("{\"served\": 1}").ok());
  EXPECT_FALSE(
      obs::ParseReportSummary("{\"schema_version\": 99, \"served\": 1}")
          .ok());
}

}  // namespace
}  // namespace ptar
