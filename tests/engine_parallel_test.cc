// Request-parallel pipeline suite (DESIGN.md §12): commit parity between
// thread counts on many seeds (the `--serial_check` contract as a unit
// test), the GeoPrune prefilter and kinetic-tree cap counters on pipelined
// runs, deterministic id-ordered conflict arbitration when two requests
// want the same vehicle (shadow slots measured on round 0 only),
// overload-ladder accounting under waved admission, mid-run fleet audits
// against the quiesce lock, and the schema-v3 pipeline report block. The
// one-request-wave equivalence with the engine's former per-request loop
// lives in golden_log_test. Registered under the compound
// `engine-parallel-tsan` label so both `ctest -L engine-parallel` and the
// sanitize config's `ctest -L tsan` select it; everything except the
// audit test is single-seeded deterministic work (no wall-clock
// deadlines), and the audit test is the one that genuinely races an
// auditor thread against the pipeline for tsan to chew on.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/report.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "scenario_builder.h"
#include "sim/engine.h"
#include "sim/run_report.h"

namespace ptar {
namespace {

using testing::GridWorld;
using testing::MakeGridWorld;
using testing::MakeRequestStream;

MatcherFactory SsaFactory() {
  // Fraction 1.0: verify every candidate, so skylines (and hence conflicts)
  // are as dense as the tiny worlds allow.
  return [] { return std::make_unique<SsaMatcher>(1.0); };
}

struct PipeRun {
  RunStats stats;
  std::vector<CommitRecord> log;
  obs::MetricsRegistry metrics;
};

PipeRun RunPipe(const GridWorld& world, std::span<const Request> requests,
                int threads, int wave_size,
                const std::function<void(EngineOptions&)>& tweak = {}) {
  EngineOptions eopts;
  eopts.num_vehicles = 8;
  eopts.seed = 7;
  eopts.engine_threads = threads;
  eopts.wave_size = wave_size;
  eopts.audit_after_commit = false;  // Keep runs comparable across builds.
  if (tweak) tweak(eopts);
  Engine engine(world.graph.get(), world.grid.get(), eopts);
  PipeRun run;
  run.stats = engine.RunPipelined(requests, SsaFactory(), &run.log);
  run.metrics.MergeFrom(engine.metrics());
  return run;
}

// --- The serial_check contract, as a many-seed unit test. ---

TEST(EngineParallelTest, CommitParityAcrossThreadCountsOn50Seeds) {
  const GridWorld world = MakeGridWorld();
  std::uint64_t total_conflicts = 0;
  for (int seed = 0; seed < 50; ++seed) {
    SCOPED_TRACE("stream seed " + std::to_string(seed));
    // Short duration: a wave of 6 holds near-simultaneous requests, so
    // the same few vehicles are contested and conflicts actually happen.
    const std::vector<Request> requests =
        MakeRequestStream(*world.graph, {.num_requests = 12,
                                         .duration_seconds = 120.0,
                                         .seed = 100u + seed});
    // wave_size pinned, never auto: auto resolves to 2 * engine_threads
    // and the determinism contract only holds for a fixed wave size.
    const PipeRun serial = RunPipe(world, requests, /*threads=*/1,
                                   /*wave_size=*/6);
    ASSERT_EQ(serial.log.size(), requests.size());
    total_conflicts += serial.stats.conflicts;
    for (const int threads : {4, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      const PipeRun parallel = RunPipe(world, requests, threads, 6);
      // CommitRecord operator== is exact (==, not NEAR): served flag,
      // vehicle, pickup distance, and price must all be bit-identical.
      EXPECT_EQ(parallel.log, serial.log);
      EXPECT_EQ(parallel.stats.served, serial.stats.served);
      EXPECT_EQ(parallel.stats.unserved, serial.stats.unserved);
      EXPECT_EQ(parallel.stats.waves, serial.stats.waves);
      EXPECT_EQ(parallel.stats.conflicts, serial.stats.conflicts);
      EXPECT_EQ(parallel.stats.rematches, serial.stats.rematches);
      EXPECT_EQ(parallel.stats.serial_rematches,
                serial.stats.serial_rematches);
    }
  }
  // The sweep must actually exercise arbitration somewhere, or the parity
  // comparison above proves nothing about conflicts.
  EXPECT_GT(total_conflicts, 0u);
}

TEST(EngineParallelTest, MatcherAggregatesIdenticalAcrossThreadCounts) {
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests = MakeRequestStream(
      *world.graph, {.num_requests = 24, .duration_seconds = 200.0,
                     .seed = 31});
  const PipeRun serial = RunPipe(world, requests, 1, 8);
  const PipeRun parallel = RunPipe(world, requests, 4, 8);
  ASSERT_EQ(serial.stats.matchers.size(), 1u);
  ASSERT_EQ(parallel.stats.matchers.size(), 1u);
  const MatcherAggregate& a = serial.stats.matchers[0];
  const MatcherAggregate& b = parallel.stats.matchers[0];
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.options_sum, b.options_sum);
  // Matchers ClearCache()/ResetStats() per request, so work counters are a
  // per-request property — worker assignment cannot change them.
  EXPECT_EQ(a.totals.compdists, b.totals.compdists);
  EXPECT_EQ(a.totals.verified_vehicles, b.totals.verified_vehicles);
  EXPECT_EQ(a.totals.scanned_cells, b.totals.scanned_cells);
  EXPECT_EQ(a.totals.pruned_cells, b.totals.pruned_cells);
  EXPECT_EQ(a.totals.pruned_vehicles, b.totals.pruned_vehicles);
  EXPECT_GT(a.totals.compdists, 0u);
}

// --- Advance: idle walks on the pool, busy vehicles on the caller. ---

/// Everything an advance can write, as bits: each vehicle's location and
/// odometer, the clock, the registry's write count, and every active
/// cell's empty-vehicle list and kinetic-edge entries in list order.
struct WorldBits {
  std::vector<std::uint64_t> fleet;
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> registry;

  friend bool operator==(const WorldBits&, const WorldBits&) = default;
};

WorldBits BitsOf(Engine& engine) {
  WorldBits bits;
  for (const KineticTree& tree : engine.fleet()) {
    bits.fleet.push_back(tree.location());
    bits.fleet.push_back(std::bit_cast<std::uint64_t>(tree.odometer()));
  }
  bits.fleet.push_back(std::bit_cast<std::uint64_t>(engine.now()));
  const VehicleRegistry& registry = engine.registry();
  bits.epoch = registry.epoch();
  for (const CellId cell : engine.grid().active_cells()) {
    bits.registry.push_back(cell);
    const std::span<const VehicleId> empty = registry.EmptyVehicles(cell);
    bits.registry.push_back(empty.size());
    bits.registry.insert(bits.registry.end(), empty.begin(), empty.end());
    for (const KineticEdgeEntry& e : registry.NonEmptyEntries(cell)) {
      bits.registry.insert(
          bits.registry.end(),
          {e.vehicle, static_cast<std::uint64_t>(e.capacity),
           std::bit_cast<std::uint64_t>(e.detour),
           std::bit_cast<std::uint64_t>(e.dist_tr),
           std::bit_cast<std::uint64_t>(e.leg_dist), e.tail ? 1u : 0u, e.ox,
           e.oy});
    }
  }
  return bits;
}

TEST(EngineParallelTest, AdvanceIsIdenticalAtEveryThreadCount) {
  // 2,000 vehicles, most of them idle walkers split into one chunk per
  // worker, while committed vehicles drive to their stops, serve them and
  // empty on the calling thread. Waves of 8 run after an advance to just
  // before their last submit time, so advances end at fractional times.
  const GridWorld world = MakeGridWorld({.rows = 20, .cols = 20});
  const std::vector<Request> requests = MakeRequestStream(
      *world.graph, {.num_requests = 120, .duration_seconds = 600.0,
                     .seed = 5});
  const std::span<const Request> all(requests);
  const auto run = [&](int threads, std::vector<CommitRecord>* log) {
    EngineOptions eopts;
    eopts.num_vehicles = 2000;
    eopts.seed = 11;
    eopts.engine_threads = threads;
    eopts.wave_size = 8;
    eopts.audit_after_commit = false;
    Engine engine(world.graph.get(), world.grid.get(), eopts);
    std::uint64_t served = 0;
    for (std::size_t first = 0; first < all.size(); first += 8) {
      const std::span<const Request> wave = all.subspan(first, 8);
      engine.AdvanceTo(wave.back().submit_time - 0.37);
      std::vector<CommitRecord> wave_log;
      served += engine
                    .RunPipelined(wave,
                                  [] {
                                    return std::make_unique<SsaMatcher>(0.16);
                                  },
                                  &wave_log)
                    .served;
      log->insert(log->end(), wave_log.begin(), wave_log.end());
    }
    engine.AdvanceTo(engine.now() + 90.25);
    // Trips ended during advances, and some are still under way.
    std::size_t busy = 0;
    std::size_t aboard = 0;
    for (const KineticTree& tree : engine.fleet()) {
      busy += tree.IsEmpty() ? 0 : 1;
      aboard += tree.assigned().size();
    }
    EXPECT_GT(served, 60u);
    EXPECT_LT(aboard, served);
    EXPECT_GT(busy, 0u);
    return BitsOf(engine);
  };
  std::vector<CommitRecord> serial_log;
  const WorldBits serial = run(1, &serial_log);
  ASSERT_EQ(serial_log.size(), requests.size());
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::vector<CommitRecord> log;
    const WorldBits parallel = run(threads, &log);
    EXPECT_EQ(log, serial_log);
    EXPECT_EQ(parallel.fleet, serial.fleet);
    EXPECT_EQ(parallel.epoch, serial.epoch);
    EXPECT_EQ(parallel.registry, serial.registry);
  }
}

// --- GeoPrune and tree-cap observability on pipelined runs. ---

bool NearRelative(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

TEST(EngineParallelTest, EllipsePrefilterIsLosslessInThePipeline) {
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests = MakeRequestStream(
      *world.graph, {.num_requests = 40, .duration_seconds = 300.0,
                     .seed = 23});
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const PipeRun plain = RunPipe(world, requests, threads, 4);
    const PipeRun pruned =
        RunPipe(world, requests, threads, 4, [](EngineOptions& eopts) {
          eopts.prune = PruneMode::kEllipse;
        });
    EXPECT_GT(pruned.metrics.Counter("prune/ellipse_checked"), 0u);
    EXPECT_GT(pruned.metrics.Counter("prune/verified_vehicles"), 0u);
    ASSERT_EQ(pruned.log.size(), plain.log.size());
    for (std::size_t i = 0; i < plain.log.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(plain.log[i].request));
      EXPECT_EQ(pruned.log[i].request, plain.log[i].request);
      EXPECT_EQ(pruned.log[i].served, plain.log[i].served);
      EXPECT_EQ(pruned.log[i].vehicle, plain.log[i].vehicle);
      EXPECT_TRUE(
          NearRelative(pruned.log[i].pickup_dist, plain.log[i].pickup_dist));
      EXPECT_TRUE(NearRelative(pruned.log[i].price, plain.log[i].price));
    }
  }
}

TEST(EngineParallelTest, CappedRunReportsFleetCapHits) {
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests = MakeRequestStream(
      *world.graph, {.num_requests = 60,
                     .duration_seconds = 200.0,
                     .epsilon = 1.0,
                     .waiting_minutes = 6.0,
                     .seed = 43});
  EngineOptions eopts;
  eopts.num_vehicles = 4;
  eopts.vehicle_capacity = 6;
  eopts.seed = 7;
  eopts.engine_threads = 4;
  eopts.wave_size = 4;
  eopts.tree_max_branches = 8;
  eopts.audit_after_commit = false;
  Engine engine(world.graph.get(), world.grid.get(), eopts);
  // Two calls: each call sets the counters to the fleet's lifetime sums,
  // so after the second they must still equal them.
  const std::size_t half = requests.size() / 2;
  engine.RunPipelined(std::span<const Request>(requests).first(half),
                      SsaFactory());
  engine.RunPipelined(std::span<const Request>(requests).subspan(half),
                      SsaFactory());
  std::uint64_t cap_hits = 0;
  std::uint64_t dropped = 0;
  for (const KineticTree& tree : engine.fleet()) {
    cap_hits += tree.cap_hits();
    dropped += tree.branches_dropped();
  }
  EXPECT_GT(cap_hits, 0u);
  EXPECT_EQ(engine.metrics().Counter("tree/cap_hits"), cap_hits);
  EXPECT_EQ(engine.metrics().Counter("tree/branches_dropped"), dropped);
}

// --- Forced conflict: two requests, one vehicle. ---

class ConflictScenarioTest : public ::testing::Test {
 protected:
  ConflictScenarioTest() : world_(MakeGridWorld()) {
    requests_ = MakeRequestStream(*world_.graph, {.num_requests = 2,
                                                  .seed = 17});
    for (Request& r : requests_) {
      r.submit_time = 0.0;  // Same instant: both land in one wave.
      r.epsilon = 1.0;
      r.max_wait_dist = 1e7;  // Generous: the single vehicle matches both.
    }
  }

  std::function<void(EngineOptions&)> Tweak(int max_rematch_rounds = 3) {
    return [this, max_rematch_rounds](EngineOptions& eopts) {
      eopts.start_vertices = {requests_[0].start};  // One vehicle, id 0.
      eopts.max_rematch_rounds = max_rematch_rounds;
    };
  }

  GridWorld world_;
  std::vector<Request> requests_;
};

TEST_F(ConflictScenarioTest, ArbitrationIsDeterministicAndIdOrdered) {
  const PipeRun ref =
      RunPipe(world_, requests_, /*threads=*/1, /*wave_size=*/2, Tweak());
  ASSERT_EQ(ref.log.size(), 2u);
  // The lower id wins the only vehicle; the higher id loses round 0.
  ASSERT_TRUE(ref.log[0].served);
  EXPECT_EQ(ref.log[0].request, requests_[0].id);
  EXPECT_EQ(ref.log[0].vehicle, 0u);
  EXPECT_EQ(ref.stats.conflicts, 1u);
  EXPECT_EQ(ref.stats.rematches, 1u);
  EXPECT_EQ(ref.stats.serial_rematches, 0u);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const PipeRun run = RunPipe(world_, requests_, threads, 2, Tweak());
    EXPECT_EQ(run.log, ref.log);
    EXPECT_EQ(run.stats.conflicts, 1u);
    EXPECT_EQ(run.stats.rematches, 1u);
  }
}

TEST_F(ConflictScenarioTest, ShadowSlotsRunOnRoundZeroOnly) {
  EngineOptions eopts;
  Tweak()(eopts);
  eopts.engine_threads = 2;
  eopts.wave_size = 2;
  eopts.audit_after_commit = false;
  Engine engine(world_.graph.get(), world_.grid.get(), eopts);
  // A second SSA slot at another fraction shares slot 0's matcher name.
  const RunStats stats = engine.RunPipelined(
      requests_, SsaFactory(), nullptr,
      {[] { return std::make_unique<BaselineMatcher>(); },
       testing::FactoryOf<SsaMatcher>(0.16)});
  ASSERT_EQ(stats.rematches, 1u);
  ASSERT_EQ(stats.matchers.size(), 3u);
  // Both requests were measured once in every slot: the loser's re-match
  // runs slot 0 alone.
  for (const MatcherAggregate& agg : stats.matchers) {
    EXPECT_EQ(agg.requests, 2u) << agg.name;
  }
  EXPECT_EQ(engine.metrics().FindHistogram("matcher/BA/compdists")->count(),
            2u);
  // Same-named slots keep separate per-slot metrics.
  for (const char* name : {"matcher/SSA/options", "matcher/SSA#2/options"}) {
    const obs::LatencyHistogram* options =
        engine.metrics().FindHistogram(name);
    ASSERT_NE(options, nullptr) << name;
    EXPECT_EQ(options->count(), 2u) << name;
  }
}

TEST_F(ConflictScenarioTest, ExhaustedRematchBoundFallsBackToSerialTail) {
  const PipeRun bounded =
      RunPipe(world_, requests_, /*threads=*/2, /*wave_size=*/2, Tweak());
  // max_rematch_rounds=0: the loser goes straight to the serial tail. The
  // tail matches against the same post-commit state a round-1 re-match
  // would see, so the final dispositions are identical.
  const PipeRun tail = RunPipe(world_, requests_, /*threads=*/2,
                               /*wave_size=*/2, Tweak(0));
  EXPECT_EQ(tail.stats.conflicts, 1u);
  EXPECT_EQ(tail.stats.rematches, 0u);
  EXPECT_EQ(tail.stats.serial_rematches, 1u);
  EXPECT_EQ(tail.log, bounded.log);
}

// --- Overload ladder under waved admission. ---

TEST(EngineParallelTest, LadderOccupancyTotalsEqualProcessedRequests) {
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests = MakeRequestStream(
      *world.graph, {.num_requests = 40, .seed = 4});
  const auto tweak = [](EngineOptions& eopts) {
    eopts.num_vehicles = 12;
    eopts.overload.request_budget = 1;  // Every matched request exhausts.
    eopts.overload.degrade_after = 1;
    eopts.overload.recover_after = 2;
  };

  const PipeRun serial = RunPipe(world, requests, 1, /*wave_size=*/4, tweak);
  std::uint64_t ladder_total = 0;
  for (const std::uint64_t n : serial.stats.ladder_requests) {
    ladder_total += n;
  }
  // Every request occupies exactly one ladder slot, and every request is
  // either served or unserved — waved admission loses none.
  EXPECT_EQ(ladder_total, requests.size());
  EXPECT_EQ(serial.stats.served + serial.stats.unserved, requests.size());
  EXPECT_EQ(serial.log.size(), requests.size());
  EXPECT_EQ(serial.stats.shed_requests,
            serial.stats.ladder_requests[static_cast<int>(
                DegradeLevel::kShed)]);
  // The aggregate counts only full-level requests (degraded ones ran the
  // engine-owned fallbacks, not the configured matcher).
  EXPECT_EQ(serial.stats.matchers[0].requests,
            serial.stats.ladder_requests[static_cast<int>(
                DegradeLevel::kFull)]);
  // Non-vacuous: the ladder actually walked. (Admission levels move only
  // between observations, which happen wave-wise in the commit pass, so a
  // whole wave of bad requests can step Full -> Shed without any request
  // being *admitted* at kSsa; assert the intermediate levels jointly.)
  EXPECT_GT(serial.stats.shed_requests, 0u);
  EXPECT_GT(
      serial.stats.ladder_requests[static_cast<int>(DegradeLevel::kSsa)] +
          serial.stats
              .ladder_requests[static_cast<int>(DegradeLevel::kGridScan)],
      0u);
  EXPECT_GT(serial.stats.partial_skylines, 0u);

  // Work-count signals only, so the ladder walk is thread-count-invariant.
  const PipeRun parallel = RunPipe(world, requests, 4, 4, tweak);
  EXPECT_EQ(parallel.log, serial.log);
  EXPECT_EQ(parallel.stats.ladder_requests, serial.stats.ladder_requests);
  EXPECT_EQ(parallel.stats.shed_requests, serial.stats.shed_requests);
  EXPECT_EQ(parallel.stats.partial_skylines,
            serial.stats.partial_skylines);
}

// --- Mid-run audits take the quiesce lock. ---

TEST(EngineParallelTest, AuditMidRunNeitherDeadlocksNorSeesTornState) {
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests = MakeRequestStream(
      *world.graph, {.num_requests = 120, .seed = 6});
  EngineOptions eopts;
  eopts.num_vehicles = 10;
  eopts.seed = 7;
  eopts.engine_threads = 2;
  eopts.audit_after_commit = false;
  Engine engine(world.graph.get(), world.grid.get(), eopts);

  std::atomic<bool> done{false};
  std::thread runner([&engine, &requests, &done] {
    engine.RunPipelined(requests, SsaFactory());
    done.store(true, std::memory_order_release);
  });
  // Audit continuously while the pipeline runs: each call must block until
  // a wave boundary (the quiesced epoch) and then see a consistent fleet —
  // exact legs, valid branches, aggregates matching a fresh rebuild.
  std::uint64_t audits = 0;
  while (!done.load(std::memory_order_acquire)) {
    const AuditReport report = engine.AuditFleet();
    EXPECT_TRUE(report.ok()) << report.findings.front();
    ++audits;
  }
  runner.join();
  EXPECT_GE(audits, 1u);
  const AuditReport final_report = engine.AuditFleet();
  EXPECT_TRUE(final_report.ok());
  EXPECT_EQ(final_report.trees_checked, 10u);
}

// --- Schema-v3 pipeline report block. ---

TEST(PipelineReportTest, PipelineBlockRoundTripsThroughSummary) {
  obs::RunReport report;
  report.tool = "engine_parallel_test";
  report.waves = 11;
  report.conflicts = 4;
  report.rematches = 3;
  report.serial_rematches = 2;
  // A metric counter sharing the field's suffix must not shadow the block:
  // the parser matches keys with their opening quote.
  report.metrics.AddCounter("pipeline/conflicts", 999);

  const auto summary = obs::ParseReportSummary(obs::RunReportToJson(report));
  ASSERT_TRUE(summary.ok()) << summary.status().message();
  EXPECT_EQ(summary->schema_version, obs::kReportSchemaVersion);
  EXPECT_EQ(summary->waves, 11u);
  EXPECT_EQ(summary->conflicts, 4u);
  EXPECT_EQ(summary->rematches, 3u);
  EXPECT_EQ(summary->serial_rematches, 2u);
}

TEST(PipelineReportTest, V2ReportParsesWithZeroPipeline) {
  // Golden v2 fragment (pre-pipeline schema): accepted, robustness block
  // parsed, pipeline block defaulted to zero.
  const std::string v2 =
      "{\n"
      "  \"schema_version\": 2,\n"
      "  \"tool\": \"ptar_cli simulate\",\n"
      "  \"served\": 40,\n"
      "  \"unserved\": 2,\n"
      "  \"shared\": 15,\n"
      "  \"robustness\": {\"shed_requests\": 1, \"partial_skylines\": 2,\n"
      "                   \"ladder_requests\": [30, 8, 3, 1]},\n"
      "  \"matchers\": [],\n"
      "  \"metrics\": {\"counters\": {}, \"histograms\": {}}\n"
      "}\n";
  const auto summary = obs::ParseReportSummary(v2);
  ASSERT_TRUE(summary.ok()) << summary.status().message();
  EXPECT_EQ(summary->schema_version, 2);
  EXPECT_EQ(summary->served, 40u);
  EXPECT_EQ(summary->shed_requests, 1u);
  EXPECT_EQ(summary->ladder_requests,
            (std::array<std::uint64_t, 4>{30, 8, 3, 1}));
  EXPECT_EQ(summary->waves, 0u);
  EXPECT_EQ(summary->conflicts, 0u);
  EXPECT_EQ(summary->rematches, 0u);
  EXPECT_EQ(summary->serial_rematches, 0u);
}

TEST(PipelineReportTest, RunPipelinedFeedsPipelineBlock) {
  const GridWorld world = MakeGridWorld();
  std::vector<Request> requests = MakeRequestStream(
      *world.graph, {.num_requests = 2, .seed = 17});
  for (Request& r : requests) {
    r.submit_time = 0.0;
    r.epsilon = 1.0;
    r.max_wait_dist = 1e7;
  }
  EngineOptions eopts;
  eopts.start_vertices = {requests[0].start};
  eopts.engine_threads = 2;
  eopts.wave_size = 2;
  eopts.audit_after_commit = false;
  Engine engine(world.graph.get(), world.grid.get(), eopts);
  const RunStats stats = engine.RunPipelined(requests, SsaFactory());

  const obs::RunReport report =
      BuildRunReport(stats, engine.metrics(), "engine_parallel_test");
  const auto summary = obs::ParseReportSummary(obs::RunReportToJson(report));
  ASSERT_TRUE(summary.ok()) << summary.status().message();
  EXPECT_EQ(summary->waves, 1u);
  EXPECT_EQ(summary->conflicts, 1u);
  EXPECT_EQ(summary->rematches, 1u);
  EXPECT_EQ(summary->serial_rematches, 0u);
  // The report block is the one home of these counts.
  EXPECT_FALSE(engine.metrics().counters().contains("pipeline/conflicts"));
  EXPECT_FALSE(engine.metrics().counters().contains("pipeline/waves"));
}

}  // namespace
}  // namespace ptar
