// Determinism of shadow slots in the wave pipeline: running the BA/SSA/DSA
// trio (BA commits, SSA and DSA shadow) on 4 or 8 workers must be
// bit-identical to one worker at the same wave size — same served/
// unserved/shared totals, same per-slot aggregates (compdists above all),
// same chosen options, and same skyline contents for every slot of every
// request. A (request, slot) pair is the unit of parallel work; each
// (worker, slot) pair owns its DistanceOracle and budget, nothing writes
// the registry or fleet while workers match, and results land in
// pre-assigned entries, so the schedule cannot influence any value.

#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "obs/metrics.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/workload.h"

namespace ptar {
namespace {

struct World {
  RoadNetwork graph;
  std::unique_ptr<GridIndex> grid;
};

World MakeWorld(std::uint64_t seed = 3) {
  World w;
  GridCityOptions copts;
  copts.rows = 12;
  copts.cols = 12;
  copts.seed = seed;
  auto g = MakeGridCity(copts);
  PTAR_CHECK(g.ok());
  w.graph = std::move(g).value();
  auto grid = GridIndex::Build(&w.graph, {.cell_size_meters = 300.0});
  PTAR_CHECK(grid.ok());
  w.grid = std::make_unique<GridIndex>(std::move(grid).value());
  return w;
}

std::vector<Request> MakeRequests(const RoadNetwork& g, std::size_t n,
                                  std::uint64_t seed = 8) {
  WorkloadOptions opts;
  opts.num_requests = n;
  opts.duration_seconds = 600.0;
  opts.epsilon = 0.5;
  opts.waiting_minutes = 3.0;
  opts.seed = seed;
  auto reqs = GenerateWorkload(g, opts);
  PTAR_CHECK(reqs.ok());
  return std::move(reqs).value();
}

/// Per-request observables that must not depend on the thread count.
struct RequestTrace {
  bool served = false;
  Option chosen;
  std::vector<std::vector<Option>> skylines;  ///< One per matcher.
  std::vector<std::uint64_t> compdists;       ///< One per matcher.
};

std::vector<RequestTrace> TraceRun(const World& w,
                                   std::span<const Request> requests,
                                   int threads) {
  EngineOptions opts;
  opts.num_vehicles = 20;
  opts.seed = 13;
  opts.engine_threads = threads;
  Engine engine(&w.graph, w.grid.get(), opts);
  BaselineMatcher ba;
  SsaMatcher ssa;
  DsaMatcher dsa;
  std::vector<Matcher*> matchers = {&ba, &ssa, &dsa};
  std::vector<RequestTrace> traces;
  traces.reserve(requests.size());
  for (const Request& r : requests) {
    auto outcome = engine.ProcessRequest(r, matchers);
    RequestTrace t;
    t.served = outcome.served;
    t.chosen = outcome.chosen;
    for (const MatchResult& res : outcome.results) {
      t.skylines.push_back(res.options);
      t.compdists.push_back(res.stats.compdists);
    }
    traces.push_back(std::move(t));
  }
  return traces;
}

/// BA commits; SSA and DSA are shadow slots. `wave_size` is pinned: the
/// auto value depends on the worker count.
RunStats StatsRun(const World& w, std::span<const Request> requests,
                  int threads, int wave_size,
                  obs::MetricsRegistry* metrics_out = nullptr) {
  EngineOptions opts;
  opts.num_vehicles = 20;
  opts.seed = 13;
  opts.engine_threads = threads;
  opts.wave_size = wave_size;
  Engine engine(&w.graph, w.grid.get(), opts);
  const RunStats stats = engine.RunPipelined(
      requests, [] { return std::make_unique<BaselineMatcher>(); }, nullptr,
      {[] { return std::make_unique<SsaMatcher>(); },
       [] { return std::make_unique<DsaMatcher>(); }});
  if (metrics_out != nullptr) metrics_out->MergeFrom(engine.metrics());
  return stats;
}

void ExpectSameAggregates(const RunStats& serial, const RunStats& pooled) {
  EXPECT_EQ(serial.served, pooled.served);
  EXPECT_EQ(serial.unserved, pooled.unserved);
  EXPECT_EQ(serial.shared, pooled.shared);
  EXPECT_EQ(serial.conflicts, pooled.conflicts);
  EXPECT_EQ(serial.rematches, pooled.rematches);
  ASSERT_EQ(serial.matchers.size(), pooled.matchers.size());
  for (std::size_t m = 0; m < serial.matchers.size(); ++m) {
    SCOPED_TRACE("matcher " + serial.matchers[m].name);
    const MatcherAggregate& a = serial.matchers[m];
    const MatcherAggregate& b = pooled.matchers[m];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.options_sum, b.options_sum);
    // Exact bits: precision/recall are sums of ratios of identical counts.
    EXPECT_EQ(a.precision_sum, b.precision_sum);
    EXPECT_EQ(a.recall_sum, b.recall_sum);
    // Every non-timing counter, compdists above all (the paper's metric).
    EXPECT_EQ(a.totals.compdists, b.totals.compdists);
    EXPECT_EQ(a.totals.verified_vehicles, b.totals.verified_vehicles);
    EXPECT_EQ(a.totals.scanned_cells, b.totals.scanned_cells);
    EXPECT_EQ(a.totals.pruned_cells, b.totals.pruned_cells);
    EXPECT_EQ(a.totals.pruned_vehicles, b.totals.pruned_vehicles);
  }
}

TEST(EngineThreadsTest, PerRequestOutcomesBitIdenticalAcrossThreadCounts) {
  const World w = MakeWorld();
  const std::vector<Request> requests = MakeRequests(w.graph, 25);
  const auto serial = TraceRun(w, requests, 1);
  for (const int threads : {4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto pooled = TraceRun(w, requests, threads);
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      EXPECT_EQ(serial[i].served, pooled[i].served);
      EXPECT_EQ(serial[i].chosen, pooled[i].chosen);
      ASSERT_EQ(serial[i].skylines.size(), pooled[i].skylines.size());
      for (std::size_t m = 0; m < serial[i].skylines.size(); ++m) {
        SCOPED_TRACE("matcher " + std::to_string(m));
        // Option operator== is exact (==, not NEAR): skyline contents,
        // order included, are bitwise identical.
        EXPECT_EQ(serial[i].skylines[m], pooled[i].skylines[m]);
        EXPECT_EQ(serial[i].compdists[m], pooled[i].compdists[m]);
      }
    }
  }
}

TEST(EngineThreadsTest, RunStatsIdenticalAcrossThreadCounts) {
  const World w = MakeWorld();
  const std::vector<Request> requests = MakeRequests(w.graph, 25);
  // Waves of 6: several requests' shadow slots share one match round and
  // interleave across workers.
  obs::MetricsRegistry serial_metrics;
  const RunStats serial = StatsRun(w, requests, 1, 6, &serial_metrics);
  for (const int threads : {4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    obs::MetricsRegistry pooled_metrics;
    const RunStats pooled = StatsRun(w, requests, threads, 6, &pooled_metrics);
    ExpectSameAggregates(serial, pooled);
    // Per-slot per-request distributions, not just their sums.
    for (const MatcherAggregate& agg : serial.matchers) {
      for (const char* hist : {"/compdists", "/options"}) {
        const std::string name = "matcher/" + agg.name + hist;
        const obs::LatencyHistogram* a = serial_metrics.FindHistogram(name);
        const obs::LatencyHistogram* b = pooled_metrics.FindHistogram(name);
        ASSERT_NE(a, nullptr) << name;
        ASSERT_NE(b, nullptr) << name;
        EXPECT_TRUE(*a == *b) << name;
      }
    }
  }
  // Sanity: the run actually exercised every slot, and shadow slots were
  // measured once per request (round 0), not again on re-matches.
  EXPECT_EQ(serial.served + serial.unserved, requests.size());
  for (const MatcherAggregate& agg : serial.matchers) {
    EXPECT_EQ(agg.requests, requests.size()) << agg.name;
    EXPECT_GT(agg.totals.compdists, 0u) << agg.name;
  }
}

TEST(EngineThreadsTest, OversizedPoolIsHarmless) {
  // More workers than (request, slot) units: extra workers just idle.
  const World w = MakeWorld(5);
  const std::vector<Request> requests = MakeRequests(w.graph, 10, 21);
  ExpectSameAggregates(StatsRun(w, requests, 1, 1),
                       StatsRun(w, requests, 8, 1));
}

}  // namespace
}  // namespace ptar
