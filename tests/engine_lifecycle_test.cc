// Engine-level lifecycle contract: the sampled JSONL log is byte-identical
// across engine_threads values (at a pinned wave_size — the same
// determinism contract CommitRecords carry), the classic one-request-at-a-
// time setting (default options: one request per wave) attributes every
// request, and the disabled path costs (near) nothing.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "gtest/gtest.h"
#include "obs/lifecycle.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "tests/scenario_builder.h"

namespace ptar {
namespace {

using testing::GridWorld;
using testing::MakeGridWorld;
using testing::MakeRequestStream;

std::string PipelinedLifecycleBuffer(const GridWorld& world,
                                     const std::vector<Request>& requests,
                                     int engine_threads,
                                     double sample_rate) {
  EngineOptions eopts;
  eopts.num_vehicles = 12;
  eopts.seed = 13;
  eopts.engine_threads = engine_threads;
  // The auto wave size depends on engine_threads, so cross-thread-count
  // byte comparisons require pinning it — same contract as CommitRecord
  // equality (see EngineOptions::wave_size).
  eopts.wave_size = 8;
  Engine engine(world.graph.get(), world.grid.get(), eopts);

  obs::LifecycleOptions lopts;
  lopts.path = ::testing::TempDir() + "/engine_lifecycle_t" +
               std::to_string(engine_threads) + ".jsonl";
  lopts.sample_rate = sample_rate;
  lopts.seed = 99;
  obs::LifecycleRecorder recorder(lopts);
  engine.SetLifecycleRecorder(&recorder);

  engine.RunPipelined(requests,
                      [] { return std::make_unique<SsaMatcher>(0.5); });
  return recorder.buffered();
}

TEST(EngineLifecycleTest, PipelinedLogByteIdenticalAcrossThreadCounts) {
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests =
      MakeRequestStream(*world.graph, {.num_requests = 60});

  const std::string log1 = PipelinedLifecycleBuffer(world, requests, 1, 1.0);
  const std::string log4 = PipelinedLifecycleBuffer(world, requests, 4, 1.0);
  const std::string log8 = PipelinedLifecycleBuffer(world, requests, 8, 1.0);
  ASSERT_FALSE(log1.empty());
  EXPECT_EQ(log1, log4);
  EXPECT_EQ(log1, log8);

  // Every request appears exactly once. (The log is NOT globally id-sorted:
  // conflict losers are recorded after their re-match round resolves — but
  // that order is itself deterministic, which the byte equality above
  // already proved.)
  std::size_t lines = 0;
  for (const char c : log1) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, requests.size());
  for (std::size_t id = 0; id < requests.size(); ++id) {
    const std::string needle = "\"req\":" + std::to_string(id) + ",";
    const std::size_t first = log1.find(needle);
    ASSERT_NE(first, std::string::npos) << "request " << id << " missing";
    EXPECT_EQ(log1.find(needle, first + 1), std::string::npos)
        << "request " << id << " recorded twice";
  }
}

TEST(EngineLifecycleTest, SampledLogIsDeterministicSubsetAcrossThreads) {
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests =
      MakeRequestStream(*world.graph, {.num_requests = 60});

  const std::string half1 = PipelinedLifecycleBuffer(world, requests, 1, 0.5);
  const std::string half8 = PipelinedLifecycleBuffer(world, requests, 8, 0.5);
  EXPECT_EQ(half1, half8);

  const std::string full = PipelinedLifecycleBuffer(world, requests, 1, 1.0);
  EXPECT_LT(half1.size(), full.size());
  EXPECT_FALSE(half1.empty());  // 60 draws at rate .5 never all miss.
}

TEST(EngineLifecycleTest, ClassicEngineAttributesEveryRequest) {
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests =
      MakeRequestStream(*world.graph, {.num_requests = 30});

  EngineOptions eopts;
  eopts.num_vehicles = 12;
  eopts.seed = 13;
  Engine engine(world.graph.get(), world.grid.get(), eopts);

  obs::LifecycleOptions lopts;
  lopts.path = ::testing::TempDir() + "/engine_lifecycle_classic.jsonl";
  obs::LifecycleRecorder recorder(lopts);
  engine.SetLifecycleRecorder(&recorder);

  const RunStats stats = engine.RunPipelined(
      requests, [] { return std::make_unique<SsaMatcher>(0.5); });

  EXPECT_EQ(recorder.events_recorded(), requests.size());
  const std::string& log = recorder.buffered();
  std::size_t served = 0;
  std::size_t unserved = 0;
  for (std::size_t pos = 0;
       (pos = log.find("\"disposition\":\"served\"", pos)) !=
       std::string::npos;
       ++pos) {
    ++served;
  }
  for (std::size_t pos = 0;
       (pos = log.find("\"disposition\":\"unserved\"", pos)) !=
       std::string::npos;
       ++pos) {
    ++unserved;
  }
  EXPECT_EQ(served, stats.served);
  EXPECT_EQ(unserved, stats.unserved);
  // One request per wave: the last event carries the last wave, no event
  // carries wave 0, and all carry the SSA matcher attribution.
  EXPECT_EQ(stats.waves, requests.size());
  EXPECT_NE(log.find("\"wave\":30"), std::string::npos);
  EXPECT_EQ(log.find("\"wave\":0"), std::string::npos);
  EXPECT_NE(log.find("\"matcher\":\"SSA\""), std::string::npos);
  // The deterministic log never carries the wall-clock overlay.
  EXPECT_EQ(log.find("match_us"), std::string::npos);
}

TEST(EngineLifecycleTest, DisabledLifecycleCostsNothingMeasurable) {
  const GridWorld world = MakeGridWorld();
  const std::vector<Request> requests =
      MakeRequestStream(*world.graph, {.num_requests = 80});

  const auto run_once = [&](bool telemetry_enabled) {
    EngineOptions eopts;
    eopts.num_vehicles = 12;
    eopts.seed = 13;
    if (!telemetry_enabled) eopts.telemetry.window_seconds = 0.0;
    Engine engine(world.graph.get(), world.grid.get(), eopts);
    // Lifecycle stays unset — the --lifecycle_out-unset configuration.
    Timer timer;
    engine.RunPipelined(requests,
                        [] { return std::make_unique<SsaMatcher>(0.5); });
    return timer.ElapsedMillis();
  };

  // Median of 5 interleaved runs each; the design budget for the whole
  // disabled observability layer is < 2% wall-clock, but a unit test
  // asserting 1.02 on a shared CI box would be noise — the bound here is
  // slack for scheduler jitter while still catching a real per-request
  // regression (which shows up as 2x, not 1.2x).
  std::vector<double> off;
  std::vector<double> on;
  run_once(true);  // Warm caches before timing.
  for (int rep = 0; rep < 5; ++rep) {
    off.push_back(run_once(false));
    on.push_back(run_once(true));
  }
  std::sort(off.begin(), off.end());
  std::sort(on.begin(), on.end());
  const double ratio = on[2] / off[2];
  EXPECT_LT(ratio, 1.20) << "telemetry-on median " << on[2]
                         << " ms vs telemetry-off median " << off[2]
                         << " ms";

  // And the structural half of the guarantee: no recorder attached means
  // nothing is buffered anywhere (checked via a fresh disabled recorder).
  obs::LifecycleRecorder disabled;
  EXPECT_FALSE(disabled.enabled());
  EXPECT_EQ(disabled.events_recorded(), 0u);
}

}  // namespace
}  // namespace ptar
