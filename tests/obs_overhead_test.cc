// Overhead guard: with tracing disabled (the default), instrumented code
// must not touch the recorder — no events appended, no thread buffers
// registered, and TraceSpan construction must stay a single branch. The
// test drives a real engine workload through every instrumented layer
// (engine phases, matchers, oracle, thread pool) and asserts the recorder
// state is bit-for-bit unchanged.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "obs/trace.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/workload.h"

namespace ptar {
namespace {

TEST(TraceOverheadTest, DisabledRecorderStaysUntouched) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  ASSERT_FALSE(rec.enabled()) << "tracing must be off by default";
  // Deltas, not absolutes: other tests in this process may have recorded.
  const std::uint64_t events_before = rec.events_recorded();
  const std::size_t buffers_before = rec.buffer_count();

  GridCityOptions copts;
  copts.rows = 10;
  copts.cols = 10;
  copts.seed = 5;
  auto graph = MakeGridCity(copts);
  ASSERT_TRUE(graph.ok());
  auto grid = GridIndex::Build(&*graph, {.cell_size_meters = 300.0});
  ASSERT_TRUE(grid.ok());

  WorkloadOptions wopts;
  wopts.num_requests = 10;
  wopts.duration_seconds = 600.0;
  wopts.seed = 8;
  auto requests = GenerateWorkload(*graph, wopts);
  ASSERT_TRUE(requests.ok());

  // Pooled run: covers the pool-queue-wait observer too.
  EngineOptions eopts;
  eopts.num_vehicles = 30;
  eopts.seed = 13;
  eopts.engine_threads = 4;
  Engine engine(&*graph, &*grid, eopts);
  const RunStats stats = engine.RunPipelined(
      *requests, [] { return std::make_unique<BaselineMatcher>(); }, nullptr,
      {[] { return std::make_unique<SsaMatcher>(0.5); },
       [] { return std::make_unique<DsaMatcher>(0.5); }});
  EXPECT_GT(stats.served + stats.unserved, 0u);

  EXPECT_EQ(rec.events_recorded(), events_before)
      << "disabled tracing wrote events";
  EXPECT_EQ(rec.buffer_count(), buffers_before)
      << "disabled tracing registered thread buffers";
}

TEST(TraceOverheadTest, InactiveSpanIgnoresArgs) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  ASSERT_FALSE(rec.enabled());
  const std::uint64_t before = rec.events_recorded();
  {
    obs::TraceSpan span("never_recorded");
    span.AddArg("x", 1);
  }
  EXPECT_EQ(rec.events_recorded(), before);
}

}  // namespace
}  // namespace ptar
