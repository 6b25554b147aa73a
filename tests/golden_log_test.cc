// Golden commit logs: the wave pipeline at its one-worker default wave size
// (one request per wave, the paper's online setting) must reproduce the
// commit logs recorded from the one-request-at-a-time engine it replaced
// (tests/corpus/*.commits, scenarios in golden_scenarios.h). Covered: both
// distance backends, the GeoPrune prefilter, a 64-branch tree cap, a
// budget-driven ladder walk through the fallback matchers to shed, the
// random rider policy, and a BA + SSA/DSA shadow run whose per-slot
// aggregates are pinned too. Each scenario also runs on four workers with
// the same one-request waves, which spreads the shadow slots of a request
// over the pool. Served flag, shed flag, and vehicle must match exactly;
// pickup and price within 1e-9 relative (path sums may associate
// differently in the last bits).

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden_scenarios.h"

namespace ptar {
namespace {

using testing::GoldenScenario;
using testing::GoldenScenarios;
using testing::GridWorld;
using testing::MakeGridWorld;

struct GoldenAggregate {
  std::string name;
  std::uint64_t requests = 0;
  std::uint64_t options_sum = 0;
  std::uint64_t compdists = 0;
  std::uint64_t verified = 0;
  double precision_sum = 0.0;
  double recall_sum = 0.0;
};

struct GoldenLog {
  std::vector<CommitRecord> commits;
  std::vector<GoldenAggregate> matchers;
};

GoldenLog ReadGoldenLog(const std::string& name) {
  const std::string path =
      std::string(PTAR_TEST_CORPUS_DIR) + "/" + name + ".commits";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  GoldenLog log;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "commit") {
      CommitRecord r;
      int served = 0;
      int shed = 0;
      fields >> r.request >> served >> shed >> r.vehicle >> r.pickup_dist >>
          r.price;
      r.served = served != 0;
      r.shed = shed != 0;
      log.commits.push_back(r);
    } else if (kind == "matcher") {
      GoldenAggregate a;
      fields >> a.name >> a.requests >> a.options_sum >> a.compdists >>
          a.verified >> a.precision_sum >> a.recall_sum;
      log.matchers.push_back(a);
    }
    EXPECT_FALSE(fields.fail()) << path << ": malformed line: " << line;
  }
  return log;
}

bool NearRelative(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

TEST(GoldenLogTest, SingleLoopReproducesOneRequestEngineLogs) {
  const GridWorld world = MakeGridWorld();
  for (const GoldenScenario& scenario : GoldenScenarios()) {
    SCOPED_TRACE(scenario.name);
    const GoldenLog golden = ReadGoldenLog(scenario.name);
    ASSERT_FALSE(golden.commits.empty());
    const std::vector<Request> requests =
        MakeRequestStream(*world.graph, scenario.stream);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      EngineOptions eopts = testing::GoldenBaseOptions();
      scenario.configure(eopts);
      eopts.engine_threads = threads;
      // The auto wave size is 1 on one worker; four workers get the same
      // one-request waves pinned, since their auto waves batch 8 requests.
      eopts.wave_size = threads == 1 ? 0 : 1;
      Engine engine(world.graph.get(), world.grid.get(), eopts);
      ASSERT_EQ(engine.ResolvedWaveSize(), 1);
      std::vector<MatcherFactory> shadows;
      for (std::size_t s = 1; s < scenario.matchers.size(); ++s) {
        const std::string name = scenario.matchers[s];
        shadows.push_back([name] { return testing::MakeGoldenMatcher(name); });
      }
      const std::string committing = scenario.matchers[0];
      std::vector<CommitRecord> log;
      const RunStats stats = engine.RunPipelined(
          requests,
          [committing] { return testing::MakeGoldenMatcher(committing); },
          &log, shadows);

      ASSERT_EQ(log.size(), golden.commits.size());
      for (std::size_t i = 0; i < log.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(log[i].request));
        const CommitRecord& want = golden.commits[i];
        EXPECT_EQ(log[i].request, want.request);
        EXPECT_EQ(log[i].served, want.served);
        EXPECT_EQ(log[i].shed, want.shed);
        if (!want.served) continue;
        EXPECT_EQ(log[i].vehicle, want.vehicle);
        EXPECT_TRUE(NearRelative(log[i].pickup_dist, want.pickup_dist))
            << log[i].pickup_dist << " vs " << want.pickup_dist;
        EXPECT_TRUE(NearRelative(log[i].price, want.price))
            << log[i].price << " vs " << want.price;
      }
      // The scenarios must reach the paths they cover, or matching their
      // logs proves nothing about those paths.
      if (scenario.name == "golden_cap64") {
        EXPECT_GT(engine.metrics().Counter("tree/cap_hits"), 0u);
      }
      if (scenario.name == "golden_ladder") {
        for (const DegradeLevel level :
             {DegradeLevel::kSsa, DegradeLevel::kGridScan,
              DegradeLevel::kShed}) {
          EXPECT_GT(stats.ladder_requests[static_cast<int>(level)], 0u);
        }
        EXPECT_GT(stats.served, 0u);
      }
      if (golden.matchers.empty()) continue;
      ASSERT_EQ(stats.matchers.size(), golden.matchers.size());
      for (std::size_t s = 0; s < golden.matchers.size(); ++s) {
        const GoldenAggregate& want = golden.matchers[s];
        const MatcherAggregate& got = stats.matchers[s];
        SCOPED_TRACE("slot " + want.name);
        EXPECT_EQ(got.name, want.name);
        EXPECT_EQ(got.requests, want.requests);
        EXPECT_EQ(got.options_sum, want.options_sum);
        EXPECT_EQ(got.totals.compdists, want.compdists);
        EXPECT_EQ(got.totals.verified_vehicles, want.verified);
        EXPECT_TRUE(NearRelative(got.precision_sum, want.precision_sum));
        EXPECT_TRUE(NearRelative(got.recall_sum, want.recall_sum));
      }
    }
  }
}

}  // namespace
}  // namespace ptar
