// Golden commit logs: the wave pipeline at its one-worker default wave size
// (one request per wave, the paper's online setting) must reproduce the
// recorded commit logs (tests/corpus/*.commits, whose headers say what each
// was recorded from; scenarios in golden_scenarios.h). Covered: both
// distance backends, the GeoPrune prefilter, a 64-branch tree cap, a
// budget-driven ladder walk through the fallback matchers to shed, the
// random rider policy, and a BA + SSA/DSA shadow run whose per-slot
// aggregates are pinned too. Each scenario also runs on four workers with
// the same one-request waves, which spreads the shadow slots of a request
// over the pool. Served flag, shed flag, and vehicle must match exactly;
// pickup and price within 1e-9 relative (path sums may associate
// differently in the last bits). A second test pins the shadow scenario's
// per-slot pruning attribution (per-lemma and GeoPrune counts), with and
// without GeoPrune.

#include <algorithm>
#include <array>
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

/// Runs `scenario`'s matcher slots over `requests` (slot 0 commits).
RunStats RunScenario(Engine& engine, const GoldenScenario& scenario,
                     const std::vector<Request>& requests,
                     std::vector<CommitRecord>* log) {
  std::vector<MatcherFactory> shadows;
  for (std::size_t s = 1; s < scenario.matchers.size(); ++s) {
    const std::string name = scenario.matchers[s];
    shadows.push_back([name] { return testing::MakeGoldenMatcher(name); });
  }
  const std::string committing = scenario.matchers[0];
  return engine.RunPipelined(
      requests,
      [committing] { return testing::MakeGoldenMatcher(committing); }, log,
      shadows);
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
      std::vector<CommitRecord> log;
      const RunStats stats = RunScenario(engine, scenario, requests, &log);

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

// Which check pruned what in the golden_shadow scenario (BA commits; SSA
// and DSA are shadow slots), with and without GeoPrune. Per slot: the grid
// bound's hits for Lemmas 1-11, GeoPrune's checked and pruned tests, and
// the work totals. A refactor that reorders, regates or re-attributes a
// lemma check moves these counts even when every skyline stays intact.
TEST(GoldenLogTest, ShadowPruningAttributionIsPinned) {
  // Lemma hits 1..11, then ellipse_checked, ellipse_pruned,
  // pruned_vehicles, pruned_cells, verified_vehicles, compdists.
  using Counts = std::array<std::uint64_t, 17>;
  struct Pin {
    PruneMode prune;
    std::array<Counts, 3> slots;  // BA, SSA, DSA
  };
  // Recorded when idle walks moved to one SplitMix64 stream per vehicle,
  // from those streams in the former tick-major advance; the vehicle-major
  // advance gives the same counts.
  const Pin pins[] = {
      {PruneMode::kNone,
       {{{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 960, 1706},
         {5, 13, 267, 0, 1163, 0, 3494, 0, 184, 0, 528, 0, 0, 40, 13, 235,
          622},
         {5, 13, 155, 0, 884, 0, 1133, 0, 94, 0, 452, 0, 0, 69, 13, 181,
          444}}}},
      {PruneMode::kEllipse,
       {{{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 11701, 7233, 543, 0, 417, 945},
         {5, 13, 265, 0, 1162, 0, 3483, 0, 179, 0, 459, 4050, 299, 81, 13,
          201, 585},
         {5, 13, 154, 0, 884, 0, 1133, 0, 94, 0, 394, 2422, 244, 113, 13,
          148, 411}}}},
  };
  const GridWorld world = MakeGridWorld();
  const std::vector<GoldenScenario> scenarios = GoldenScenarios();
  const auto shadow = std::find_if(
      scenarios.begin(), scenarios.end(),
      [](const GoldenScenario& s) { return s.name == "golden_shadow"; });
  ASSERT_NE(shadow, scenarios.end());
  const std::vector<Request> requests =
      MakeRequestStream(*world.graph, shadow->stream);
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.prune == PruneMode::kNone ? "prune none"
                                               : "prune ellipse");
    EngineOptions eopts = testing::GoldenBaseOptions();
    shadow->configure(eopts);
    eopts.prune = pin.prune;
    Engine engine(world.graph.get(), world.grid.get(), eopts);
    const RunStats stats = RunScenario(engine, *shadow, requests, nullptr);
    ASSERT_EQ(stats.matchers.size(), pin.slots.size());
    for (std::size_t s = 0; s < pin.slots.size(); ++s) {
      SCOPED_TRACE("slot " + stats.matchers[s].name);
      const MatchStats& t = stats.matchers[s].totals;
      Counts got{};
      for (std::size_t k = 1; k <= LemmaCounters::kNumLemmas; ++k) {
        got[k - 1] = t.lemma_hits[k];
      }
      got[11] = t.ellipse_checked;
      got[12] = t.ellipse_pruned;
      got[13] = t.pruned_vehicles;
      got[14] = t.pruned_cells;
      got[15] = t.verified_vehicles;
      got[16] = t.compdists;
      EXPECT_EQ(got, pin.slots[s]);
    }
  }
}

}  // namespace
}  // namespace ptar
