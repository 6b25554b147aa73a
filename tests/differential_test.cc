// Fast, deterministic coverage of the differential harness itself:
// skyline diff classification, replay round-trips, the shrunk regression
// corpus, the end-to-end catch-and-shrink loop on an injected bug, and one
// seed's pinned per-lemma counts.
// Registered under the `differential` CTest label.

#include "check/differential.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/fault_injection.h"
#include "check/replay_io.h"
#include "check/scenario.h"
#include "check/shrinker.h"
#include "rideshare/baseline_matcher.h"

namespace ptar::check {
namespace {

constexpr double kTol = 1e-6;

Option Opt(VehicleId v, Distance pickup, double price) {
  return Option{v, pickup, price};
}

TEST(DiffSkylinesTest, IdenticalSkylinesProduceNoDivergence) {
  const std::vector<Option> s = {Opt(0, 100, 5), Opt(1, 50, 9)};
  EXPECT_TRUE(DiffSkylines(s, s, kTol).empty());
}

TEST(DiffSkylinesTest, ClassifiesMissingAndSpurious) {
  const std::vector<Option> ref = {Opt(0, 100, 5), Opt(1, 50, 9)};
  const std::vector<Option> act = {Opt(0, 100, 5), Opt(2, 80, 7)};
  const std::vector<Divergence> diffs = DiffSkylines(ref, act, kTol);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0].type, DivergenceType::kMissingOption);
  EXPECT_EQ(diffs[0].expected.vehicle, 1u);
  EXPECT_EQ(diffs[1].type, DivergenceType::kSpuriousOption);
  EXPECT_EQ(diffs[1].actual.vehicle, 2u);
}

TEST(DiffSkylinesTest, ClassifiesSingleDimensionMismatches) {
  // Same vehicle, one dimension agrees: the pair is reported as a value
  // error on the other dimension rather than a missing/spurious pair.
  const std::vector<Divergence> price_diff =
      DiffSkylines(std::vector<Option>{Opt(3, 100, 5)},
                   std::vector<Option>{Opt(3, 100, 6)}, kTol);
  ASSERT_EQ(price_diff.size(), 1u);
  EXPECT_EQ(price_diff[0].type, DivergenceType::kWrongPrice);

  const std::vector<Divergence> pickup_diff =
      DiffSkylines(std::vector<Option>{Opt(3, 100, 5)},
                   std::vector<Option>{Opt(3, 140, 5)}, kTol);
  ASSERT_EQ(pickup_diff.size(), 1u);
  EXPECT_EQ(pickup_diff[0].type, DivergenceType::kWrongPickupDist);
}

TEST(DiffSkylinesTest, ToleratesLowBitNoise) {
  const std::vector<Option> ref = {Opt(0, 100.0, 5.0)};
  const std::vector<Option> act = {Opt(0, 100.0 + 1e-9, 5.0 - 1e-9)};
  EXPECT_TRUE(DiffSkylines(ref, act, kTol).empty());
}

TEST(NormalizeSkylineTest, DropsTieGhosts) {
  // A knife-edge survivor: (100, 5) sits an ulp to the *left* of a
  // strictly cheaper option, so exact dominance keeps it while the other
  // implementation (with the opposite ulp ordering) evicts it.
  // Normalization drops the ghost, so the sets diff clean.
  const std::vector<Option> with_ghost = {Opt(0, 100.0, 5.0),
                                          Opt(1, 100.0 + 1e-9, 4.0)};
  const std::vector<Option> kept = NormalizeSkyline(with_ghost, kTol);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].vehicle, 1u);
  const std::vector<Option> without = {Opt(1, 100.0 - 1e-9, 4.0)};
  EXPECT_TRUE(DiffSkylines(without, with_ghost, kTol).empty());
  EXPECT_TRUE(DiffSkylines(with_ghost, without, kTol).empty());
}

TEST(NormalizeSkylineTest, MatchingIgnoresMultiplicity) {
  // An ulp-level pickup tie keeps two copies in one implementation and
  // one in the other; both copies match the single reference option.
  const std::vector<Option> both = {Opt(0, 100.0, 5.0),
                                    Opt(0, 100.0 + 1e-9, 5.0)};
  const std::vector<Option> one = {Opt(0, 100.0, 5.0)};
  EXPECT_TRUE(DiffSkylines(one, both, kTol).empty());
  EXPECT_TRUE(DiffSkylines(both, one, kTol).empty());
}

TEST(NormalizeSkylineTest, KeepsBeyondToleranceOptions) {
  const std::vector<Option> incomparable = {Opt(0, 100, 5), Opt(1, 50, 9)};
  EXPECT_EQ(NormalizeSkyline(incomparable, kTol).size(), 2u);
}

TEST(ReplayTest, RoundTripPreservesScenarioAndOutcome) {
  for (std::uint64_t seed : {2u, 9u}) {
    const ScenarioSpec spec = MakeRandomSpec(seed);
    std::stringstream first;
    ASSERT_TRUE(SaveReplay(spec, first).ok());
    auto loaded = LoadReplay(first);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();

    // The serialized form is a fixpoint...
    std::stringstream second;
    ASSERT_TRUE(SaveReplay(loaded.value(), second).ok());
    EXPECT_EQ(first.str(), second.str()) << "seed " << seed;

    // ...and the loaded spec replays to the identical outcome.
    auto a = RunDifferential(spec, {});
    auto b = RunDifferential(loaded.value(), {});
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->requests_run, b->requests_run);
    EXPECT_EQ(a->divergences.size(), b->divergences.size());
  }
}

// The corpus holds shrunk repros of bugs the harness has caught (one real,
// two injected). The stock matchers must stay divergence-free on them.
class CorpusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusTest, ReplaysCleanlyWithStockMatchers) {
  const std::string path =
      std::string(PTAR_TEST_CORPUS_DIR) + "/" + GetParam();
  auto spec = LoadReplayFromFile(path);
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  auto outcome = RunDifferential(spec.value(), {});
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_GT(outcome->requests_run, 0u);
  for (const Divergence& d : outcome->divergences) {
    ADD_FAILURE() << d.Describe();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Replays, CorpusTest,
    ::testing::Values("lemma9_same_gap_regression.replay",
                      "broken_lemma3_shrunk.replay",
                      "broken_lemma11_shrunk.replay"));

// The two injected-fault repros still catch their fault: the scenario's
// engine walks its vehicles before each request, so a change to the walks
// could leave a repro that no longer diverges, and the clean replays above
// would not notice.
TEST(CorpusTest, InjectedFaultStillDiverges) {
  for (const int lemma : {3, 11}) {
    SCOPED_TRACE("lemma " + std::to_string(lemma));
    const std::string path = std::string(PTAR_TEST_CORPUS_DIR) +
                             "/broken_lemma" + std::to_string(lemma) +
                             "_shrunk.replay";
    auto spec = LoadReplayFromFile(path);
    ASSERT_TRUE(spec.ok()) << spec.status().message();
    const MatcherFactory factory = [lemma] {
      std::vector<std::unique_ptr<Matcher>> m;
      m.push_back(std::make_unique<BaselineMatcher>());
      m.push_back(std::make_unique<BrokenLemmaMatcher>(lemma));
      return m;
    };
    auto outcome = RunDifferential(spec.value(), {}, factory);
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    ASSERT_FALSE(outcome->ok());
    const Divergence& first = outcome->divergences[0];
    EXPECT_EQ(first.type, DivergenceType::kMissingOption) << first.Describe();
    EXPECT_GT(first.lemma_hits[lemma], 0u) << first.Describe();
  }
}

// End to end: an injected over-aggressive bound is caught, attributed to
// its lemma, and shrinks to a handful of vehicles and requests.
TEST(ShrinkerTest, CatchesAndMinimizesInjectedLemmaBug) {
  const MatcherFactory factory = [] {
    std::vector<std::unique_ptr<Matcher>> m;
    m.push_back(std::make_unique<BaselineMatcher>());
    m.push_back(std::make_unique<BrokenLemmaMatcher>(/*lemma=*/3));
    return m;
  };

  DifferentialConfig config;
  config.stop_at_first = true;
  ScenarioSpec failing;
  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 20 && !caught; ++seed) {
    const ScenarioSpec spec = MakeRandomSpec(seed);
    auto outcome = RunDifferential(spec, config, factory);
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    if (!outcome->ok()) {
      caught = true;
      failing = spec;
      EXPECT_EQ(outcome->divergences[0].type,
                DivergenceType::kMissingOption);
      EXPECT_GT(outcome->divergences[0].lemma_hits[3], 0u);
    }
  }
  ASSERT_TRUE(caught) << "injected bug never diverged in 20 seeds";

  ShrinkOptions sopts;
  sopts.max_evals = 200;
  const ShrinkResult shrunk = ShrinkScenario(failing, sopts, factory);
  ASSERT_TRUE(shrunk.reproduced);
  EXPECT_LE(shrunk.spec.vehicle_starts.size(), 4u);
  EXPECT_LE(shrunk.spec.requests.size(), 6u);
  EXPECT_EQ(shrunk.divergence.type, DivergenceType::kMissingOption);

  // The minimized scenario survives a serialization round-trip and still
  // diverges — exactly what `--repro_out` files rely on.
  std::stringstream out;
  ASSERT_TRUE(SaveReplay(shrunk.spec, out).ok());
  auto reloaded = LoadReplay(out);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().message();
  auto replayed = RunDifferential(reloaded.value(), config, factory);
  ASSERT_TRUE(replayed.ok());
  EXPECT_FALSE(replayed->ok());
}

// Pins the cell lemmas 4, 6, 8 and 10, which read the registry's
// aggregates: on the scenario `ptar_check --first_seed=23 --seeds=1` runs,
// each tested matcher's per-lemma hits and cell counts equal recorded
// constants, so a change to the aggregates or to the cell lemmas' order or
// gating moves a pinned count.
TEST(CellLemmaPinTest, Seed23CountsArePinned) {
  // Lemma hits 1..11, then pruned_cells, scanned_cells. Recorded when idle
  // walks moved to one SplitMix64 stream per vehicle. DSA's counts equal
  // those streams' in the former tick-major advance. SSA's Lemma 3, 9 and 11
  // hits read 768, 47 and 512 there: the vehicle-major advance writes each
  // idle vehicle's cell once per call, so cells list the same vehicles in
  // another order, and SSA's per-vehicle checks follow that order.
  using Counts = std::array<std::uint64_t, 13>;
  const std::array<Counts, 3> pins = {{
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},  // BA
      {0, 108, 783, 16, 2722, 54, 1656, 0, 44, 0, 531, 178, 2310},  // SSA
      {0, 107, 793, 16, 2729, 54, 1730, 47, 72, 3, 445, 227, 4620},  // DSA
  }};
  auto outcome = RunDifferential(MakeRandomSpec(23), {});
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_TRUE(outcome->ok());
  ASSERT_EQ(outcome->matchers.size(), pins.size());
  for (std::size_t m = 0; m < pins.size(); ++m) {
    SCOPED_TRACE(outcome->matchers[m].name);
    const MatchStats& t = outcome->matchers[m].totals;
    Counts got{};
    for (std::size_t k = 1; k <= LemmaCounters::kNumLemmas; ++k) {
      got[k - 1] = t.lemma_hits[k];
    }
    got[11] = t.pruned_cells;
    got[12] = t.scanned_cells;
    EXPECT_EQ(got, pins[m]);
  }
}

TEST(ShrinkerTest, CleanScenarioIsNotShrunk) {
  const ScenarioSpec spec = MakeRandomSpec(5);
  ShrinkOptions sopts;
  sopts.max_evals = 50;
  const ShrinkResult result = ShrinkScenario(spec, sopts);
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.spec.requests.size(), spec.requests.size());
}

}  // namespace
}  // namespace ptar::check
