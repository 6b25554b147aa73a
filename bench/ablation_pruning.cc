// Ablation: contribution of each pruning family to SSA's cost
// (design-choice ablation from DESIGN.md — not a paper table).
//
// All variants return the same option set (pruning is results-preserving by
// Lemmas 1-11); only the work differs. Variants, all at the default 16 %
// verified grid cells:
//   full      cell + edge + insertion-hook pruning (production SSA)
//   -cells    cell-level pruning off (Lemmas 2, 4, 6)
//   -edges    per-vehicle/edge filters off (Lemmas 1, 3, 5)
//   -hooks    lazy in-insertion pruning off (Lemmas 3, 5, 7, 9, 11)
//   none      no pruning (index only used for the search order)

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/ssa_matcher.h"

int main(int argc, char** argv) {
  using namespace ptar;
  using namespace ptar::bench;
  PrintBanner("Ablation", "pruning-family contribution to SSA cost");

  BenchConfig base;
  ObsSession obs(argc, argv, "ablation_pruning");
  Harness harness(base);
  harness.AttachObs(&obs);

  struct Variant {
    const char* label;
    PruningConfig config;
  };
  const std::vector<Variant> variants = {
      {"full", {true, true, true}},
      {"-cells", {false, true, true}},
      {"-edges", {true, false, true}},
      {"-hooks", {true, true, false}},
      {"none", {false, false, false}},
  };

  std::printf("%-8s %12s %10s %12s %9s %8s\n", "variant", "time(ms)",
              "verified", "compdists", "options", "recall");
  for (const Variant& variant : variants) {
    const double fraction = base.verified_grid_fraction;
    const PruningConfig config = variant.config;
    const BenchRow row = harness.RunWith(
        base, variant.label,
        // BA commits, which keeps world state identical per variant.
        {[] { return std::make_unique<BaselineMatcher>(); },
         [fraction, config] {
           return std::make_unique<SsaMatcher>(fraction, config);
         }});
    const MatcherAggregate& agg = row.stats.matchers[1];
    std::printf("%-8s %12.3f %10.1f %12.1f %9.2f %8.4f\n", variant.label,
                agg.MeanMillis(), agg.MeanVerified(), agg.MeanCompdists(),
                agg.MeanOptions(), agg.MeanRecall());
  }
  std::printf(
      "\n(identical 'options'/'recall' across variants confirms pruning is "
      "results-preserving; cost columns isolate each family's saving)\n");
  return 0;
}
