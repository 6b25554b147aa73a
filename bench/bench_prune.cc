// GeoPrune effectiveness bench: verified-vehicles-per-request with and
// without the ellipse prefilter across fleet sizes. Every scale runs twice
// through the harness, once with prune=none and once with prune=ellipse,
// with the same slots: BA (commits; the precision/recall reference),
// SSA(1.0) and SSA at the production fraction. Writes BENCH_prune.json.
//
// Self-enforced bars (exit 1 on violation, deterministic inputs):
//   - the prefilter is lossless at full coverage: the pruned pass commits
//     the unpruned pass's log, pruned BA and SSA(1.0) return as many
//     options as unpruned, and pruned SSA(1.0) keeps recall exactly 1.0
//     against pruned BA;
//   - the production partial-coverage SSA has *identical* recall in both
//     passes (partial search misses options by design; the prefilter must
//     not change which ones);
//   - at the 10k-vehicle point, pruned SSA(1.0) verifies at least 3x fewer
//     vehicles per request than unpruned SSA(1.0).

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/ssa_matcher.h"

int main(int argc, char** argv) {
  using namespace ptar;
  using namespace ptar::bench;
  PrintBanner("bench_prune",
              "ellipse-prefilter pruning power vs grid lower bounds");

  BenchConfig base;
  ObsSession obs(argc, argv, "bench_prune");
  Harness harness(base);
  harness.AttachObs(&obs);

  struct Scale {
    int num_vehicles;
    std::size_t num_requests;
  };
  // Fewer requests at the largest fleet keeps the bench in seconds; the
  // per-request means are what the bars are about.
  const std::vector<Scale> scales = {{1000, 100}, {10000, 100}, {50000, 40}};
  // Matcher slots within each BenchRow.
  constexpr std::size_t kBa = 0;       // BA: commits, recall reference
  constexpr std::size_t kFull = 1;     // SSA(1.0)
  constexpr std::size_t kPartial = 2;  // SSA(fraction): production setting
  const double fraction = base.verified_grid_fraction;
  const std::vector<MatcherFactory> matchers = {
      [] { return std::make_unique<BaselineMatcher>(); },
      [] { return std::make_unique<SsaMatcher>(1.0); },
      [fraction] { return std::make_unique<SsaMatcher>(fraction); }};

  std::vector<BenchRow> rows;
  std::printf("%-28s %-8s %12s %10s %12s %8s\n", "row", "matcher",
              "time(ms)", "verified", "compdists", "recall");
  bool ok = true;
  for (const Scale& scale : scales) {
    BenchConfig cfg = base;
    cfg.num_vehicles = scale.num_vehicles;
    cfg.num_requests = scale.num_requests;
    const std::string label = "vehicles=" + std::to_string(scale.num_vehicles);
    for (const PruneMode mode : {PruneMode::kNone, PruneMode::kEllipse}) {
      cfg.prune = mode;
      const std::string row_label =
          label + (mode == PruneMode::kNone ? " prune=none" : " prune=ellipse");
      rows.push_back(harness.RunWith(cfg, row_label, matchers));
      const BenchRow& row = rows.back();
      for (std::size_t m = 0; m < row.stats.matchers.size(); ++m) {
        const MatcherAggregate& agg = row.stats.matchers[m];
        std::printf("%-28s %-8s %12.3f %10.1f %12.1f %8.4f\n",
                    (m == 0 ? row_label.c_str() : ""), agg.name.c_str(),
                    agg.MeanMillis(), agg.MeanVerified(), agg.MeanCompdists(),
                    agg.MeanRecall());
      }
    }
    const std::vector<MatcherAggregate>& plain =
        rows[rows.size() - 2].stats.matchers;
    const std::vector<MatcherAggregate>& pruned = rows.back().stats.matchers;

    // Bar 1: the prefilter is lossless at full coverage.
    if (rows.back().commits != rows[rows.size() - 2].commits) {
      std::fprintf(stderr,
                   "FAIL %s: the pruned pass committed a different log\n",
                   label.c_str());
      ok = false;
    }
    for (const std::size_t m : {kBa, kFull}) {
      if (pruned[m].options_sum != plain[m].options_sum) {
        std::fprintf(stderr,
                     "FAIL %s: pruned %s returned %llu options, unpruned "
                     "%llu — the prefilter dropped options\n",
                     label.c_str(), pruned[m].name.c_str(),
                     static_cast<unsigned long long>(pruned[m].options_sum),
                     static_cast<unsigned long long>(plain[m].options_sum));
        ok = false;
      }
    }
    if (pruned[kFull].MeanRecall() < 1.0) {
      std::fprintf(stderr,
                   "FAIL %s: pruned SSA(1.0) recall %.6f < 1.0 — the "
                   "prefilter dropped options\n",
                   label.c_str(), pruned[kFull].MeanRecall());
      ok = false;
    }
    // Bar 2: on the partial-coverage matcher the prefilter must not change
    // the answer, only the work (its misses come from the verified-cell
    // budget, not from pruning).
    const double part = plain[kPartial].MeanRecall();
    const double part_el = pruned[kPartial].MeanRecall();
    if (std::abs(part - part_el) > 1e-12) {
      std::fprintf(stderr,
                   "FAIL %s: partial-coverage recall changed under pruning "
                   "(%.9f vs %.9f)\n",
                   label.c_str(), part, part_el);
      ok = false;
    }
    // Bar 3: >= 3x verified-vehicle reduction at the 10k point.
    const double ratio =
        pruned[kFull].MeanVerified() > 0.0
            ? plain[kFull].MeanVerified() / pruned[kFull].MeanVerified()
            : 0.0;
    std::printf("%-28s verified-reduction unpruned/pruned SSA = %.2fx at "
                "full coverage, %.2fx at %.0f%%\n",
                "", ratio,
                pruned[kPartial].MeanVerified() > 0.0
                    ? plain[kPartial].MeanVerified() /
                          pruned[kPartial].MeanVerified()
                    : 0.0,
                fraction * 100.0);
    if (scale.num_vehicles == 10000 && ratio < 3.0) {
      std::fprintf(stderr,
                   "FAIL %s: verified-vehicles reduction %.2fx < 3x bar\n",
                   label.c_str(), ratio);
      ok = false;
    }
  }

  if (!WriteMatchingJson("BENCH_prune.json", rows)) {
    std::fprintf(stderr, "failed to write BENCH_prune.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_prune.json\n");
  if (!ok) return 1;
  std::printf("bars met: lossless recall, >= 3x verified reduction at 10k "
              "vehicles\n");
  return 0;
}
