// ptar_check — differential correctness harness for the matching
// algorithms.
//
// Replays randomized scenarios through BA, SSA(1.0), DSA(1.0) and the
// brute-force reference matcher in lockstep, comparing skylines per
// request. Any divergence is a correctness bug in a matcher or a pruning
// lemma; the harness classifies it, optionally shrinks the scenario to a
// minimal repro, and serializes the repro as a replay file.
//
// Modes:
//   (default)   fuzz --seeds randomized scenarios; exit 1 on divergence
//   --replay    run one saved replay file instead of random scenarios
//   --selftest  sabotage a lemma on purpose and demand the harness catch,
//               classify, and shrink it (validates the harness itself)
//   --tree_spec check the kinetic tree against a Definition-2 enumerator
//               over seeded op streams
//
// All randomness is seed-driven; identical invocations are bit-identical.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/differential.h"
#include "check/fault_injection.h"
#include "check/replay_io.h"
#include "check/scenario.h"
#include "check/shrinker.h"
#include "check/tree_spec.h"
#include "common/flags.h"
#include "obs/report.h"
#include "rideshare/baseline_matcher.h"

namespace ptar::check {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int FailUsage(const std::string& message) {
  std::fprintf(stderr, "error: %s\n(run 'ptar_check --help' for usage)\n",
               message.c_str());
  return 2;
}

int CheckUnused(const FlagParser& flags) {
  const std::vector<std::string> unused = flags.UnusedFlags();
  if (unused.empty()) return 0;
  std::string joined;
  for (const std::string& name : unused) joined += " --" + name;
  return FailUsage("unknown flag(s):" + joined);
}

int Help() {
  std::printf(
      "ptar_check — differential oracle harness (BA/SSA/DSA vs brute "
      "force)\n\n"
      "usage: ptar_check [--seeds=N] [--first_seed=N] [--shrink]\n"
      "                  [--repro_out=FILE] [--replay=FILE] [--selftest]\n"
      "                  [--broken_lemma=1|3|11] [--report_out=FILE]\n"
      "                  [--prune_check] [--corpus_dir=DIR]\n"
      "                  [--shrink_ellipse=F]\n"
      "                  [--distance_backend=dijkstra|ch]\n"
      "                  [--request_budget=N] [--inject=SPEC] [--verbose]\n"
      "                  [--tree_spec=N] [--tree_cap=N]\n"
      "                  [--help]\n\n"
      "  --seeds=N         randomized scenarios to fuzz (default 50)\n"
      "  --first_seed=N    first seed of the range (default 1)\n"
      "  --shrink          minimize the first failing scenario\n"
      "  --repro_out=FILE  where to write the shrunk replay "
      "(default repro.replay)\n"
      "  --replay=FILE     run one saved replay file and exit\n"
      "  --selftest        verify the harness catches a sabotaged lemma\n"
      "  --broken_lemma=N  which lemma the selftest sabotages (default 3)\n"
      "  --report_out=FILE versioned JSON run report (schema v2, "
      "\"differential\" counters)\n"
      "  --prune_check     prune-soundness mode: run BA/SSA/DSA behind the\n"
      "                    GeoPrune ellipse prefilter (engine option\n"
      "                    prune=ellipse) against the unpruned reference;\n"
      "                    any skyline difference fails the sweep\n"
      "  --corpus_dir=DIR  with --prune_check: first replay every .replay\n"
      "                    file in DIR (the saved regression corpus) under\n"
      "                    the prefilter, then fuzz --seeds\n"
      "  --shrink_ellipse=F  with --prune_check: ShrinkEllipse fault\n"
      "                    selftest — BA against BA behind a prefilter\n"
      "                    whose ellipses are under-sized by factor F in\n"
      "                    (0, 1); the harness must catch the resulting\n"
      "                    missing options and attribute them to the prune\n"
      "                    stage (default 1 = sound, no fault)\n"
      "  --distance_backend=NAME  oracle backend for every engine in the\n"
      "                    run: dijkstra (default) or ch\n"
      "  --request_budget=N  deterministic work-unit budget per tested\n"
      "                    matcher; truncated (partial) skylines are then\n"
      "                    checked as subsets of the reference's full\n"
      "                    option set instead of for equality\n"
      "  --inject=SPEC     oracle faults for every tested matcher (never\n"
      "                    the reference): comma-separated key=value of\n"
      "                    fail_rate, seed, slow_us, stall_every, stall_us\n"
      "                    (e.g. fail_rate=0.05,seed=7); faulted results\n"
      "                    must still be subsets of the clean reference\n"
      "  --tree_spec=N     kinetic-tree spec mode: drive a tree through N\n"
      "                    seeded op streams and compare it after every op\n"
      "                    with a brute-force enumeration of Definition 2;\n"
      "                    any missing or invalid branch, bookkeeping or\n"
      "                    status difference, or auditor finding fails the\n"
      "                    run (takes --first_seed, --distance_backend,\n"
      "                    --report_out and --verbose only)\n"
      "  --tree_cap=N      with --tree_spec: also run each seed on a tree\n"
      "                    capped at N branches (--tree_max_branches=N) and\n"
      "                    check its branches stay valid with every loss\n"
      "                    attributed to its drop counters (default 8; 0\n"
      "                    disables)\n");
  return 0;
}

/// Accumulates per-run statistics destined for the obs report pipeline.
struct HarnessStats {
  std::uint64_t scenarios = 0;
  std::uint64_t requests = 0;
  std::uint64_t divergences = 0;
  std::uint64_t partial_results = 0;  ///< Subset-checked truncated results.
  std::vector<MatcherSummary> matchers;  ///< Merged across scenarios.

  void Fold(const DifferentialOutcome& outcome) {
    ++scenarios;
    requests += outcome.requests_run;
    divergences += outcome.divergences.size();
    partial_results += outcome.partial_results;
    if (matchers.empty()) {
      matchers = outcome.matchers;
      return;
    }
    for (std::size_t m = 0;
         m < matchers.size() && m < outcome.matchers.size(); ++m) {
      matchers[m].options_sum += outcome.matchers[m].options_sum;
      matchers[m].totals.Accumulate(outcome.matchers[m].totals);
    }
  }
};

/// Emits the run through the standard report pipeline: every harness
/// counter lives under the "differential/" metrics section; per-matcher
/// totals reuse the MatcherReport rows.
int WriteReport(const HarnessStats& stats, const std::string& path) {
  if (path.empty()) return 0;
  obs::RunReport report;
  report.tool = "ptar_check";
  report.metrics.AddCounter("differential/scenarios", stats.scenarios);
  report.metrics.AddCounter("differential/requests", stats.requests);
  report.metrics.AddCounter("differential/divergences", stats.divergences);
  report.metrics.AddCounter("differential/partial_results",
                            stats.partial_results);
  for (const MatcherSummary& m : stats.matchers) {
    obs::MatcherReport row;
    row.name = m.name;
    row.options_sum = m.options_sum;
    row.verified_vehicles = m.totals.verified_vehicles;
    row.compdists = m.totals.compdists;
    row.scanned_cells = m.totals.scanned_cells;
    row.pruned_cells = m.totals.pruned_cells;
    row.pruned_vehicles = m.totals.pruned_vehicles;
    row.elapsed_micros = m.totals.elapsed_micros;
    report.matchers.push_back(row);
    for (std::size_t l = 1; l <= LemmaCounters::kNumLemmas; ++l) {
      if (m.totals.lemma_hits[l] == 0) continue;
      report.metrics.AddCounter(
          "differential/" + m.name + "/lemma" + std::to_string(l) + "_hits",
          m.totals.lemma_hits[l]);
    }
    if (m.totals.ellipse_checked > 0) {
      report.metrics.AddCounter(
          "differential/" + m.name + "/ellipse_checked",
          m.totals.ellipse_checked);
      report.metrics.AddCounter("differential/" + m.name + "/ellipse_pruned",
                                m.totals.ellipse_pruned);
    }
  }
  const Status status = obs::WriteRunReport(report, path);
  if (!status.ok()) return Fail(status);
  return 0;
}

void PrintDivergences(const DifferentialOutcome& outcome, std::size_t limit) {
  std::size_t shown = 0;
  for (const Divergence& d : outcome.divergences) {
    if (shown++ >= limit) {
      std::printf("  ... %zu more divergence(s)\n",
                  outcome.divergences.size() - limit);
      break;
    }
    std::printf("  %s\n", d.Describe().c_str());
  }
}

/// Shrinks a failing spec and writes the repro; prints the reduction.
int ShrinkAndSave(const ScenarioSpec& spec, const std::string& repro_out,
                  const DifferentialConfig& config) {
  ShrinkOptions sopts;
  sopts.config = config;
  const ShrinkResult shrunk = ShrinkScenario(spec, sopts);
  if (!shrunk.reproduced) {
    std::fprintf(stderr, "error: divergence did not reproduce for shrink\n");
    return 1;
  }
  std::printf(
      "shrunk to %zu vehicle(s), %zu request(s) in %zu eval(s):\n  %s\n",
      shrunk.spec.vehicle_starts.size(), shrunk.spec.requests.size(),
      shrunk.evals, shrunk.divergence.Describe().c_str());
  if (!repro_out.empty()) {
    const Status saved = SaveReplayToFile(shrunk.spec, repro_out);
    if (!saved.ok()) return Fail(saved);
    std::printf("repro written to %s\n", repro_out.c_str());
  }
  return 0;
}

int RunOneReplay(const std::string& path, bool shrink,
                 const std::string& repro_out,
                 const std::string& report_out,
                 const DifferentialConfig& config) {
  auto spec = LoadReplayFromFile(path);
  if (!spec.ok()) return Fail(spec.status());
  auto outcome = RunDifferential(spec.value(), config);
  if (!outcome.ok()) return Fail(outcome.status());

  HarnessStats stats;
  stats.Fold(outcome.value());
  if (const int rc = WriteReport(stats, report_out); rc != 0) return rc;

  if (!outcome.value().ok()) {
    std::printf("FAIL %s: %zu divergence(s) over %zu request(s)\n",
                path.c_str(), outcome.value().divergences.size(),
                outcome.value().requests_run);
    PrintDivergences(outcome.value(), 10);
    if (shrink) {
      if (const int rc = ShrinkAndSave(spec.value(), repro_out, config);
          rc != 0) {
        return rc;
      }
    }
    return 1;
  }
  std::printf("OK %s: %zu request(s), no divergence\n", path.c_str(),
              outcome.value().requests_run);
  return 0;
}

int Fuzz(std::uint64_t first_seed, std::uint64_t seeds, bool shrink,
         const std::string& repro_out, const std::string& report_out,
         bool verbose, const DifferentialConfig& config) {
  HarnessStats stats;
  for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
    const ScenarioSpec spec = MakeRandomSpec(seed);
    auto outcome = RunDifferential(spec, config);
    if (!outcome.ok()) return Fail(outcome.status());
    stats.Fold(outcome.value());
    if (!outcome.value().ok()) {
      std::printf("FAIL seed %llu: %zu divergence(s)\n",
                  static_cast<unsigned long long>(seed),
                  outcome.value().divergences.size());
      PrintDivergences(outcome.value(), 10);
      WriteReport(stats, report_out);
      if (shrink) {
        if (const int rc = ShrinkAndSave(spec, repro_out, config); rc != 0) {
          return rc;
        }
      }
      return 1;
    }
    if (verbose) {
      std::printf("seed %llu ok (%zu requests)\n",
                  static_cast<unsigned long long>(seed),
                  outcome.value().requests_run);
    }
  }
  if (const int rc = WriteReport(stats, report_out); rc != 0) return rc;
  std::printf(
      "OK: %llu scenario(s), %llu request(s), 0 divergences across %zu "
      "matcher(s)%s\n",
      static_cast<unsigned long long>(stats.scenarios),
      static_cast<unsigned long long>(stats.requests),
      stats.matchers.size(),
      stats.partial_results == 0
          ? ""
          : (" (" + std::to_string(stats.partial_results) +
             " subset-checked partial result(s))")
                .c_str());
  return 0;
}

/// Validates the harness end to end: BA beside a deliberately broken
/// matcher must produce a divergence that is caught, classified as
/// missing-option, attributed to the fault by `counter` (named
/// `counter_name` in the failure message), and shrunk to a small repro.
/// `tag` prefixes every line; `fault` names the injected bug.
int SelfTest(const std::string& tag, const std::string& fault,
             const ptar::MatcherFactory& make_broken,
             const std::string& counter_name,
             const std::function<std::uint64_t(const Divergence&)>& counter,
             std::uint64_t seeds, const std::string& repro_out,
             const DifferentialConfig& config) {
  const MatcherFactory factory = [&make_broken] {
    std::vector<std::unique_ptr<Matcher>> matchers;
    matchers.push_back(std::make_unique<BaselineMatcher>());
    matchers.push_back(make_broken());
    return matchers;
  };
  const char* t = tag.c_str();

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const ScenarioSpec spec = MakeRandomSpec(seed);
    auto outcome = RunDifferential(spec, config, factory);
    if (!outcome.ok()) return Fail(outcome.status());
    if (outcome.value().ok()) continue;

    const Divergence& first = outcome.value().divergences.front();
    std::printf("%s: seed %llu diverged: %s\n", t,
                static_cast<unsigned long long>(seed),
                first.Describe().c_str());
    if (first.type != DivergenceType::kMissingOption) {
      std::fprintf(stderr, "%s FAIL: expected missing-option, got %s\n", t,
                   DivergenceTypeName(first.type));
      return 1;
    }
    if (counter(first) == 0) {
      std::fprintf(stderr,
                   "%s FAIL: %s counter is zero in the divergent request\n",
                   t, counter_name.c_str());
      return 1;
    }
    ShrinkOptions sopts;
    sopts.config = config;
    const ShrinkResult shrunk = ShrinkScenario(spec, sopts, factory);
    if (!shrunk.reproduced) {
      std::fprintf(stderr, "%s FAIL: shrink did not reproduce\n", t);
      return 1;
    }
    std::printf("%s: shrunk to %zu vehicle(s), %zu request(s)\n", t,
                shrunk.spec.vehicle_starts.size(),
                shrunk.spec.requests.size());
    if (shrunk.spec.vehicle_starts.size() > 4 ||
        shrunk.spec.requests.size() > 6) {
      std::fprintf(stderr, "%s FAIL: repro not minimal enough\n", t);
      return 1;
    }
    if (!repro_out.empty()) {
      const Status saved = SaveReplayToFile(shrunk.spec, repro_out);
      if (!saved.ok()) return Fail(saved);
      std::printf("%s repro written to %s\n", t, repro_out.c_str());
    }
    std::printf("%s PASS (%s caught)\n", t, fault.c_str());
    return 0;
  }
  std::fprintf(stderr,
               "%s FAIL: no divergence in %llu seed(s) — %s was not "
               "caught\n",
               t, static_cast<unsigned long long>(seeds), fault.c_str());
  return 1;
}

/// Prune-soundness sweep: every saved regression repro first (each one is a
/// scenario that once exposed a pruning bug, so the prefilter must stay
/// divergence-free on it), then fresh fuzz seeds — BA/SSA/DSA behind the
/// prefilter (`config.prune`) against the reference, which never prunes.
int PruneCheck(std::uint64_t first_seed, std::uint64_t seeds,
               const std::string& corpus_dir, bool shrink,
               const std::string& repro_out, const std::string& report_out,
               bool verbose, const DifferentialConfig& config) {
  if (!corpus_dir.empty()) {
    std::error_code ec;
    std::vector<std::filesystem::path> files;
    for (std::filesystem::directory_iterator it(corpus_dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->path().extension() == ".replay") files.push_back(it->path());
    }
    if (ec) {
      return FailUsage("cannot read --corpus_dir=" + corpus_dir + ": " +
                       ec.message());
    }
    if (files.empty()) {
      return FailUsage("no .replay files in --corpus_dir=" + corpus_dir);
    }
    std::sort(files.begin(), files.end());
    for (const std::filesystem::path& file : files) {
      if (const int rc = RunOneReplay(file.string(), shrink, repro_out,
                                      /*report_out=*/"", config);
          rc != 0) {
        return rc;
      }
    }
  }
  return Fuzz(first_seed, seeds, shrink, repro_out, report_out, verbose,
              config);
}

/// Tree-spec mode: drives kinetic trees through seeded op streams and fails
/// on any difference from the Definition-2 enumeration. Exercised by
/// differential-nightly on both distance backends.
int TreeSpec(std::uint64_t first_seed, std::uint64_t seeds, std::size_t cap,
             DistanceBackend backend, const std::string& report_out,
             bool verbose) {
  TreeSpecOutcome total;
  for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
    const TreeSpecOutcome one = RunTreeSpec(seed, backend, cap);
    if (verbose) {
      std::printf("seed %llu: %llu ops, %llu commits, %llu arrivals%s\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(one.ops),
                  static_cast<unsigned long long>(one.commits),
                  static_cast<unsigned long long>(one.arrivals),
                  one.ok() ? "" : " [DIVERGED]");
    }
    total.Fold(one);
  }
  for (const std::string& finding : total.findings) {
    std::fprintf(stderr, "divergence: %s\n", finding.c_str());
  }
  if (!report_out.empty()) {
    obs::RunReport report;
    report.tool = "ptar_check";
    report.metrics.AddCounter("tree_spec/seeds", seeds);
    report.metrics.AddCounter("tree_spec/ops", total.ops);
    report.metrics.AddCounter("tree_spec/commits", total.commits);
    report.metrics.AddCounter("tree_spec/arrivals", total.arrivals);
    report.metrics.AddCounter("tree_spec/divergences", total.divergences);
    report.metrics.AddCounter("tree_spec/capped_losses", total.capped_losses);
    report.metrics.AddCounter("tree_spec/capped_drops", total.capped_drops);
    const Status status = obs::WriteRunReport(report, report_out);
    if (!status.ok()) return Fail(status);
  }
  if (!total.ok()) {
    std::fprintf(stderr,
                 "FAIL: %llu divergence(s) from Definition 2 across %llu "
                 "seed(s)\n",
                 static_cast<unsigned long long>(total.divergences),
                 static_cast<unsigned long long>(seeds));
    return 1;
  }
  std::printf(
      "PASS: kinetic tree matched Definition 2 over %llu seed(s) (%llu ops, "
      "%llu commits, %llu arrivals, %llu borderline; capped run: %llu "
      "attributed loss(es), %llu dropped branch(es))\n",
      static_cast<unsigned long long>(seeds),
      static_cast<unsigned long long>(total.ops),
      static_cast<unsigned long long>(total.commits),
      static_cast<unsigned long long>(total.arrivals),
      static_cast<unsigned long long>(total.borderline),
      static_cast<unsigned long long>(total.capped_losses),
      static_cast<unsigned long long>(total.capped_drops));
  return 0;
}

int Main(int argc, char** argv) {
  auto parsed = FlagParser::Parse(argc, argv);
  if (!parsed.ok()) return FailUsage(parsed.status().message());
  const FlagParser& flags = parsed.value();

  const auto help = flags.GetBool("help", false);
  if (!help.ok()) return Fail(help.status());
  if (*help) return Help();

  const auto seeds = flags.GetInt("seeds", 50);
  const auto first_seed = flags.GetInt("first_seed", 1);
  const auto shrink = flags.GetBool("shrink", false);
  const auto selftest = flags.GetBool("selftest", false);
  const auto broken_lemma = flags.GetInt("broken_lemma", 3);
  const auto prune_check = flags.GetBool("prune_check", false);
  const auto shrink_ellipse = flags.GetDouble("shrink_ellipse", 1.0);
  const std::string corpus_dir = flags.GetString("corpus_dir", "");
  const auto verbose = flags.GetBool("verbose", false);
  const std::string replay = flags.GetString("replay", "");
  const std::string repro_out = flags.GetString("repro_out", "repro.replay");
  const std::string report_out = flags.GetString("report_out", "");
  const std::string backend_name =
      flags.GetString("distance_backend", "dijkstra");
  const auto request_budget = flags.GetInt("request_budget", 0);
  const auto tree_spec = flags.GetInt("tree_spec", 0);
  const auto tree_cap = flags.GetInt("tree_cap", 8);
  const std::string inject = flags.GetString("inject", "");
  if (!seeds.ok()) return Fail(seeds.status());
  if (!first_seed.ok()) return Fail(first_seed.status());
  if (!shrink.ok()) return Fail(shrink.status());
  if (!selftest.ok()) return Fail(selftest.status());
  if (!broken_lemma.ok()) return Fail(broken_lemma.status());
  if (!prune_check.ok()) return Fail(prune_check.status());
  if (!shrink_ellipse.ok()) return Fail(shrink_ellipse.status());
  if (!verbose.ok()) return Fail(verbose.status());
  if (!request_budget.ok()) return Fail(request_budget.status());
  if (*seeds < 1) return FailUsage("--seeds must be >= 1");
  if (*first_seed < 0) return FailUsage("--first_seed must be >= 0");
  if (*request_budget < 0) return FailUsage("--request_budget must be >= 0");
  if (!tree_spec.ok()) return Fail(tree_spec.status());
  if (!tree_cap.ok()) return Fail(tree_cap.status());
  if (flags.Has("tree_spec") && *tree_spec < 1) {
    return FailUsage("--tree_spec must be >= 1");
  }
  if (*tree_cap < 0) return FailUsage("--tree_cap must be >= 0");
  if (flags.Has("tree_cap") && !flags.Has("tree_spec")) {
    return FailUsage("--tree_cap requires --tree_spec");
  }
  if (flags.Has("tree_spec")) {
    for (const char* mode :
         {"seeds", "shrink", "repro_out", "replay", "selftest",
          "broken_lemma", "prune_check", "corpus_dir", "shrink_ellipse",
          "request_budget", "inject"}) {
      if (flags.Has(mode)) {
        return FailUsage(std::string("--tree_spec cannot be combined with --") +
                         mode);
      }
    }
  }
  if (*shrink_ellipse <= 0.0 || *shrink_ellipse > 1.0) {
    return FailUsage("--shrink_ellipse must be in (0, 1]");
  }
  if (!*prune_check && (*shrink_ellipse != 1.0 || !corpus_dir.empty())) {
    return FailUsage(
        "--shrink_ellipse and --corpus_dir require --prune_check");
  }
  const auto backend = ParseDistanceBackend(backend_name);
  if (!backend.ok()) return FailUsage(backend.status().message());
  if (const int rc = CheckUnused(flags); rc != 0) return rc;

  DifferentialConfig config;
  config.distance_backend = *backend;
  config.request_budget = static_cast<std::uint64_t>(*request_budget);
  if (!inject.empty()) {
    auto plan = ParseFaultPlan(inject);
    if (!plan.ok()) return FailUsage(plan.status().message());
    config.faults = *plan;
  }

  if (*tree_spec > 0) {
    return TreeSpec(static_cast<std::uint64_t>(*first_seed),
                    static_cast<std::uint64_t>(*tree_spec),
                    static_cast<std::size_t>(*tree_cap), *backend, report_out,
                    *verbose);
  }
  if (*selftest) {
    if (*broken_lemma != 1 && *broken_lemma != 3 && *broken_lemma != 11) {
      return FailUsage("--broken_lemma must be 1, 3, or 11");
    }
    const int lemma = static_cast<int>(*broken_lemma);
    return SelfTest(
        "selftest", "broken lemma " + std::to_string(lemma),
        [lemma] { return std::make_unique<BrokenLemmaMatcher>(lemma); },
        "lemma " + std::to_string(lemma),
        [lemma](const Divergence& d) {
          return d.lemma_hits[static_cast<std::size_t>(lemma)];
        },
        static_cast<std::uint64_t>(*seeds), repro_out, config);
  }
  if (*prune_check) {
    if (*shrink_ellipse != 1.0) {
      const double factor = *shrink_ellipse;
      char fault[64];
      std::snprintf(fault, sizeof(fault), "ShrinkEllipse %.3g", factor);
      return SelfTest(
          "prune selftest", fault,
          [factor] { return std::make_unique<BrokenPrefilterMatcher>(factor); },
          "ellipse_pruned",
          [](const Divergence& d) { return d.ellipse_pruned; },
          static_cast<std::uint64_t>(*seeds), repro_out, config);
    }
    config.prune = PruneMode::kEllipse;
    return PruneCheck(static_cast<std::uint64_t>(*first_seed),
                      static_cast<std::uint64_t>(*seeds), corpus_dir,
                      *shrink, repro_out, report_out, *verbose, config);
  }
  if (!replay.empty()) {
    return RunOneReplay(replay, *shrink, repro_out, report_out, config);
  }
  return Fuzz(static_cast<std::uint64_t>(*first_seed),
              static_cast<std::uint64_t>(*seeds), *shrink, repro_out,
              report_out, *verbose, config);
}

}  // namespace
}  // namespace ptar::check

int main(int argc, char** argv) {
  return ptar::check::Main(argc, argv);
}
