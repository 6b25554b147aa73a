// ptar — command-line front end for the price-and-time-aware ridesharing
// library.
//
// Subcommands:
//   generate-network  synthesize a city and save it (ptar text format)
//   info              print statistics of a saved network
//   generate-requests synthesize a demand trace for a network (CSV)
//   simulate          replay a trace against a fleet with BA/SSA/DSA
//   match             answer one ad-hoc request and print the skyline
//
// Run `ptar <subcommand> --help` for per-command flags. All randomness is
// seed-driven; identical invocations produce identical output.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "check/fault_injection.h"
#include "common/flags.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "grid/grid_index.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/run_report.h"
#include "sim/trace_io.h"
#include "sim/workload.h"

namespace ptar::cli {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int FailUsage(const std::string& message) {
  std::fprintf(stderr, "error: %s\n(run 'ptar help' for usage)\n",
               message.c_str());
  return 2;
}

/// Rejects unrecognized flags (typo protection) after a command ran its
/// accessors.
int CheckUnused(const FlagParser& flags) {
  const std::vector<std::string> unused = flags.UnusedFlags();
  if (unused.empty()) return 0;
  std::string joined;
  for (const std::string& name : unused) joined += " --" + name;
  return FailUsage("unknown flag(s):" + joined);
}

int Help() {
  std::printf(
      "ptar — price-and-time-aware dynamic ridesharing (ICDE 2018 "
      "reproduction)\n\n"
      "usage: ptar <command> [--flag=value ...]\n\n"
      "commands:\n"
      "  generate-network --out=FILE [--style=grid|ring] [--rows=N]\n"
      "      [--cols=N] [--spacing=M] [--rings=N] [--spokes=N] [--seed=N]\n"
      "  info --network=FILE\n"
      "  generate-requests --network=FILE --out=FILE [--count=N]\n"
      "      [--duration=SEC] [--riders=N] [--wait-min=MIN] [--epsilon=E]\n"
      "      [--hotspots=N] [--seed=N]\n"
      "  simulate --network=FILE --requests=FILE [--vehicles=N]\n"
      "      [--capacity=N] [--cell-size=M] [--adaptive] [--fraction=F]\n"
      "      [--policy=price|time|balanced|random] [--shadow] [--seed=N]\n"
      "      [--distance_backend=dijkstra|ch]\n"
      "      [--prune=none|ellipse]\n"
      "      [--request_budget=N] [--deadline_ms=MS] [--inject=SPEC]\n"
      "      [--tree_max_branches=N]\n"
      "      [--engine_threads=N] [--wave_size=N] [--serial_check]\n"
      "      [--trace_out=FILE] [--report_out=FILE]\n"
      "      [--lifecycle_out=FILE] [--lifecycle_sample=F]\n"
      "      [--slo_p99_us=US] [--telemetry_window=SEC]\n"
      "  match --network=FILE --from=V --to=V [--riders=N] [--wait-min=MIN]\n"
      "      [--epsilon=E] [--vehicles=N] [--cell-size=M] [--seed=N]\n"
      "      [--distance_backend=dijkstra|ch] [--prune=none|ellipse]\n"
      "  help\n");
  return 0;
}

int GenerateNetwork(const FlagParser& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return FailUsage("generate-network requires --out=FILE");
  const std::string style = flags.GetString("style", "grid");
  const auto seed = flags.GetInt("seed", 42);
  if (!seed.ok()) return Fail(seed.status());

  StatusOr<RoadNetwork> graph = Status::Internal("unset");
  if (style == "grid") {
    GridCityOptions opts;
    const auto rows = flags.GetInt("rows", 40);
    const auto cols = flags.GetInt("cols", 40);
    const auto spacing = flags.GetDouble("spacing", 120.0);
    if (!rows.ok()) return Fail(rows.status());
    if (!cols.ok()) return Fail(cols.status());
    if (!spacing.ok()) return Fail(spacing.status());
    opts.rows = static_cast<int>(*rows);
    opts.cols = static_cast<int>(*cols);
    opts.spacing_meters = *spacing;
    opts.seed = static_cast<std::uint64_t>(*seed);
    graph = MakeGridCity(opts);
  } else if (style == "ring") {
    RingRadialCityOptions opts;
    const auto rings = flags.GetInt("rings", 16);
    const auto spokes = flags.GetInt("spokes", 32);
    if (!rings.ok()) return Fail(rings.status());
    if (!spokes.ok()) return Fail(spokes.status());
    opts.rings = static_cast<int>(*rings);
    opts.spokes = static_cast<int>(*spokes);
    opts.seed = static_cast<std::uint64_t>(*seed);
    graph = MakeRingRadialCity(opts);
  } else {
    return FailUsage("--style must be 'grid' or 'ring'");
  }
  if (const int rc = CheckUnused(flags); rc != 0) return rc;
  if (!graph.ok()) return Fail(graph.status());
  if (const Status st = SaveNetworkToFile(*graph, out); !st.ok()) {
    return Fail(st);
  }
  std::printf("wrote %s: %zu vertices, %zu edges\n", out.c_str(),
              graph->num_vertices(), graph->num_edges());
  return 0;
}

int Info(const FlagParser& flags) {
  const std::string path = flags.GetString("network", "");
  if (path.empty()) return FailUsage("info requires --network=FILE");
  if (const int rc = CheckUnused(flags); rc != 0) return rc;
  auto graph = LoadNetworkFromFile(path);
  if (!graph.ok()) return Fail(graph.status());
  std::printf("network: %zu vertices, %zu edges, %s, %.2f MB in memory\n",
              graph->num_vertices(), graph->num_edges(),
              IsConnected(*graph) ? "connected" : "NOT connected",
              graph->MemoryBytes() / 1048576.0);
  Distance total = 0;
  Distance longest = 0;
  for (EdgeId e = 0; e < graph->num_edges(); ++e) {
    total += graph->EdgeWeight(e);
    longest = std::max(longest, graph->EdgeWeight(e));
  }
  std::printf("road length: %.1f km total, %.0f m mean segment, %.0f m "
              "longest segment\n", total / 1000.0,
              graph->num_edges() ? total / graph->num_edges() : 0.0,
              longest);
  return 0;
}

int GenerateRequests(const FlagParser& flags) {
  const std::string network = flags.GetString("network", "");
  const std::string out = flags.GetString("out", "");
  if (network.empty() || out.empty()) {
    return FailUsage("generate-requests requires --network=FILE --out=FILE");
  }
  auto graph = LoadNetworkFromFile(network);
  if (!graph.ok()) return Fail(graph.status());

  WorkloadOptions opts;
  const auto count = flags.GetInt("count", 200);
  const auto duration = flags.GetDouble("duration", 1800.0);
  const auto riders = flags.GetInt("riders", 1);
  const auto wait = flags.GetDouble("wait-min", 2.0);
  const auto epsilon = flags.GetDouble("epsilon", 0.2);
  const auto hotspots = flags.GetInt("hotspots", 4);
  const auto seed = flags.GetInt("seed", 7);
  for (const Status& st :
       {count.status(), duration.status(), riders.status(), wait.status(),
        epsilon.status(), hotspots.status(), seed.status()}) {
    if (!st.ok()) return Fail(st);
  }
  if (const int rc = CheckUnused(flags); rc != 0) return rc;
  opts.num_requests = static_cast<std::size_t>(*count);
  opts.duration_seconds = *duration;
  opts.riders = static_cast<int>(*riders);
  opts.waiting_minutes = *wait;
  opts.epsilon = *epsilon;
  opts.num_hotspots = static_cast<int>(*hotspots);
  opts.seed = static_cast<std::uint64_t>(*seed);

  auto requests = GenerateWorkload(*graph, opts);
  if (!requests.ok()) return Fail(requests.status());
  if (const Status st = SaveRequestsToFile(*requests, out); !st.ok()) {
    return Fail(st);
  }
  std::printf("wrote %s: %zu requests over %.0f s\n", out.c_str(),
              requests->size(), opts.duration_seconds);
  return 0;
}

StatusOr<ChoicePolicy> ParsePolicy(const std::string& name) {
  if (name == "price") return ChoicePolicy::kMinPrice;
  if (name == "time") return ChoicePolicy::kMinTime;
  if (name == "balanced") return ChoicePolicy::kBalanced;
  if (name == "random") return ChoicePolicy::kRandom;
  return Status::InvalidArgument(
      "--policy must be price|time|balanced|random");
}

int Simulate(const FlagParser& flags) {
  const std::string network = flags.GetString("network", "");
  const std::string trace = flags.GetString("requests", "");
  if (network.empty() || trace.empty()) {
    return FailUsage("simulate requires --network=FILE --requests=FILE");
  }
  auto graph = LoadNetworkFromFile(network);
  if (!graph.ok()) return Fail(graph.status());
  auto requests = LoadRequestsFromFile(trace, *graph);
  if (!requests.ok()) return Fail(requests.status());

  const auto vehicles = flags.GetInt("vehicles", 400);
  const auto capacity = flags.GetInt("capacity", 4);
  const auto cell_size = flags.GetDouble("cell-size", 300.0);
  const auto fraction = flags.GetDouble("fraction", 0.16);
  const auto seed = flags.GetInt("seed", 13);
  const auto shadow = flags.GetBool("shadow", false);
  const bool adaptive = flags.Has("adaptive");
  const std::string trace_out = flags.GetString("trace_out", "");
  const std::string report_out = flags.GetString("report_out", "");
  const std::string lifecycle_out = flags.GetString("lifecycle_out", "");
  const auto lifecycle_sample = flags.GetDouble("lifecycle_sample", 1.0);
  const auto slo_p99_us = flags.GetDouble("slo_p99_us", 0.0);
  const auto telemetry_window = flags.GetDouble("telemetry_window", 60.0);
  const auto policy = ParsePolicy(flags.GetString("policy", "price"));
  const auto backend =
      ParseDistanceBackend(flags.GetString("distance_backend", "dijkstra"));
  const auto request_budget = flags.GetInt("request_budget", 0);
  const auto deadline_ms = flags.GetDouble("deadline_ms", 0.0);
  const auto tree_max_branches = flags.GetInt("tree_max_branches", 0);
  const std::string inject = flags.GetString("inject", "");
  const std::string prune_name = flags.GetString("prune", "none");
  const auto engine_threads = flags.GetInt("engine_threads", 1);
  const auto wave_size = flags.GetInt("wave_size", 0);
  const auto serial_check = flags.GetBool("serial_check", false);
  for (const Status& st :
       {vehicles.status(), capacity.status(), cell_size.status(),
        fraction.status(), seed.status(), shadow.status(),
        policy.status(), backend.status(),
        request_budget.status(), deadline_ms.status(),
        engine_threads.status(), wave_size.status(),
        serial_check.status(), lifecycle_sample.status(),
        slo_p99_us.status(), telemetry_window.status(),
        tree_max_branches.status()}) {
    if (!st.ok()) return Fail(st);
  }
  if (const int rc = CheckUnused(flags); rc != 0) return rc;
  // Validate everything that would otherwise hit a PTAR_CHECK inside the
  // engine or grid constructors: a bad flag is a usage error, not a crash.
  if (*vehicles < 1) return FailUsage("--vehicles must be >= 1");
  if (*capacity < 1) return FailUsage("--capacity must be >= 1");
  if (*cell_size <= 0.0) return FailUsage("--cell-size must be > 0");
  if (*fraction <= 0.0 || *fraction > 1.0) {
    return FailUsage("--fraction must be in (0, 1]");
  }
  if (*request_budget < 0) return FailUsage("--request_budget must be >= 0");
  if (*deadline_ms < 0.0) return FailUsage("--deadline_ms must be >= 0");
  if (*engine_threads < 1) return FailUsage("--engine_threads must be >= 1");
  if (flags.Has("tree_max_branches") && *tree_max_branches < 1) {
    return FailUsage("--tree_max_branches must be >= 1");
  }
  if (*wave_size < 0) return FailUsage("--wave_size must be >= 0");
  if (*lifecycle_sample < 0.0 || *lifecycle_sample > 1.0) {
    return FailUsage("--lifecycle_sample must be in [0, 1]");
  }
  if (*slo_p99_us < 0.0) return FailUsage("--slo_p99_us must be >= 0");
  PruneMode prune_mode = PruneMode::kNone;
  if (!ParsePruneMode(prune_name, &prune_mode)) {
    return FailUsage("--prune must be none|ellipse");
  }
  check::FaultPlan fault_plan;
  if (!inject.empty()) {
    auto plan = check::ParseFaultPlan(inject);
    if (!plan.ok()) return FailUsage(plan.status().message());
    fault_plan = *plan;
  }

  StatusOr<GridIndex> grid =
      adaptive ? GridIndex::BuildAdaptive(&*graph, {})
               : GridIndex::Build(&*graph,
                                  {.cell_size_meters = *cell_size});
  if (!grid.ok()) return Fail(grid.status());

  EngineOptions eopts;
  eopts.num_vehicles = static_cast<int>(*vehicles);
  eopts.vehicle_capacity = static_cast<int>(*capacity);
  eopts.policy = *policy;
  eopts.seed = static_cast<std::uint64_t>(*seed);
  eopts.engine_threads = static_cast<int>(*engine_threads);
  eopts.wave_size = static_cast<int>(*wave_size);
  eopts.distance_backend = *backend;
  eopts.overload.request_budget = static_cast<std::uint64_t>(*request_budget);
  eopts.overload.deadline_ms = *deadline_ms;
  eopts.overload.slo_p99_us = *slo_p99_us;
  eopts.telemetry.window_seconds = *telemetry_window;
  eopts.prune = prune_mode;
  if (flags.Has("tree_max_branches")) {
    eopts.tree_max_branches = static_cast<std::size_t>(*tree_max_branches);
  }
  Engine engine(&*graph, &*grid, eopts);
  // Timing fields in the lifecycle log are opt-in via the one mode that is
  // already documented as nondeterministic (a wall-clock deadline); the
  // default log is byte-identical across thread counts.
  obs::LifecycleRecorder lifecycle(
      obs::LifecycleOptions{.path = lifecycle_out,
                            .sample_rate = *lifecycle_sample,
                            .seed = static_cast<std::uint64_t>(*seed),
                            .include_timing = *deadline_ms > 0.0});
  if (lifecycle.enabled()) engine.SetLifecycleRecorder(&lifecycle);
  if (fault_plan.active()) {
    // Same plan for every matcher slot; the factory is invoked once per
    // oracle so each hook keeps its own stall counter.
    engine.SetFaultHookFactory([fault_plan](std::size_t) {
      return check::MakeFaultHook(fault_plan);
    });
  }

  // Production setup: SSA commits. --shadow commits exact BA results and
  // measures SSA and DSA against them as shadow slots.
  const double ssa_fraction = *fraction;
  const MatcherFactory make_ssa = [ssa_fraction] {
    return std::make_unique<SsaMatcher>(ssa_fraction);
  };
  const MatcherFactory make_dsa = [ssa_fraction] {
    return std::make_unique<DsaMatcher>(ssa_fraction);
  };
  const MatcherFactory make_ba = [] {
    return std::make_unique<BaselineMatcher>();
  };
  const MatcherFactory make_matcher = *shadow ? make_ba : make_ssa;
  const std::vector<MatcherFactory> shadow_matchers =
      *shadow ? std::vector<MatcherFactory>{make_ssa, make_dsa}
              : std::vector<MatcherFactory>{};

  std::printf("simulating %zu requests, %d vehicles, %zu cells (%s)...\n",
              requests->size(), eopts.num_vehicles,
              grid->num_active_cells(), adaptive ? "quadtree" : "uniform");
  if (!trace_out.empty()) obs::TraceRecorder::Global().Start();
  std::vector<CommitRecord> commit_log;
  Timer run_timer;
  const RunStats stats =
      engine.RunPipelined(*requests, make_matcher,
                          *serial_check ? &commit_log : nullptr,
                          shadow_matchers);
  const double run_micros = run_timer.ElapsedMicros();
  if (!trace_out.empty()) obs::TraceRecorder::Global().Stop();

  std::printf("\n%-5s %10s %10s %10s %10s %12s %9s %10s %8s\n", "algo",
              "mean(ms)", "p50(ms)", "p95(ms)", "verified", "compdists",
              "options", "precision", "recall");
  for (const MatcherAggregate& agg : stats.matchers) {
    std::printf("%-5s %10.3f %10.3f %10.3f %10.1f %12.1f %9.2f %10.4f "
                "%8.4f\n",
                agg.name.c_str(), agg.MeanMillis(),
                agg.latency_ms.Percentile(50), agg.latency_ms.Percentile(95),
                agg.MeanVerified(), agg.MeanCompdists(), agg.MeanOptions(),
                agg.MeanPrecision(), agg.MeanRecall());
  }
  std::printf("\nserved %llu / %zu, sharing rate %.3f, kinetic trees "
              "%.3f MB, grid %.3f MB\n",
              static_cast<unsigned long long>(stats.served),
              requests->size(), stats.SharingRate(),
              engine.KineticTreeMemoryBytes() / 1048576.0,
              grid->MemoryBytes() / 1048576.0);
  if (eopts.overload.request_budget > 0 || eopts.overload.deadline_ms > 0.0 ||
      fault_plan.active()) {
    std::printf("robustness: shed %llu, partial skylines %llu, ladder "
                "[full=%llu ssa=%llu grid=%llu shed=%llu]\n",
                static_cast<unsigned long long>(stats.shed_requests),
                static_cast<unsigned long long>(stats.partial_skylines),
                static_cast<unsigned long long>(stats.ladder_requests[0]),
                static_cast<unsigned long long>(stats.ladder_requests[1]),
                static_cast<unsigned long long>(stats.ladder_requests[2]),
                static_cast<unsigned long long>(stats.ladder_requests[3]));
  }
  if (prune_mode == PruneMode::kEllipse) {
    const std::uint64_t checked =
        engine.metrics().Counter("prune/ellipse_checked");
    const std::uint64_t pruned =
        engine.metrics().Counter("prune/ellipse_pruned");
    const std::uint64_t verified =
        engine.metrics().Counter("prune/verified_vehicles");
    const std::uint64_t denom = pruned + verified;
    std::printf("prune: ellipse checked %llu, pruned %llu, verified %llu "
                "(pruned share %.1f%%, alpha %.3f)\n",
                static_cast<unsigned long long>(checked),
                static_cast<unsigned long long>(pruned),
                static_cast<unsigned long long>(verified),
                denom > 0 ? 100.0 * static_cast<double>(pruned) /
                                static_cast<double>(denom)
                          : 0.0,
                engine.metrics().Counter("prune/alpha_ppm") / 1e6);
  }
  const double reqs_per_sec =
      run_micros > 0.0 ? requests->size() / (run_micros / 1e6) : 0.0;
  std::printf("pipeline: %d thread(s), wave %d, %llu waves, %llu "
              "conflicts, %llu rematches (%llu serial), %.1f requests/s\n",
              eopts.engine_threads, engine.ResolvedWaveSize(),
              static_cast<unsigned long long>(stats.waves),
              static_cast<unsigned long long>(stats.conflicts),
              static_cast<unsigned long long>(stats.rematches),
              static_cast<unsigned long long>(stats.serial_rematches),
              reqs_per_sec);
  if (*serial_check) {
    // Canonical serial replay: a fresh engine, same seed and wave
    // structure, one matcher worker. The pipeline's determinism contract
    // says committed assignments must match the parallel run exactly.
    EngineOptions sopts = eopts;
    sopts.engine_threads = 1;
    sopts.wave_size = engine.ResolvedWaveSize();
    Engine serial_engine(&*graph, &*grid, sopts);
    if (fault_plan.active()) {
      serial_engine.SetFaultHookFactory([fault_plan](std::size_t) {
        return check::MakeFaultHook(fault_plan);
      });
    }
    std::vector<CommitRecord> serial_log;
    serial_engine.RunPipelined(*requests, make_matcher, &serial_log,
                               shadow_matchers);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < commit_log.size() || i < serial_log.size();
         ++i) {
      if (i >= commit_log.size() || i >= serial_log.size() ||
          !(commit_log[i] == serial_log[i])) {
        ++mismatches;
        if (mismatches <= 5) {
          const auto describe = [](const std::vector<CommitRecord>& log,
                                   std::size_t j) -> std::string {
            if (j >= log.size()) return "<missing>";
            const CommitRecord& r = log[j];
            if (r.shed) return "request " + std::to_string(r.request) +
                               " shed";
            if (!r.served) return "request " + std::to_string(r.request) +
                                  " unserved";
            return "request " + std::to_string(r.request) + " -> vehicle " +
                   std::to_string(r.vehicle);
          };
          std::fprintf(stderr, "serial_check mismatch at record %zu: "
                       "parallel %s vs serial %s\n", i,
                       describe(commit_log, i).c_str(),
                       describe(serial_log, i).c_str());
        }
      }
    }
    if (mismatches > 0) {
      std::fprintf(stderr,
                   "serial_check FAILED: %zu of %zu records differ from "
                   "the canonical serial replay\n",
                   mismatches,
                   std::max(commit_log.size(), serial_log.size()));
      return 1;
    }
    std::printf("serial_check OK: %zu committed records identical to the "
                "canonical serial replay\n", commit_log.size());
  }
  if (!trace_out.empty()) {
    if (const Status st = obs::TraceRecorder::Global().WriteJson(trace_out);
        !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote trace: %s (load in Perfetto / chrome://tracing)\n",
                trace_out.c_str());
  }
  if (!report_out.empty()) {
    const obs::RunReport report =
        BuildRunReport(stats, engine.metrics(), engine.telemetry().Export(),
                       "ptar_cli simulate");
    if (const Status st = obs::WriteRunReport(report, report_out); !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote report: %s (schema v%d)\n", report_out.c_str(),
                obs::kReportSchemaVersion);
  }
  if (lifecycle.enabled()) {
    if (const Status st = lifecycle.Flush(); !st.ok()) return Fail(st);
    std::printf("wrote lifecycle log: %s (%llu events, schema v%d)\n",
                lifecycle.path().c_str(),
                static_cast<unsigned long long>(lifecycle.events_recorded()),
                obs::kLifecycleSchemaVersion);
  }
  return 0;
}

int MatchOne(const FlagParser& flags) {
  const std::string network = flags.GetString("network", "");
  if (network.empty() || !flags.Has("from") || !flags.Has("to")) {
    return FailUsage("match requires --network=FILE --from=V --to=V");
  }
  auto graph = LoadNetworkFromFile(network);
  if (!graph.ok()) return Fail(graph.status());

  const auto from = flags.GetInt("from", 0);
  const auto to = flags.GetInt("to", 0);
  const auto riders = flags.GetInt("riders", 1);
  const auto wait = flags.GetDouble("wait-min", 3.0);
  const auto epsilon = flags.GetDouble("epsilon", 0.3);
  const auto vehicles = flags.GetInt("vehicles", 200);
  const auto cell_size = flags.GetDouble("cell-size", 300.0);
  const auto seed = flags.GetInt("seed", 13);
  const auto backend =
      ParseDistanceBackend(flags.GetString("distance_backend", "dijkstra"));
  const std::string prune_name = flags.GetString("prune", "none");
  for (const Status& st :
       {from.status(), to.status(), riders.status(), wait.status(),
        epsilon.status(), vehicles.status(), cell_size.status(),
        seed.status(), backend.status()}) {
    if (!st.ok()) return Fail(st);
  }
  if (const int rc = CheckUnused(flags); rc != 0) return rc;
  PruneMode prune_mode = PruneMode::kNone;
  if (!ParsePruneMode(prune_name, &prune_mode)) {
    return FailUsage("--prune must be none|ellipse");
  }
  if (!graph->IsValidVertex(static_cast<VertexId>(*from)) ||
      !graph->IsValidVertex(static_cast<VertexId>(*to)) || *from == *to) {
    return FailUsage("--from/--to must be distinct vertices of the network");
  }
  if (*vehicles < 1) return FailUsage("--vehicles must be >= 1");
  if (*cell_size <= 0.0) return FailUsage("--cell-size must be > 0");

  auto grid = GridIndex::Build(&*graph, {.cell_size_meters = *cell_size});
  if (!grid.ok()) return Fail(grid.status());
  EngineOptions eopts;
  eopts.num_vehicles = static_cast<int>(*vehicles);
  eopts.seed = static_cast<std::uint64_t>(*seed);
  eopts.distance_backend = *backend;
  eopts.prune = prune_mode;
  Engine engine(&*graph, &*grid, eopts);
  // Let the random fleet spread out a little before asking.
  engine.AdvanceTo(120.0);

  Request request;
  request.id = 0;
  request.start = static_cast<VertexId>(*from);
  request.destination = static_cast<VertexId>(*to);
  request.riders = static_cast<int>(*riders);
  request.max_wait_dist = *wait * 60.0 * kDefaultSpeedMetersPerSec;
  request.epsilon = *epsilon;
  request.submit_time = engine.now();

  BaselineMatcher exact;
  std::vector<Matcher*> matchers = {&exact};
  const auto outcome = engine.ProcessRequest(request, matchers);
  std::printf("%zu non-dominated option(s) for %lld -> %lld (%lld riders):\n",
              outcome.results[0].options.size(),
              static_cast<long long>(*from), static_cast<long long>(*to),
              static_cast<long long>(*riders));
  for (const Option& o : outcome.results[0].options) {
    std::printf("  vehicle %-5u pickup %7.0f m (%5.1f min)   price %10.2f\n",
                o.vehicle, o.pickup_dist,
                o.pickup_dist / kDefaultSpeedMetersPerSec / 60.0, o.price);
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Help();
  const std::string command = argv[1];
  auto flags = FlagParser::Parse(argc - 1, argv + 1);
  if (!flags.ok()) return Fail(flags.status());

  if (command == "help" || command == "--help") return Help();
  if (command == "generate-network") return GenerateNetwork(*flags);
  if (command == "info") return Info(*flags);
  if (command == "generate-requests") return GenerateRequests(*flags);
  if (command == "simulate") return Simulate(*flags);
  if (command == "match") return MatchOne(*flags);
  return FailUsage("unknown command '" + command + "'");
}

}  // namespace
}  // namespace ptar::cli

int main(int argc, char** argv) { return ptar::cli::Main(argc, argv); }
