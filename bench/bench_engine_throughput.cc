// Request-parallel engine throughput: the wave pipeline (DESIGN.md §12) at
// engine_threads in {1, 2, 4, 8} on a 10k-vertex perturbed grid city with
// 1k vehicles, written to BENCH_engine_throughput.json (same
// schema-versioned envelope as the other bench emitters).
//
// Per row: end-to-end requests/sec, commit-latency p50/p99 (admission to
// commit, from the pipeline/request_latency_us histogram), conflict rate,
// and re-match counts. Every row runs with the SAME pinned
// wave_size, so the determinism contract applies: committed assignments
// are verified identical across all thread counts before any number is
// reported — a row that diverges from the engine_threads=1 replay fails
// the bench outright.
//
// The speedup bar (>= 3x at engine_threads=8 vs the serial pipeline) is
// only enforced when the host actually has 8 cores to run on; on smaller
// hosts the bench still emits honest numbers (host_cpus is part of the
// JSON) but exits 0, since wall-clock parallel speedup is physically
// unavailable there.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/logging.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "grid/grid_index.h"
#include "obs/json_writer.h"
#include "obs/report.h"
#include "obs/version.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/run_report.h"
#include "sim/workload.h"

namespace ptar {
namespace {

constexpr int kNumVehicles = 1000;
constexpr std::size_t kNumRequests = 400;
constexpr double kDurationSeconds = 120.0;  ///< Dense stream: full waves.
constexpr int kWaveSize = 16;               ///< Pinned for all rows.
constexpr double kSsaFraction = 0.16;       ///< Paper default.
constexpr double kSpeedupBar = 3.0;
constexpr int kBarThreads = 8;

struct Row {
  std::string label;
  int engine_threads = 0;
  double elapsed_ms = 0.0;
  double requests_per_sec = 0.0;
  std::uint64_t served = 0;
  std::uint64_t unserved = 0;
  std::uint64_t waves = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t rematches = 0;
  std::uint64_t serial_rematches = 0;
  double conflict_rate = 0.0;     ///< conflicts / requests.
  double commit_p50_us = 0.0;     ///< Admission-to-commit latency.
  double commit_p99_us = 0.0;
  double speedup_vs_serial = 0.0;  ///< vs the engine_threads=1 pipeline.
};

EngineOptions BaseOptions() {
  EngineOptions eopts;
  eopts.num_vehicles = kNumVehicles;
  eopts.seed = 13;
  eopts.audit_after_commit = false;  // Measure dispatch, not the auditor.
  return eopts;
}

Row RunPipelined(const RoadNetwork& graph, const GridIndex& grid,
                 const std::vector<Request>& requests, int threads,
                 std::vector<CommitRecord>* log, bench::ObsSession* obs) {
  Row row;
  row.label = "pipeline-t" + std::to_string(threads);
  row.engine_threads = threads;
  EngineOptions eopts = BaseOptions();
  eopts.engine_threads = threads;
  eopts.wave_size = kWaveSize;
  Engine engine(&graph, &grid, eopts);
  if (obs->lifecycle() != nullptr) {
    engine.SetLifecycleRecorder(obs->lifecycle());
  }
  Timer timer;
  const RunStats stats = engine.RunPipelined(
      requests, [] { return std::make_unique<SsaMatcher>(kSsaFraction); },
      log);
  row.elapsed_ms = timer.ElapsedMillis();
  row.requests_per_sec = requests.size() / (row.elapsed_ms / 1e3);
  row.served = stats.served;
  row.unserved = stats.unserved;
  row.waves = stats.waves;
  row.conflicts = stats.conflicts;
  row.rematches = stats.rematches;
  row.serial_rematches = stats.serial_rematches;
  row.conflict_rate = static_cast<double>(stats.conflicts) / requests.size();
  if (const obs::LatencyHistogram* latency =
          engine.metrics().FindHistogram("pipeline/request_latency_us")) {
    row.commit_p50_us = latency->Percentile(50);
    row.commit_p99_us = latency->Percentile(99);
  }
  obs->Add(row.label, BuildRunReport(stats, engine.metrics(),
                                     engine.telemetry().Export(),
                                     "bench_engine_throughput"));
  return row;
}

bool WriteJson(const std::string& path, const std::vector<Row>& rows,
               unsigned host_cpus) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("benchmark", "engine_throughput");
  w.KV("schema_version",
       static_cast<std::int64_t>(obs::kReportSchemaVersion));
  w.KV("git_describe", obs::GitDescribe());
  w.KV("host_cpus", static_cast<std::uint64_t>(host_cpus));
  w.KV("num_vehicles", static_cast<std::uint64_t>(kNumVehicles));
  w.KV("num_requests", static_cast<std::uint64_t>(kNumRequests));
  w.KV("wave_size", static_cast<std::uint64_t>(kWaveSize));
  w.Key("rows");
  w.BeginArray();
  for (const Row& r : rows) {
    w.BeginObject();
    w.KV("label", r.label);
    w.KV("engine_threads", static_cast<std::int64_t>(r.engine_threads));
    w.KV("elapsed_ms", r.elapsed_ms);
    w.KV("requests_per_sec", r.requests_per_sec);
    w.KV("served", r.served);
    w.KV("unserved", r.unserved);
    w.KV("waves", r.waves);
    w.KV("conflicts", r.conflicts);
    w.KV("rematches", r.rematches);
    w.KV("serial_rematches", r.serial_rematches);
    w.KV("conflict_rate", r.conflict_rate);
    w.KV("commit_p50_us", r.commit_p50_us);
    w.KV("commit_p99_us", r.commit_p99_us);
    w.KV("speedup_vs_serial", r.speedup_vs_serial);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = w.TakeResult();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

int Main(int argc, char** argv) {
  std::printf("=== bench_engine_throughput: request-parallel waves ===\n");
  bench::ObsSession obs(argc, argv, "engine_throughput");
  const unsigned host_cpus = std::thread::hardware_concurrency();

  GridCityOptions copts;
  copts.rows = 100;
  copts.cols = 100;
  copts.spacing_meters = 100.0;
  copts.seed = 42;
  auto g = MakeGridCity(copts);
  PTAR_CHECK(g.ok()) << g.status();
  const RoadNetwork graph = std::move(g).value();
  auto gi = GridIndex::Build(&graph, {.cell_size_meters = 400.0});
  PTAR_CHECK(gi.ok()) << gi.status();
  const GridIndex grid = std::move(gi).value();

  WorkloadOptions wopts;
  wopts.num_requests = kNumRequests;
  wopts.duration_seconds = kDurationSeconds;
  wopts.epsilon = 0.5;
  wopts.waiting_minutes = 3.0;
  wopts.seed = 8;
  auto reqs = GenerateWorkload(graph, wopts);
  PTAR_CHECK(reqs.ok()) << reqs.status();
  const std::vector<Request> requests = std::move(reqs).value();

  std::printf("city: %zu vertices, %d vehicles, %zu requests, wave %d, "
              "host cpus %u\n\n",
              graph.num_vertices(), kNumVehicles, requests.size(), kWaveSize,
              host_cpus);
  std::printf("%-16s %8s %10s %9s %9s %9s %11s %11s %8s\n", "row", "elapsed",
              "req/s", "served", "conflicts", "rematch", "p50_us", "p99_us",
              "speedup");

  std::vector<Row> rows;
  std::vector<CommitRecord> reference_log;
  double serial_rps = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    std::vector<CommitRecord> log;
    Row row = RunPipelined(graph, grid, requests, threads, &log, &obs);
    if (threads == 1) {
      reference_log = std::move(log);
      serial_rps = row.requests_per_sec;
    } else if (log != reference_log) {
      // The determinism contract broke: timing numbers from diverging runs
      // would compare different work.
      std::fprintf(stderr,
                   "FAIL: engine_threads=%d commits diverge from the "
                   "engine_threads=1 replay\n",
                   threads);
      return 1;
    }
    row.speedup_vs_serial = row.requests_per_sec / serial_rps;
    rows.push_back(row);
  }

  for (const Row& r : rows) {
    std::printf("%-16s %7.0fms %10.1f %9llu %9llu %9llu %11.0f %11.0f "
                "%7.2fx\n",
                r.label.c_str(), r.elapsed_ms, r.requests_per_sec,
                static_cast<unsigned long long>(r.served),
                static_cast<unsigned long long>(r.conflicts),
                static_cast<unsigned long long>(r.rematches), r.commit_p50_us,
                r.commit_p99_us, r.speedup_vs_serial);
  }

  if (!WriteJson("BENCH_engine_throughput.json", rows, host_cpus)) {
    std::fprintf(stderr, "failed to write BENCH_engine_throughput.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_engine_throughput.json\n");

  const Row& bar_row = rows.back();
  PTAR_CHECK(bar_row.engine_threads == kBarThreads);
  if (host_cpus >= static_cast<unsigned>(kBarThreads)) {
    if (bar_row.speedup_vs_serial < kSpeedupBar) {
      std::fprintf(stderr,
                   "FAIL: %.2fx at engine_threads=%d is below the %.1fx "
                   "bar\n",
                   bar_row.speedup_vs_serial, kBarThreads, kSpeedupBar);
      return 1;
    }
    std::printf("speedup at engine_threads=%d: %.2fx (bar: %.1fx)\n",
                kBarThreads, bar_row.speedup_vs_serial, kSpeedupBar);
  } else {
    std::printf("speedup at engine_threads=%d: %.2fx — bar (%.1fx) not "
                "enforced: host has only %u cpus\n",
                kBarThreads, bar_row.speedup_vs_serial, kSpeedupBar,
                host_cpus);
  }
  return 0;
}

}  // namespace
}  // namespace ptar

int main(int argc, char** argv) { return ptar::Main(argc, argv); }
