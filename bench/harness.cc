#include "bench/harness.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/json_writer.h"
#include "obs/trace.h"
#include "obs/version.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/run_report.h"

namespace ptar::bench {

ObsSession* ObsSession::active_ = nullptr;

void ObsSession::FlushActiveOnSignal(int sig) {
  // Best-effort, not strictly async-signal-safe (Flush allocates): losing
  // the buffered telemetry of an interrupted or crashing bench is worse
  // than the theoretical reentrancy hazard on this diagnostics-only path.
  if (active_ != nullptr) active_->Flush();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void ObsSession::FlushActiveAtExit() {
  if (active_ != nullptr) active_->Flush();
}

ObsSession::ObsSession(int argc, char* const* argv,
                       const std::string& bench_name)
    : bench_name_(bench_name) {
  std::string lifecycle_out;
  double lifecycle_sample = 1.0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace_out=", 12) == 0) {
      trace_out_ = arg + 12;
    } else if (std::strncmp(arg, "--report_out=", 13) == 0) {
      report_out_ = arg + 13;
    } else if (std::strncmp(arg, "--lifecycle_out=", 16) == 0) {
      lifecycle_out = arg + 16;
    } else if (std::strncmp(arg, "--lifecycle_sample=", 19) == 0) {
      lifecycle_sample = std::strtod(arg + 19, nullptr);
    }
  }
  if (!trace_out_.empty()) obs::TraceRecorder::Global().Start();
  if (!lifecycle_out.empty()) {
    lifecycle_ = std::make_unique<obs::LifecycleRecorder>(
        obs::LifecycleOptions{.path = lifecycle_out,
                              .sample_rate = lifecycle_sample});
  }
  active_ = this;
  static bool hooks_installed = false;
  if (!hooks_installed) {
    hooks_installed = true;
    std::atexit(&ObsSession::FlushActiveAtExit);
    for (const int sig : {SIGINT, SIGTERM, SIGSEGV, SIGABRT}) {
      std::signal(sig, &ObsSession::FlushActiveOnSignal);
    }
  }
}

void ObsSession::Add(const std::string& label, obs::RunReport report) {
  if (report_out_.empty()) return;
  rows_.emplace_back(label, std::move(report));
}

ObsSession::~ObsSession() {
  Flush();
  if (active_ == this) active_ = nullptr;
}

void ObsSession::Flush() {
  if (flushed_) return;
  flushed_ = true;
  if (lifecycle_ != nullptr && lifecycle_->enabled()) {
    const Status st = lifecycle_->Flush();
    if (st.ok()) {
      std::printf("wrote lifecycle log: %s (%llu events)\n",
                  lifecycle_->path().c_str(),
                  static_cast<unsigned long long>(
                      lifecycle_->events_recorded()));
    } else {
      std::fprintf(stderr, "lifecycle write failed: %s\n",
                   st.ToString().c_str());
    }
  }
  if (!trace_out_.empty()) {
    obs::TraceRecorder::Global().Stop();
    const Status st = obs::TraceRecorder::Global().WriteJson(trace_out_);
    if (st.ok()) {
      std::printf("wrote trace: %s\n", trace_out_.c_str());
    } else {
      std::fprintf(stderr, "trace write failed: %s\n",
                   st.ToString().c_str());
    }
  }
  if (report_out_.empty()) return;
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.KV("schema_version",
            static_cast<std::int64_t>(obs::kReportSchemaVersion));
  writer.KV("git_describe", obs::GitDescribe());
  writer.KV("bench", bench_name_);
  writer.Key("rows");
  writer.BeginArray();
  for (const auto& [label, report] : rows_) {
    writer.BeginObject();
    writer.KV("label", label);
    obs::WriteRunReportFieldsJson(writer, report);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  const std::string json = writer.TakeResult();
  std::FILE* f = std::fopen(report_out_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open report file: %s\n",
                 report_out_.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote report: %s (schema v%d)\n", report_out_.c_str(),
              obs::kReportSchemaVersion);
}

Harness::Harness(const BenchConfig& base) : base_(base) {
  GridCityOptions copts;
  copts.rows = base.city_rows;
  copts.cols = base.city_cols;
  copts.spacing_meters = base.spacing_meters;
  copts.seed = base.city_seed;
  auto g = MakeGridCity(copts);
  PTAR_CHECK(g.ok()) << g.status();
  graph_ = std::move(g).value();
}

const GridIndex& Harness::GridFor(double cell_size) {
  const long long key = static_cast<long long>(cell_size * 1000.0);
  auto it = grids_.find(key);
  if (it == grids_.end()) {
    auto built = GridIndex::Build(&graph_, {.cell_size_meters = cell_size});
    PTAR_CHECK(built.ok()) << built.status();
    it = grids_
             .emplace(key, std::make_unique<GridIndex>(
                               std::move(built).value()))
             .first;
  }
  return *it->second;
}

BenchRow Harness::Run(const BenchConfig& cfg, const std::string& label) {
  const double fraction = cfg.verified_grid_fraction;
  return RunWith(
      cfg, label,
      {[] { return std::make_unique<BaselineMatcher>(); },
       [fraction] { return std::make_unique<SsaMatcher>(fraction); },
       [fraction] { return std::make_unique<DsaMatcher>(fraction); }});
}

BenchRow Harness::RunWith(const BenchConfig& cfg, const std::string& label,
                          const std::vector<MatcherFactory>& matchers) {
  PTAR_CHECK(cfg.city_rows == base_.city_rows &&
             cfg.city_cols == base_.city_cols &&
             cfg.city_seed == base_.city_seed)
      << "the city shape is fixed per harness";

  const GridIndex& grid = GridFor(cfg.cell_size_meters);

  WorkloadOptions wopts;
  wopts.num_requests = cfg.num_requests;
  wopts.duration_seconds = cfg.duration_seconds;
  wopts.riders = cfg.riders;
  wopts.waiting_minutes = cfg.waiting_minutes;
  wopts.epsilon = cfg.epsilon;
  wopts.seed = cfg.workload_seed;
  auto requests = GenerateWorkload(graph_, wopts);
  PTAR_CHECK(requests.ok()) << requests.status();

  EngineOptions eopts;
  eopts.num_vehicles = cfg.num_vehicles;
  eopts.vehicle_capacity = cfg.vehicle_capacity;
  eopts.seed = cfg.engine_seed;
  eopts.engine_threads = cfg.threads;
  eopts.wave_size = 1;
  eopts.distance_backend = cfg.distance_backend;
  eopts.prune = cfg.prune;
  Engine engine(&graph_, &grid, eopts);
  if (obs_ != nullptr && obs_->lifecycle() != nullptr) {
    engine.SetLifecycleRecorder(obs_->lifecycle());
  }

  BenchRow row;
  row.label = label;
  row.stats = engine.RunPipelined(
      *requests, matchers.front(), &row.commits,
      std::vector<MatcherFactory>(matchers.begin() + 1, matchers.end()));
  row.grid_memory_bytes = grid.MemoryBytes();
  row.tree_memory_bytes = engine.KineticTreeMemoryBytes();
  if (obs_ != nullptr) {
    obs_->Add(label, BuildRunReport(row.stats, engine.metrics(),
                                    engine.telemetry().Export(),
                                    "bench " + label));
  }
  return row;
}

void PrintCostHeader(const std::string& param_name) {
  std::printf("%-14s %-5s %12s %10s %12s %9s\n", param_name.c_str(), "algo",
              "time(ms)", "verified", "compdists", "options");
}

void PrintCostRow(const std::string& param_value, const BenchRow& row) {
  for (const MatcherAggregate& agg : row.stats.matchers) {
    std::printf("%-14s %-5s %12.3f %10.1f %12.1f %9.2f\n",
                param_value.c_str(), agg.name.c_str(), agg.MeanMillis(),
                agg.MeanVerified(), agg.MeanCompdists(), agg.MeanOptions());
  }
}

bool WriteMatchingJson(const std::string& path,
                       const std::vector<BenchRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n  \"benchmark\": \"matching\",\n"
               "  \"schema_version\": %d,\n"
               "  \"git_describe\": \"%s\",\n"
               "  \"rows\": [\n",
               obs::kReportSchemaVersion,
               obs::JsonWriter::Escape(obs::GitDescribe()).c_str());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const BenchRow& row = rows[r];
    std::fprintf(f,
                 "    {\n      \"label\": \"%s\",\n"
                 "      \"served\": %llu,\n"
                 "      \"unserved\": %llu,\n"
                 "      \"shared\": %llu,\n"
                 "      \"matchers\": [\n",
                 row.label.c_str(),
                 static_cast<unsigned long long>(row.stats.served),
                 static_cast<unsigned long long>(row.stats.unserved),
                 static_cast<unsigned long long>(row.stats.shared));
    for (std::size_t m = 0; m < row.stats.matchers.size(); ++m) {
      const MatcherAggregate& agg = row.stats.matchers[m];
      std::fprintf(
          f,
          "        {\"name\": \"%s\", \"requests\": %llu, "
          "\"mean_ms\": %.6f, \"mean_compdists\": %.3f, "
          "\"mean_verified\": %.3f, \"mean_options\": %.3f, "
          "\"total_compdists\": %llu, \"total_verified\": %llu, "
          "\"precision\": %.6f, \"recall\": %.6f}%s\n",
          agg.name.c_str(), static_cast<unsigned long long>(agg.requests),
          agg.MeanMillis(), agg.MeanCompdists(), agg.MeanVerified(),
          agg.MeanOptions(),
          static_cast<unsigned long long>(agg.totals.compdists),
          static_cast<unsigned long long>(agg.totals.verified_vehicles),
          agg.MeanPrecision(), agg.MeanRecall(),
          m + 1 < row.stats.matchers.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }%s\n", r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

void PrintBanner(const std::string& experiment, const std::string& what) {
  std::printf("=== %s: %s ===\n", experiment.c_str(), what.c_str());
  std::printf(
      "(scaled reproduction; shapes and relative orderings match the "
      "paper, absolute numbers do not — see EXPERIMENTS.md)\n\n");
}

}  // namespace ptar::bench
