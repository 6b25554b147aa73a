// ptar_bench: open-loop dispatch benchmark (see README.md beside this file).
//
//   ptar_bench --workload=<name> --seed=<n> [--seconds=<s>]
//              [--trace_out=<file>] [--json_out=<file>]
//   ptar_bench --print_registry
//
// Without --trace_out it prints the end-to-end metrics, measured with
// tracing off; with it, the per-layer metrics of a traced run, whose spans
// go to <file> as Chrome trace-event JSON. Either way the last line of
// standard output is one JSON object {correct, attempted, failed, metrics}.
// Any failed output check prints no metrics and exits 1.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "common/flags.h"
#include "obs/json_writer.h"
#include "obs/version.h"
#include "ptar_bench/replay.h"
#include "ptar_bench/workloads.h"

namespace ptar::bench {
namespace {

constexpr double kDefaultSeconds = 25.0;  // BENCHMARK.json run_seconds.
constexpr double kMaxSeconds = 600.0;

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 2;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& w : Workloads()) {
    if (!names.empty()) names += ", ";
    names += w.name;
  }
  return names;
}

/// The contract's result line: one JSON object, every value with all its
/// digits.
std::string ResultLine(const BenchResult& result,
                       std::span<const MetricSpec> metrics) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  if (result.correct) {
    bool first = true;
    char value[64];
    for (const MetricSpec& spec : metrics) {
      std::snprintf(value, sizeof(value), "%.17g",
                    result.metrics.at(spec.name));
      line += first ? "" : ", ";
      line += "\"" + std::string(spec.name) + "\": {\"value\": " + value +
              ", \"unit\": \"" + spec.unit + "\"}";
      first = false;
    }
  }
  return line + "}}";
}

bool WriteEnvelope(const std::string& path, const BenchConfig& config,
                   const BenchResult& result,
                   std::span<const MetricSpec> metrics, unsigned host_cpus,
                   const std::string& digest) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("benchmark", "ptar_bench");
  w.KV("workload", config.spec->name);
  w.KV("seed", config.seed);
  w.KV("seconds", config.seconds);
  w.KV("traced", static_cast<std::int64_t>(!config.trace_out.empty()));
  w.KV("backend", DistanceBackendName(config.spec->backend));
  w.KV("host_cpus", static_cast<std::uint64_t>(host_cpus));
  w.KV("build_type", PTAR_BENCH_BUILD_TYPE);
  w.KV("git_describe", obs::GitDescribe());
  w.KV("commit_digest", digest);
  w.KV("correct", static_cast<std::int64_t>(result.correct));
  w.KV("attempted", result.attempted);
  w.KV("failed", result.failed);
  w.Key("metrics");
  w.BeginObject();
  if (result.correct) {
    for (const MetricSpec& spec : metrics) {
      w.Key(spec.name);
      w.BeginObject();
      w.KV("value", result.metrics.at(spec.name));
      w.KV("unit", spec.unit);
      w.EndObject();
    }
  }
  w.EndObject();
  w.EndObject();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = w.TakeResult();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
  auto parsed = FlagParser::Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const FlagParser& flags = parsed.value();

  auto print_registry = flags.GetBool("print_registry", false);
  if (!print_registry.ok()) return Fail(print_registry.status().ToString());
  if (print_registry.value()) {
    std::printf("%s\n", RegistryJson().c_str());
    return 0;
  }

  if (!flags.Has("workload")) {
    return Fail("--workload is required (one of: " + WorkloadNames() + ")");
  }
  BenchConfig config;
  const std::string workload = flags.GetString("workload", "");
  config.spec = FindWorkload(workload);
  if (config.spec == nullptr) {
    return Fail("unknown workload '" + workload +
                "' (one of: " + WorkloadNames() + ")");
  }
  auto seed = flags.GetInt("seed", 1);
  if (!seed.ok()) return Fail(seed.status().ToString());
  config.seed = static_cast<std::uint64_t>(seed.value());
  auto seconds = flags.GetDouble("seconds", kDefaultSeconds);
  if (!seconds.ok()) return Fail(seconds.status().ToString());
  if (!(seconds.value() > 0.0 && seconds.value() <= kMaxSeconds)) {
    return Fail("--seconds must be in (0, 600]");
  }
  config.seconds = seconds.value();
  config.trace_out = flags.GetString("trace_out", "");
  const std::string json_out = flags.GetString("json_out", "");
  if (!flags.positional().empty()) {
    return Fail("unexpected argument '" + flags.positional().front() + "'");
  }
  if (const auto unused = flags.UnusedFlags(); !unused.empty()) {
    return Fail("unknown flag --" + unused.front());
  }

  const WorkloadSpec& spec = *config.spec;
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf(
      "ptar_bench: workload %s, seed %" PRIu64 ", %s, %s, host cpus %u, "
      "build %s, git %s\n",
      spec.name, config.seed, DistanceBackendName(spec.backend),
      config.trace_out.empty() ? "untraced" : "traced", host_cpus,
      PTAR_BENCH_BUILD_TYPE, obs::GitDescribe());
  std::printf(
      "open loop: %zu requests over %.0f sim-s replayed in %.1f s "
      "(mean offered rate %.1f req/s); %d vehicles x %d seats; "
      "engine_threads %d, waves of up to %d requests\n",
      spec.requests, spec.duration_s, config.seconds,
      spec.requests / config.seconds, spec.vehicles, spec.capacity,
      spec.engine_threads, spec.wave_size);
  std::fflush(stdout);

  BenchResult result = RunBench(config);
  const std::span<const MetricSpec> metrics =
      config.trace_out.empty() ? EndToEndMetrics() : PerLayerMetrics();
  for (const MetricSpec& m : metrics) {
    const auto it = result.metrics.find(m.name);
    if (it == result.metrics.end() || !std::isfinite(it->second)) {
      result.problems.push_back(std::string("metric ") + m.name +
                                " is missing or not finite");
      result.correct = false;
    }
  }

  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, result.commit_digest);
  std::printf("commit_digest %s\n", digest);
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "error: check failed: %s\n", problem.c_str());
  }
  if (result.correct) {
    if (!result.self_time_table.empty()) {
      std::printf("\n%s\n", result.self_time_table.c_str());
    }
    for (const MetricSpec& m : metrics) {
      std::printf("%-32s %16.6f %s\n", m.name, result.metrics.at(m.name),
                  m.unit);
    }
    if (config.trace_out.empty()) {
      std::printf("latency samples: %" PRIu64 " (%" PRIu64 " beyond p99)\n",
                  result.attempted, result.attempted / 100);
    } else {
      std::printf("trace written to %s\n", config.trace_out.c_str());
    }
  }
  if (!json_out.empty() && !WriteEnvelope(json_out, config, result, metrics,
                                          host_cpus, digest)) {
    std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
    result.correct = false;
  }
  std::printf("%s\n", ResultLine(result, metrics).c_str());
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace ptar::bench

int main(int argc, char** argv) { return ptar::bench::Main(argc, argv); }
