#include "obs/report.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "obs/json_writer.h"
#include "obs/version.h"

namespace ptar::obs {

void WriteHistogramJson(JsonWriter& writer,
                        const LatencyHistogram& histogram) {
  writer.BeginObject();
  writer.KV("count", histogram.count());
  writer.KV("sum", histogram.Sum());
  writer.KV("min", histogram.Min());
  writer.KV("max", histogram.Max());
  writer.KV("mean", histogram.Mean());
  writer.KV("p50", histogram.Percentile(50));
  writer.KV("p95", histogram.Percentile(95));
  writer.KV("p99", histogram.Percentile(99));
  // Sparse bucket encoding: [index, count] pairs for non-empty buckets;
  // bucket i covers [BucketLowerBound(i), BucketLowerBound(i + 1)).
  writer.Key("buckets");
  writer.BeginArray();
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    if (histogram.buckets()[i] == 0) continue;
    writer.BeginArray();
    writer.Int(i);
    writer.UInt(histogram.buckets()[i]);
    writer.EndArray();
  }
  writer.EndArray();
  writer.EndObject();
}

void WriteMetricsJson(JsonWriter& writer, const MetricsRegistry& metrics) {
  writer.BeginObject();
  writer.Key("counters");
  writer.BeginObject();
  for (const auto& [name, value] : metrics.counters()) {
    writer.KV(name, value);
  }
  writer.EndObject();
  writer.Key("histograms");
  writer.BeginObject();
  for (const auto& [name, histogram] : metrics.histograms()) {
    writer.Key(name);
    WriteHistogramJson(writer, histogram);
  }
  writer.EndObject();
  writer.EndObject();
}

void WriteRunReportFieldsJson(JsonWriter& writer, const RunReport& report) {
  writer.KV("tool", report.tool);
  writer.KV("served", report.served);
  writer.KV("unserved", report.unserved);
  writer.KV("shared", report.shared);
  writer.Key("robustness");
  writer.BeginObject();
  writer.KV("shed_requests", report.shed_requests);
  writer.KV("partial_skylines", report.partial_skylines);
  writer.Key("ladder_requests");
  writer.BeginArray();
  for (const std::uint64_t n : report.ladder_requests) writer.UInt(n);
  writer.EndArray();
  writer.EndObject();
  writer.Key("pipeline");
  writer.BeginObject();
  writer.KV("waves", report.waves);
  writer.KV("conflicts", report.conflicts);
  writer.KV("rematches", report.rematches);
  writer.KV("serial_rematches", report.serial_rematches);
  writer.EndObject();
  // v4 timeseries block; omitted entirely when telemetry was disabled so
  // pre-v4 consumers and minimal producers keep byte-stable output.
  if (report.timeseries.window_seconds > 0.0) {
    writer.Key("timeseries");
    writer.BeginObject();
    writer.KV("window_seconds", report.timeseries.window_seconds);
    writer.Key("windows");
    writer.BeginArray();
    for (const WindowExport& w : report.timeseries.windows) {
      writer.BeginObject();
      writer.KV("start", w.start);
      writer.KV("requests", w.requests);
      writer.KV("served", w.served);
      writer.KV("unserved", w.unserved);
      writer.KV("shed", w.shed);
      writer.KV("conflicts", w.conflicts);
      writer.KV("rematches", w.rematches);
      writer.KV("partial", w.partial);
      writer.Key("ladder");
      writer.BeginArray();
      for (const std::uint64_t n : w.ladder) writer.UInt(n);
      writer.EndArray();
      writer.KV("commit_count", w.commit_latency_us.count());
      writer.KV("commit_p50_us", w.commit_latency_us.Percentile(50));
      writer.KV("commit_p99_us", w.commit_latency_us.Percentile(99));
      writer.EndObject();
    }
    writer.EndArray();
    writer.EndObject();
  }
  writer.Key("matchers");
  writer.BeginArray();
  for (const MatcherReport& m : report.matchers) {
    writer.BeginObject();
    writer.KV("name", m.name);
    writer.KV("requests", m.requests);
    writer.KV("options_sum", m.options_sum);
    writer.KV("verified_vehicles", m.verified_vehicles);
    writer.KV("compdists", m.compdists);
    writer.KV("scanned_cells", m.scanned_cells);
    writer.KV("pruned_cells", m.pruned_cells);
    writer.KV("pruned_vehicles", m.pruned_vehicles);
    writer.KV("elapsed_micros", m.elapsed_micros);
    writer.KV("precision_sum", m.precision_sum);
    writer.KV("recall_sum", m.recall_sum);
    writer.Key("latency_ms");
    WriteHistogramJson(writer, m.latency_ms);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("metrics");
  WriteMetricsJson(writer, report.metrics);
}

std::string RunReportToJson(const RunReport& report) {
  JsonWriter writer;
  writer.BeginObject();
  writer.KV("schema_version",
            static_cast<std::int64_t>(kReportSchemaVersion));
  writer.KV("git_describe", GitDescribe());
  WriteRunReportFieldsJson(writer, report);
  writer.EndObject();
  return writer.TakeResult();
}

namespace {

/// Finds `"key":` inside [from, until) — `until` defaults to the end of
/// the document — and parses the number after it. Keys are matched with
/// their opening quote, so a key that merely ends in `key` ("unserved" for
/// "served", "serial_rematches" for "rematches") cannot shadow it. The
/// bound makes per-window scanning safe even though window fields reuse
/// top-level key names ("requests", "served", ...).
template <typename T>
bool Scan(const std::string& json, const std::string& key, T* out,
          std::size_t from = 0, std::size_t until = std::string::npos) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = json.find(needle, from);
  if (pos == std::string::npos || pos >= until) return false;
  char* end = nullptr;
  const char* start = json.c_str() + pos + needle.size();
  T value;
  if constexpr (std::is_same_v<T, double>) {
    value = std::strtod(start, &end);
  } else {
    value = std::strtoull(start, &end, 10);
  }
  if (end == start) return false;
  *out = value;
  return true;
}

}  // namespace

StatusOr<ReportSummary> ParseReportSummary(const std::string& json) {
  ReportSummary summary;
  std::uint64_t version = 0;
  if (!Scan(json, "schema_version", &version)) {
    return Status::InvalidArgument("report has no parsable schema_version");
  }
  summary.schema_version = static_cast<int>(version);
  if (summary.schema_version < 1 ||
      summary.schema_version > kReportSchemaVersion) {
    return Status::InvalidArgument(
        "unsupported report schema_version " +
        std::to_string(summary.schema_version) + " (reader supports 1.." +
        std::to_string(kReportSchemaVersion) + ")");
  }
  Scan(json, "served", &summary.served);
  Scan(json, "unserved", &summary.unserved);
  Scan(json, "shared", &summary.shared);
  // v2 robustness block; absent (v1) means all-zero.
  const std::size_t robustness = json.find("\"robustness\":");
  if (robustness != std::string::npos) {
    Scan(json, "shed_requests", &summary.shed_requests, robustness);
    Scan(json, "partial_skylines", &summary.partial_skylines, robustness);
    const std::size_t ladder = json.find("\"ladder_requests\":", robustness);
    if (ladder != std::string::npos) {
      const char* cursor = json.c_str() + ladder;
      cursor = std::strchr(cursor, '[');
      for (std::size_t i = 0;
           cursor != nullptr && i < summary.ladder_requests.size(); ++i) {
        char* end = nullptr;
        summary.ladder_requests[i] = std::strtoull(cursor + 1, &end, 10);
        cursor = (end != nullptr && *end == ',') ? end : nullptr;
      }
    }
  }
  // v3 pipeline block; absent (v1/v2) means all-zero.
  const std::size_t pipeline = json.find("\"pipeline\":");
  if (pipeline != std::string::npos) {
    Scan(json, "waves", &summary.waves, pipeline);
    Scan(json, "conflicts", &summary.conflicts, pipeline);
    Scan(json, "rematches", &summary.rematches, pipeline);
    Scan(json, "serial_rematches", &summary.serial_rematches, pipeline);
  }
  return summary;
}

StatusOr<TimeseriesSummary> ParseTimeseries(const std::string& json) {
  TimeseriesSummary ts;
  std::uint64_t version = 0;
  if (!Scan(json, "schema_version", &version)) {
    return Status::InvalidArgument("report has no parsable schema_version");
  }
  if (version < 1 || version > static_cast<std::uint64_t>(
                                   kReportSchemaVersion)) {
    return Status::InvalidArgument(
        "unsupported report schema_version " + std::to_string(version) +
        " (reader supports 1.." + std::to_string(kReportSchemaVersion) +
        ")");
  }
  const std::size_t block = json.find("\"timeseries\":");
  if (block == std::string::npos) return ts;  // pre-v4 or disabled: empty.
  // The block is emitted right before "matchers"; that key (or the end of
  // the document, for hand-rolled fixtures) bounds every scan below.
  std::size_t block_end = json.find("\"matchers\":", block);
  if (block_end == std::string::npos) block_end = json.size();
  if (!Scan(json, "window_seconds", &ts.window_seconds, block, block_end)) {
    return Status::InvalidArgument(
        "timeseries block has no parsable window_seconds");
  }
  // Each window object starts with its "start" key; consecutive
  // occurrences delimit the per-window scan regions.
  std::size_t pos = json.find("\"start\":", block);
  while (pos != std::string::npos && pos < block_end) {
    std::size_t next = json.find("\"start\":", pos + 1);
    const std::size_t end =
        (next == std::string::npos || next > block_end) ? block_end : next;
    WindowSummary w;
    Scan(json, "start", &w.start, pos, end);
    Scan(json, "requests", &w.requests, pos, end);
    Scan(json, "served", &w.served, pos, end);
    Scan(json, "unserved", &w.unserved, pos, end);
    Scan(json, "shed", &w.shed, pos, end);
    Scan(json, "conflicts", &w.conflicts, pos, end);
    Scan(json, "rematches", &w.rematches, pos, end);
    Scan(json, "partial", &w.partial, pos, end);
    const std::size_t ladder = json.find("\"ladder\":", pos);
    if (ladder != std::string::npos && ladder < end) {
      const char* cursor = std::strchr(json.c_str() + ladder, '[');
      for (std::size_t i = 0; cursor != nullptr && i < w.ladder.size();
           ++i) {
        char* num_end = nullptr;
        w.ladder[i] = std::strtoull(cursor + 1, &num_end, 10);
        cursor = (num_end != nullptr && *num_end == ',') ? num_end : nullptr;
      }
    }
    Scan(json, "commit_count", &w.commit_count, pos, end);
    Scan(json, "commit_p50_us", &w.commit_p50_us, pos, end);
    Scan(json, "commit_p99_us", &w.commit_p99_us, pos, end);
    ts.windows.push_back(w);
    pos = next;
  }
  return ts;
}

Status WriteRunReport(const RunReport& report, const std::string& path) {
  const std::string json = RunReportToJson(report);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open report file: " + path);
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  if (std::fclose(f) != 0 || written != json.size()) {
    return Status::IoError("error writing report file: " + path);
  }
  return Status::OK();
}

}  // namespace ptar::obs
