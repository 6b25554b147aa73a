#include "obs/lifecycle.h"

#include <cinttypes>
#include <cstdio>

#include "common/logging.h"
#include "common/random.h"
#include "obs/json_writer.h"

namespace ptar::obs {

namespace {

/// First draw of the SplitMix64 stream at id + seed: a pure, well-mixed
/// sampling hash, the same construction the fault injector uses for
/// per-pair faults.
std::uint64_t MixId(std::uint64_t id, std::uint64_t seed) {
  return SplitMix64(id + seed).Next();
}

void AppendKV(std::string* out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, key, value);
  *out += buf;
}

void AppendKV(std::string* out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6f", key, value);
  *out += buf;
}

void AppendKV(std::string* out, const char* key, const std::string& value) {
  *out += '"';
  *out += key;
  *out += "\":\"";
  *out += JsonWriter::Escape(value);
  *out += '"';
}

}  // namespace

std::string LifecycleEventToJsonLine(const LifecycleEvent& event,
                                     bool include_timing) {
  std::string line;
  line.reserve(256);
  line += '{';
  AppendKV(&line, "schema",
           static_cast<std::uint64_t>(kLifecycleSchemaVersion));
  line += ',';
  AppendKV(&line, "req", event.request);
  line += ',';
  AppendKV(&line, "t", event.submit_time);
  line += ',';
  AppendKV(&line, "wave", event.wave);
  line += ',';
  AppendKV(&line, "epoch", event.epoch);
  line += ',';
  AppendKV(&line, "level", event.level);
  line += ',';
  AppendKV(&line, "matcher", event.matcher);
  line += ',';
  AppendKV(&line, "budget_limit", event.budget_limit);
  line += ',';
  AppendKV(&line, "budget_spent", event.budget_spent);
  line += ',';
  AppendKV(&line, "budget_exhausted",
           static_cast<std::uint64_t>(event.budget_exhausted ? 1 : 0));
  line += ',';
  AppendKV(&line, "partial",
           static_cast<std::uint64_t>(event.partial ? 1 : 0));
  line += ',';
  AppendKV(&line, "options", event.options);
  line += ',';
  AppendKV(&line, "conflicts", event.conflicts);
  line += ',';
  AppendKV(&line, "rematch_rounds", event.rematch_rounds);
  line += ',';
  AppendKV(&line, "serial_tail",
           static_cast<std::uint64_t>(event.serial_tail ? 1 : 0));
  line += ',';
  AppendKV(&line, "disposition", event.disposition);
  if (event.disposition == "served") {
    line += ',';
    AppendKV(&line, "vehicle", event.vehicle);
    line += ',';
    AppendKV(&line, "pickup_dist", event.pickup_dist);
    line += ',';
    AppendKV(&line, "price", event.price);
  }
  if (include_timing) {
    line += ',';
    AppendKV(&line, "match_us", event.match_us);
    line += ',';
    AppendKV(&line, "deadline_slack_us", event.deadline_slack_us);
  }
  line += '}';
  return line;
}

LifecycleRecorder::LifecycleRecorder(const LifecycleOptions& options)
    : options_(options) {
  PTAR_CHECK(options.sample_rate >= 0.0 && options.sample_rate <= 1.0)
      << "lifecycle sample rate must be in [0, 1]";
}

bool LifecycleRecorder::Sampled(std::uint64_t request_id) const {
  if (!enabled() || options_.sample_rate <= 0.0) return false;
  if (options_.sample_rate >= 1.0) return true;
  // Compare the hash against the rate's slice of the 64-bit space; the
  // decision is a pure function of (seed, id), so every thread count and
  // every engine samples the same ids.
  const double threshold =
      options_.sample_rate * 18446744073709551616.0;  // 2^64
  return static_cast<double>(MixId(request_id, options_.seed)) < threshold;
}

void LifecycleRecorder::Record(const LifecycleEvent& event) {
  if (!Sampled(event.request)) return;
  buffer_ += LifecycleEventToJsonLine(event, options_.include_timing);
  buffer_ += '\n';
  ++events_recorded_;
}

Status LifecycleRecorder::Flush() {
  if (!enabled()) return Status::OK();
  if (buffer_.empty() && file_created_) return Status::OK();
  std::FILE* f =
      std::fopen(options_.path.c_str(), file_created_ ? "a" : "w");
  if (f == nullptr) {
    return Status::IoError("cannot open lifecycle file: " + options_.path);
  }
  file_created_ = true;
  const std::size_t written =
      std::fwrite(buffer_.data(), 1, buffer_.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (!close_ok || written != buffer_.size()) {
    return Status::IoError("error writing lifecycle file: " + options_.path);
  }
  buffer_.clear();
  return Status::OK();
}

}  // namespace ptar::obs
