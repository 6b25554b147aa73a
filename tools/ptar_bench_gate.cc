// ptar_bench_gate — diffs two benchmark JSON artifacts metric-by-metric.
//
// Both files (a checked-in baseline and a fresh BENCH_*.json, or any two
// JSON documents made of objects/arrays/numbers, such as run reports) are
// flattened into slash-separated numeric leaves; every leaf present in
// either file is compared with a relative tolerance. An array element that
// is an object with a "label" (bench rows) or "name" (matchers) string is
// keyed by the first such string, not by its position, so reordered rows
// still pair up and a dropped row is reported by its label; the k-th
// repeat (k >= 2) of a key among its siblings becomes "key#k". Wall-clock
// metrics — any path segment the obs naming convention marks as timing
// (suffix "_us"/"_ms"/"_micros"), plus rate/speedup/host fields derived
// from wall time — are exempt by default, because they legitimately move
// between hosts; --include_timing gates them too. Exit 0 = within
// tolerance, exit 1 = regressions listed on stdout, exit 2 = usage.
//
//   ptar_bench_gate --baseline=FILE --candidate=FILE [--tolerance=0.10]
//                   [--include_timing]

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace ptar::cli {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

int FailUsage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: ptar_bench_gate --baseline=FILE "
               "--candidate=FILE [--tolerance=F] [--include_timing]\n",
               message.c_str());
  return 2;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open file: " + path);
  std::string content;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("error reading file: " + path);
  return content;
}

/// Flattens every numeric leaf of a JSON document into
/// "obj_key/element_key/.../leaf_key" -> value. A structural scanner for
/// the well-formed JSON our writers emit, not a general validator: strings
/// are skipped (with escape handling), object keys become path segments,
/// array elements get their index as a segment, renamed at the end to the
/// element's label/name key where it has one.
StatusOr<std::map<std::string, double>> NumericLeaves(
    const std::string& json) {
  std::map<std::string, double> leaves;
  struct Frame {
    bool is_array = false;
    std::size_t index = 0;  ///< Next array element's index.
    /// Array frames: occurrences of each element key so far.
    std::map<std::string, int> key_counts;
    bool keyed = false;  ///< Object frames: element key already set.
  };
  std::vector<Frame> stack;
  std::vector<std::string> path;
  std::string pending_key;
  bool have_key = false;
  /// Index path of a keyed array element -> its key segment.
  std::map<std::string, std::string> element_keys;

  const auto push_segment = [&] {
    if (!stack.empty() && stack.back().is_array) {
      path.push_back(std::to_string(stack.back().index));
    } else {
      path.push_back(have_key ? pending_key : std::string());
    }
    have_key = false;
  };
  const auto joined = [](const std::vector<std::string>& segments,
                         std::size_t count) {
    std::string s;
    for (std::size_t k = 0; k < count; ++k) {
      if (!s.empty()) s += '/';
      s += segments[k];
    }
    return s;
  };
  // Keys the array element whose object is on top of the stack by `text`
  // when it is the element's first "label" or "name" value.
  const auto maybe_key_element = [&](const std::string& text) {
    if ((pending_key != "label" && pending_key != "name") ||
        stack.size() < 2 || stack.back().is_array || stack.back().keyed ||
        !stack[stack.size() - 2].is_array) {
      return;
    }
    stack.back().keyed = true;
    const int k = ++stack[stack.size() - 2].key_counts[text];
    element_keys[joined(path, path.size())] =
        k == 1 ? text : text + "#" + std::to_string(k);
  };

  std::size_t i = 0;
  const std::size_t n = json.size();
  while (i < n) {
    const char c = json[i];
    if (c == '"') {
      std::string text;
      ++i;
      while (i < n && json[i] != '"') {
        if (json[i] == '\\' && i + 1 < n) ++i;
        text += json[i++];
      }
      if (i >= n) return Status::InvalidArgument("unterminated string");
      ++i;  // closing quote
      std::size_t j = i;
      while (j < n && (json[j] == ' ' || json[j] == '\n' ||
                       json[j] == '\t' || json[j] == '\r')) {
        ++j;
      }
      if (j < n && json[j] == ':') {
        pending_key = text;
        have_key = true;
        i = j + 1;
      } else if (!stack.empty() && stack.back().is_array) {
        ++stack.back().index;  // string array element
      } else if (have_key) {
        maybe_key_element(text);
        have_key = false;
      }
      continue;
    }
    if (c == '{' || c == '[') {
      push_segment();
      stack.emplace_back();
      stack.back().is_array = c == '[';
      ++i;
      continue;
    }
    if (c == '}' || c == ']') {
      if (stack.empty() || path.empty()) {
        return Status::InvalidArgument("unbalanced JSON nesting");
      }
      stack.pop_back();
      path.pop_back();
      if (!stack.empty() && stack.back().is_array) ++stack.back().index;
      ++i;
      continue;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      char* end = nullptr;
      const double value = std::strtod(json.c_str() + i, &end);
      push_segment();
      leaves[joined(path, path.size())] = value;
      path.pop_back();
      if (!stack.empty() && stack.back().is_array) ++stack.back().index;
      i = static_cast<std::size_t>(end - json.c_str());
      continue;
    }
    if (c == 't' || c == 'f' || c == 'n') {  // true / false / null
      if (!stack.empty() && stack.back().is_array) ++stack.back().index;
      while (i < n && std::isalpha(static_cast<unsigned char>(json[i]))) {
        ++i;
      }
      have_key = false;
      continue;
    }
    ++i;  // whitespace, ',', ':'
  }
  if (!stack.empty()) {
    return Status::InvalidArgument("unbalanced JSON nesting");
  }
  if (element_keys.empty()) return leaves;

  // Rename keyed elements' index segments, outermost first: the lookup key
  // is always the original index path.
  std::map<std::string, double> keyed;
  for (const auto& [leaf, value] : leaves) {
    std::vector<std::string> original;
    for (std::size_t start = 0;;) {
      const std::size_t slash = leaf.find('/', start);
      original.push_back(leaf.substr(start, slash - start));
      if (slash == std::string::npos) break;
      start = slash + 1;
    }
    std::vector<std::string> renamed = original;
    for (std::size_t k = 1; k <= original.size(); ++k) {
      const auto it = element_keys.find(joined(original, k));
      if (it != element_keys.end()) renamed[k - 1] = it->second;
    }
    keyed[joined(renamed, renamed.size())] = value;
  }
  return keyed;
}

/// Metrics that legitimately differ between hosts/runs: any timing-suffixed
/// segment (obs convention), thread-pool internals, and wall-clock-derived
/// rates.
bool IsTimingPath(const std::string& path) {
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t slash = path.find('/', start);
    const std::string seg =
        path.substr(start, slash == std::string::npos ? std::string::npos
                                                      : slash - start);
    if (obs::MetricsRegistry::IsTimingMetric(seg) || seg == "pool" ||
        seg == "requests_per_sec" || seg == "speedup_vs_serial" ||
        seg == "host_cpus" || seg == "sum") {
      return true;
    }
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  return false;
}

int Main(int argc, char** argv) {
  auto parsed = FlagParser::Parse(argc, argv);
  if (!parsed.ok()) return FailUsage(parsed.status().message());
  const FlagParser& flags = parsed.value();
  const std::string baseline_path = flags.GetString("baseline", "");
  const std::string candidate_path = flags.GetString("candidate", "");
  const auto tolerance = flags.GetDouble("tolerance", 0.10);
  const auto include_timing = flags.GetBool("include_timing", false);
  if (!tolerance.ok()) return Fail(tolerance.status());
  if (!include_timing.ok()) return Fail(include_timing.status());
  if (baseline_path.empty() || candidate_path.empty()) {
    return FailUsage("both --baseline and --candidate are required");
  }
  if (*tolerance < 0.0) return FailUsage("--tolerance must be >= 0");
  const std::vector<std::string> unused = flags.UnusedFlags();
  if (!unused.empty()) {
    std::string joined;
    for (const std::string& name : unused) joined += " --" + name;
    return FailUsage("unknown flag(s):" + joined);
  }

  const auto baseline_json = ReadFile(baseline_path);
  if (!baseline_json.ok()) return Fail(baseline_json.status());
  const auto candidate_json = ReadFile(candidate_path);
  if (!candidate_json.ok()) return Fail(candidate_json.status());
  const auto baseline = NumericLeaves(*baseline_json);
  if (!baseline.ok()) return Fail(baseline.status());
  const auto candidate = NumericLeaves(*candidate_json);
  if (!candidate.ok()) return Fail(candidate.status());

  std::size_t compared = 0;
  std::size_t skipped_timing = 0;
  std::size_t regressions = 0;
  const auto flag = [&](const std::string& metric, const char* what,
                        double base, double cand) {
    ++regressions;
    std::printf("REGRESSION %s: %s (baseline %.6g, candidate %.6g)\n",
                metric.c_str(), what, base, cand);
  };
  for (const auto& [metric, base] : *baseline) {
    if (!*include_timing && IsTimingPath(metric)) {
      ++skipped_timing;
      continue;
    }
    const auto it = candidate->find(metric);
    if (it == candidate->end()) {
      flag(metric, "missing from candidate", base, 0.0);
      continue;
    }
    ++compared;
    const double cand = it->second;
    const double denom =
        std::max({std::fabs(base), std::fabs(cand), 1e-12});
    const double rel = std::fabs(cand - base) / denom;
    if (rel > *tolerance) {
      char what[64];
      std::snprintf(what, sizeof(what), "relative delta %.2f%% > %.2f%%",
                    rel * 100.0, *tolerance * 100.0);
      flag(metric, what, base, cand);
    }
  }
  for (const auto& [metric, cand] : *candidate) {
    if (!*include_timing && IsTimingPath(metric)) continue;
    if (baseline->find(metric) == baseline->end()) {
      flag(metric, "missing from baseline", 0.0, cand);
    }
  }

  std::printf("bench gate: %zu metrics compared, %zu timing metrics "
              "skipped, %zu regression(s) at tolerance %.2f%%\n",
              compared, skipped_timing, regressions, *tolerance * 100.0);
  if (regressions > 0) {
    std::printf("bench gate FAILED: %s vs %s\n", candidate_path.c_str(),
                baseline_path.c_str());
    return 1;
  }
  std::printf("bench gate OK\n");
  return 0;
}

}  // namespace
}  // namespace ptar::cli

int main(int argc, char** argv) { return ptar::cli::Main(argc, argv); }
