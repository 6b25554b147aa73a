#include "ptar_bench/layer_trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

#include "common/logging.h"

namespace ptar::bench {
namespace {

/// Forwards to the wrapped matcher and appends one MatchSpan per call to a
/// buffer no other decorator touches.
class TracingMatcher : public Matcher {
 public:
  TracingMatcher(std::unique_ptr<Matcher> inner, std::vector<MatchSpan>* out,
                 std::uint64_t wave, int worker, Clock::time_point t0)
      : inner_(std::move(inner)),
        out_(out),
        wave_(wave),
        worker_(worker),
        t0_(t0) {}

  std::string name() const override { return inner_->name(); }

  MatchResult Match(const Request& request, MatchContext& ctx) override {
    const Clock::time_point start = Clock::now();
    MatchResult result = inner_->Match(request, ctx);
    const Clock::time_point end = Clock::now();
    out_->push_back({.request = request.id,
                     .wave = wave_,
                     .worker = worker_,
                     .start_ns = NanosSince(t0_, start),
                     .end_ns = NanosSince(t0_, end),
                     .stats = result.stats,
                     .options = result.options.size(),
                     .complete = result.complete});
    return result;
  }

 private:
  std::unique_ptr<Matcher> inner_;
  std::vector<MatchSpan>* out_;
  std::uint64_t wave_;
  int worker_;
  Clock::time_point t0_;
};

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the union of [start, end) intervals. Sorts `intervals`.
std::int64_t UnionNanos(std::vector<Interval>* intervals) {
  std::sort(intervals->begin(), intervals->end());
  std::int64_t covered = 0;
  std::int64_t reach = std::numeric_limits<std::int64_t>::min();
  for (const auto& [start, end] : *intervals) {
    const std::int64_t from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return covered;
}

}  // namespace

MatcherFactory LayerTrace::WrapFactory(MatcherFactory inner, int workers) {
  PTAR_CHECK(workers >= 1);
  return [this, inner = std::move(inner), workers] {
    // RunPipelined builds its matchers serially on the calling thread, so
    // growing the deque here never races with a recording worker.
    std::vector<MatchSpan>& buffer = buffers_.emplace_back();
    buffer.reserve(spans_per_matcher_);
    const int worker = static_cast<int>(matchers_built_++ % workers);
    return std::make_unique<TracingMatcher>(inner(), &buffer, wave_, worker,
                                            t0_);
  };
}

std::vector<MatchSpan> LayerTrace::MatchSpans() const {
  std::vector<MatchSpan> all;
  for (const std::vector<MatchSpan>& buffer : buffers_) {
    all.insert(all.end(), buffer.begin(), buffer.end());
  }
  std::sort(all.begin(), all.end(),
            [](const MatchSpan& a, const MatchSpan& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

bool LayerTrace::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto us = [](std::int64_t ns) { return ns / 1e3; };
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"driver\"}}");
  for (const WaveSpan& w : waves_) {
    std::fprintf(f,
                 ",\n{\"name\":\"sim.advance\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"wave\":%" PRIu64 "}}",
                 us(w.start_ns), us(w.advance_end_ns - w.start_ns), w.wave);
    std::fprintf(f,
                 ",\n{\"name\":\"sim.run_pipelined\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"wave\":%" PRIu64 ",\"requests\":%zu}}",
                 us(w.advance_end_ns), us(w.end_ns - w.advance_end_ns),
                 w.wave, w.requests);
  }
  for (const MatchSpan& s : MatchSpans()) {
    std::fprintf(f,
                 ",\n{\"name\":\"rideshare.match\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"request\":%u,\"wave\":%" PRIu64
                 ",\"compdists\":%" PRIu64 ",\"verified\":%" PRIu64
                 ",\"options\":%zu}}",
                 s.worker + 1, us(s.start_ns), us(s.end_ns - s.start_ns),
                 static_cast<unsigned>(s.request), s.wave, s.stats.compdists,
                 s.stats.verified_vehicles, s.options);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

LayerTotals LayerTrace::Totals() const {
  LayerTotals t;
  std::map<std::uint64_t, std::vector<Interval>> by_wave;
  for (const std::vector<MatchSpan>& buffer : buffers_) {
    for (const MatchSpan& s : buffer) {
      by_wave[s.wave].emplace_back(s.start_ns, s.end_ns);
      t.match_ns += static_cast<double>(s.end_ns - s.start_ns);
      ++t.match_spans;
    }
  }
  for (auto& [wave, intervals] : by_wave) {
    t.match_union_ns += static_cast<double>(UnionNanos(&intervals));
  }
  for (const WaveSpan& w : waves_) {
    t.busy_ns += static_cast<double>(w.end_ns - w.start_ns);
    t.advance_ns += static_cast<double>(w.advance_end_ns - w.start_ns);
    t.pipelined_ns += static_cast<double>(w.end_ns - w.advance_end_ns);
  }
  return t;
}

std::string LayerTrace::SelfTimeTable() const {
  const LayerTotals t = Totals();
  struct Row {
    const char* layer;
    std::size_t spans;
    double total_ns;
    double self_ns;
  };
  const Row rows[] = {
      {"sim.advance", waves_.size(), t.advance_ns, t.advance_ns},
      {"sim.run_pipelined", waves_.size(), t.pipelined_ns,
       t.pipelined_ns - t.match_union_ns},
      // Match has no measured children: oracle time inside it needs spans
      // inside the program. Its self time is summed over workers.
      {"rideshare.match", t.match_spans, t.match_ns, t.match_ns},
  };
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-20s %8s %12s %12s %10s\n", "layer",
                "spans", "total_ms", "self_ms", "self/busy");
  out += line;
  for (const Row& r : rows) {
    std::snprintf(line, sizeof(line), "%-20s %8zu %12.1f %12.1f %10.3f\n",
                  r.layer, r.spans, r.total_ns / 1e6, r.self_ns / 1e6,
                  t.busy_ns > 0 ? r.self_ns / t.busy_ns : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-20s %8zu %12.1f\n", "busy (all waves)",
                waves_.size(), t.busy_ns / 1e6);
  out += line;
  return out;
}

}  // namespace ptar::bench
