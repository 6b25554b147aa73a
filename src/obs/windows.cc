#include "obs/windows.h"

#include <algorithm>
#include <cmath>

namespace ptar::obs {

namespace {

std::int64_t WindowIndex(double sim_time, double width) {
  return static_cast<std::int64_t>(std::floor(sim_time / width));
}

}  // namespace

WindowedTelemetry::WindowedTelemetry(const TelemetryOptions& options)
    : options_(options), width_(options.window_seconds) {}

bool WindowedTelemetry::WouldOpenNew(double sim_time) const {
  if (!enabled()) return false;
  return windows_.empty() ||
         WindowIndex(sim_time, width_) > windows_.back().index;
}

MetricsRegistry* WindowedTelemetry::At(double sim_time) {
  if (!enabled()) return nullptr;
  const std::int64_t idx = WindowIndex(sim_time, width_);
  if (windows_.empty() || idx > windows_.back().index) {
    windows_.push_back(Window{idx, MetricsRegistry{}});
    CoalesceIfNeeded();
    return &windows_.back().metrics;
  }
  if (idx == windows_.back().index) return &windows_.back().metrics;
  // Out-of-order time (rare; sim time is weakly monotone). Reuse the
  // window if it still exists, else charge the oldest surviving one.
  for (auto it = windows_.rbegin(); it != windows_.rend(); ++it) {
    if (it->index == idx) return &it->metrics;
    if (it->index < idx) break;
  }
  return &windows_.front().metrics;
}

void WindowedTelemetry::CoalesceIfNeeded() {
  while (windows_.size() > kMaxWindows) {
    width_ *= 2.0;
    std::vector<Window> merged;
    merged.reserve(windows_.size() / 2 + 1);
    for (Window& w : windows_) {
      // floor division keeps negative indices on the correct side.
      const std::int64_t idx =
          w.index >= 0 ? w.index / 2 : (w.index - 1) / 2;
      if (!merged.empty() && merged.back().index == idx) {
        merged.back().metrics.MergeFrom(w.metrics);
      } else {
        merged.push_back(Window{idx, std::move(w.metrics)});
      }
    }
    windows_ = std::move(merged);
  }
}

TimeseriesExport WindowedTelemetry::Export() const {
  TimeseriesExport out;
  if (!enabled()) return out;
  out.window_seconds = width_;
  out.windows.reserve(windows_.size());
  for (const Window& w : windows_) {
    WindowExport e;
    e.start = static_cast<double>(w.index) * width_;
    e.requests = w.metrics.Counter(kWindowRequests);
    e.served = w.metrics.Counter(kWindowServed);
    e.unserved = w.metrics.Counter(kWindowUnserved);
    e.shed = w.metrics.Counter(kWindowShed);
    e.conflicts = w.metrics.Counter(kWindowConflicts);
    e.rematches = w.metrics.Counter(kWindowRematches);
    e.partial = w.metrics.Counter(kWindowPartial);
    for (std::size_t i = 0; i < kWindowLadderLevels.size(); ++i) {
      e.ladder[i] = w.metrics.Counter(kWindowLadderLevels[i]);
    }
    if (const LatencyHistogram* h =
            w.metrics.FindHistogram(kWindowCommitLatencyUs)) {
      e.commit_latency_us = *h;
    }
    out.windows.push_back(std::move(e));
  }
  return out;
}

WindowSlo WindowedTelemetry::CurrentSlo() const {
  WindowSlo slo;
  if (windows_.empty()) return slo;
  const MetricsRegistry& m = windows_.back().metrics;
  slo.requests = m.Counter(kWindowRequests);
  if (slo.requests > 0) {
    slo.shed_rate = static_cast<double>(m.Counter(kWindowShed)) /
                    static_cast<double>(slo.requests);
  }
  if (const LatencyHistogram* h = m.FindHistogram(kWindowCommitLatencyUs)) {
    slo.p99_commit_us = h->Percentile(99.0);
  }
  return slo;
}

}  // namespace ptar::obs
