#include "obs/windows.h"

#include <cmath>
#include <utility>

namespace ptar::obs {

namespace {

std::int64_t WindowIndex(double sim_time, double width) {
  return static_cast<std::int64_t>(std::floor(sim_time / width));
}

}  // namespace

void WindowExport::MergeFrom(const WindowExport& other) {
  requests += other.requests;
  served += other.served;
  unserved += other.unserved;
  shed += other.shed;
  conflicts += other.conflicts;
  rematches += other.rematches;
  partial += other.partial;
  for (std::size_t i = 0; i < ladder.size(); ++i) ladder[i] += other.ladder[i];
  commit_latency_us.MergeFrom(other.commit_latency_us);
}

WindowedTelemetry::WindowedTelemetry(const TelemetryOptions& options)
    : options_(options), width_(options.window_seconds) {}

bool WindowedTelemetry::WouldOpenNew(double sim_time) const {
  if (!enabled()) return false;
  return windows_.empty() ||
         WindowIndex(sim_time, width_) > windows_.back().index;
}

WindowExport* WindowedTelemetry::At(double sim_time) {
  if (!enabled()) return nullptr;
  const std::int64_t idx = WindowIndex(sim_time, width_);
  if (windows_.empty() || idx > windows_.back().index) {
    windows_.push_back(Window{idx, WindowExport{}});
    CoalesceIfNeeded();
    return &windows_.back().counts;
  }
  if (idx == windows_.back().index) return &windows_.back().counts;
  // Out-of-order time (rare; sim time is weakly monotone). Reuse the
  // window if it still exists, else charge the oldest surviving one.
  for (auto it = windows_.rbegin(); it != windows_.rend(); ++it) {
    if (it->index == idx) return &it->counts;
    if (it->index < idx) break;
  }
  return &windows_.front().counts;
}

const WindowExport* WindowedTelemetry::Newest() const {
  return windows_.empty() ? nullptr : &windows_.back().counts;
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
        merged.back().counts.MergeFrom(w.counts);
      } else {
        merged.push_back(Window{idx, std::move(w.counts)});
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
    out.windows.push_back(w.counts);
    out.windows.back().start = static_cast<double>(w.index) * width_;
  }
  return out;
}

}  // namespace ptar::obs
