// Windowed telemetry: a bounded ring of per-sim-time-window counts, so a
// run's service quality is visible as a time series (requests/s, shed rate,
// conflict rate, commit-latency percentiles, ladder occupancy per window)
// instead of one whole-run aggregate.
//
// The engine asks for the counts of the window containing the current sim
// time (`At(sim_time)`) and bumps them; everything else — window creation,
// gap skipping, and capacity — lives here. When the ring exceeds
// kMaxWindows (256), the window width doubles and adjacent windows merge
// (WindowExport::MergeFrom), so memory stays bounded for arbitrarily long
// runs while the whole run remains covered.
//
// Window boundaries are sim-time, not wall-clock, so the window structure
// and every count in it are deterministic; only the commit-latency
// histogram inside varies between equal-seed runs.

#ifndef PTAR_OBS_WINDOWS_H_
#define PTAR_OBS_WINDOWS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace ptar::obs {

struct TelemetryOptions {
  /// Initial sim-time window width; <= 0 disables the aggregator entirely
  /// (At() then returns null and Export() is empty).
  double window_seconds = 60.0;
};

/// One window's counts — the fields the report's "timeseries" block
/// serializes. `ladder` is indexed by the sim layer's DegradeLevel.
struct WindowExport {
  double start = 0.0;  ///< Window start, sim seconds (set by Export()).
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t unserved = 0;
  std::uint64_t shed = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t rematches = 0;
  std::uint64_t partial = 0;
  std::array<std::uint64_t, 4> ladder{};
  LatencyHistogram commit_latency_us;

  /// Adds `other`'s counts into this window (`start` is left alone).
  void MergeFrom(const WindowExport& other);
};

struct TimeseriesExport {
  double window_seconds = 0.0;  ///< 0 = aggregator disabled / absent.
  std::vector<WindowExport> windows;
};

class WindowedTelemetry {
 public:
  /// Ring capacity. Exceeding it doubles the width and merges neighbours,
  /// so long runs keep full coverage at bounded memory.
  static constexpr std::size_t kMaxWindows = 256;

  /// Disabled aggregator (window_seconds 0).
  WindowedTelemetry() : WindowedTelemetry(TelemetryOptions{0.0}) {}
  explicit WindowedTelemetry(const TelemetryOptions& options);

  bool enabled() const { return options_.window_seconds > 0.0; }
  /// Current window width (>= the configured width; doubles on overflow).
  double window_seconds() const { return width_; }
  std::size_t num_windows() const { return windows_.size(); }

  /// Counts of the window containing `sim_time`, creating it on first
  /// touch (and coalescing the ring if that exceeds capacity). Null when
  /// disabled. Sim time is expected to be (weakly) monotone; an earlier
  /// time lands in its own window if it still exists, else the oldest.
  WindowExport* At(double sim_time);

  /// True when At(sim_time) would open a new (newer) window — the moment
  /// the previous window's stats are final and may feed SLO decisions.
  bool WouldOpenNew(double sim_time) const;

  /// Newest window's counts (null when empty or disabled).
  const WindowExport* Newest() const;

  /// Copies the ring for the run report. Windows are in time order;
  /// empty (never-touched) spans between them are simply absent.
  TimeseriesExport Export() const;

 private:
  struct Window {
    std::int64_t index = 0;  ///< floor(start / width_).
    WindowExport counts;
  };

  void CoalesceIfNeeded();

  TelemetryOptions options_;
  double width_ = 0.0;
  std::vector<Window> windows_;  ///< Sorted by index (appended in order).
};

}  // namespace ptar::obs

#endif  // PTAR_OBS_WINDOWS_H_
