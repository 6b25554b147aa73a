// Windowed telemetry: a bounded ring of per-sim-time-window
// MetricsRegistry deltas, so a run's service quality is visible as a time
// series (requests/s, shed rate, conflict rate, commit-latency percentiles,
// ladder occupancy per window) instead of one whole-run aggregate.
//
// The engine asks for the registry of the window containing the current
// sim time (`At(sim_time)`) and bumps plain counters/histograms into it;
// everything else — window creation, gap skipping, and capacity — lives
// here. When the ring exceeds kMaxWindows (256), the window width doubles
// and adjacent windows merge (MetricsRegistry is mergeable by
// construction), so memory stays bounded for arbitrarily long runs while
// the whole run remains covered.
//
// Window boundaries are sim-time, not wall-clock, so the window structure
// and every count in it are deterministic; only the timing-suffixed
// histograms inside (commit_latency_us) vary between equal-seed runs,
// matching the MetricsRegistry naming convention.

#ifndef PTAR_OBS_WINDOWS_H_
#define PTAR_OBS_WINDOWS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ptar::obs {

/// Metric vocabulary the engine records into each window; Export() reads
/// these names back out. Ladder occupancy counters are
/// "ladder/<level name>" using the sim layer's DegradeLevelName strings.
inline constexpr const char* kWindowRequests = "requests";
inline constexpr const char* kWindowServed = "served";
inline constexpr const char* kWindowUnserved = "unserved";
inline constexpr const char* kWindowShed = "shed";
inline constexpr const char* kWindowConflicts = "conflicts";
inline constexpr const char* kWindowRematches = "rematches";
inline constexpr const char* kWindowPartial = "partial";
inline constexpr const char* kWindowCommitLatencyUs = "commit_latency_us";
inline constexpr std::array<const char*, 4> kWindowLadderLevels = {
    "ladder/full", "ladder/ssa", "ladder/grid_scan", "ladder/shed"};

struct TelemetryOptions {
  /// Initial sim-time window width; <= 0 disables the aggregator entirely
  /// (At() then returns null and Export() is empty).
  double window_seconds = 60.0;
};

/// Flattened view of one window — the fields the report's "timeseries"
/// block serializes.
struct WindowExport {
  double start = 0.0;  ///< Window start, sim seconds.
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t unserved = 0;
  std::uint64_t shed = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t rematches = 0;
  std::uint64_t partial = 0;
  std::array<std::uint64_t, 4> ladder{};
  LatencyHistogram commit_latency_us;
};

struct TimeseriesExport {
  double window_seconds = 0.0;  ///< 0 = aggregator disabled / absent.
  std::vector<WindowExport> windows;
};

/// Headline signals of the newest window, for SLO feedback.
struct WindowSlo {
  std::uint64_t requests = 0;
  double p99_commit_us = 0.0;
  double shed_rate = 0.0;
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

  /// Registry of the window containing `sim_time`, creating it on first
  /// touch (and coalescing the ring if that exceeds capacity). Null when
  /// disabled. Sim time is expected to be (weakly) monotone; an earlier
  /// time lands in its own window if it still exists, else the oldest.
  MetricsRegistry* At(double sim_time);

  /// True when At(sim_time) would open a new (newer) window — the moment
  /// the previous window's stats are final and may feed SLO decisions.
  bool WouldOpenNew(double sim_time) const;

  /// Flattens the ring for the run report. Windows are in time order;
  /// empty (never-touched) spans between them are simply absent.
  TimeseriesExport Export() const;

  /// Newest window's headline signals (zero when empty/disabled).
  WindowSlo CurrentSlo() const;

 private:
  struct Window {
    std::int64_t index = 0;  ///< floor(start / width_).
    MetricsRegistry metrics;
  };

  void CoalesceIfNeeded();

  TelemetryOptions options_;
  double width_ = 0.0;
  std::vector<Window> windows_;  ///< Sorted by index (appended in order).
};

}  // namespace ptar::obs

#endif  // PTAR_OBS_WINDOWS_H_
