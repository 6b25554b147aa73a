// Engine-level overload control: per-request budgets and a degradation
// ladder with hysteresis.
//
// A production dispatcher must answer every request within a latency
// budget, even when one request explodes the search space or the distance
// backend misbehaves. The controller tracks a degradation level:
//
//   level 0 (kFull)     — the configured matchers, full work budget
//   level 1 (kSsa)      — engine-owned SSA only, half budget
//   level 2 (kGridScan) — grid-lower-bound empty-vehicle scan, quarter budget
//   level 3 (kShed)     — no matching; the request is shed with an explicit
//                         kResourceExhausted Status
//
// A request is "bad" when it exhausted its work budget or (if a wall-clock
// deadline is configured) overran it. `degrade_after` consecutive bad
// requests step the ladder one level toward shedding; `recover_after`
// consecutive good ones step it back. Streaks reset on every transition, so
// the ladder moves at most one level per request and flaps only as fast as
// the hysteresis allows.
//
// Determinism: with `deadline_ms == 0` every signal is a deterministic work
// count, so ladder positions, shed decisions, and all degrade/* counters
// are bit-reproducible across runs and thread counts. Wall-clock deadlines
// are an explicitly nondeterministic overlay for production use.

#ifndef PTAR_SIM_OVERLOAD_H_
#define PTAR_SIM_OVERLOAD_H_

#include <cstdint>

namespace ptar {

enum class DegradeLevel {
  kFull = 0,
  kSsa = 1,
  kGridScan = 2,
  kShed = 3,
};
inline constexpr int kNumDegradeLevels = 4;

/// "full" / "ssa" / "grid_scan" / "shed" (metric + report vocabulary).
const char* DegradeLevelName(DegradeLevel level);

struct OverloadOptions {
  /// Deterministic work units (cell expansions + oracle computations) each
  /// request may spend at level 0; deeper levels get half and a quarter.
  /// 0 = unlimited (the controller can then only react to deadlines).
  std::uint64_t request_budget = 0;
  /// Wall-clock per-request matching deadline; 0 = none. Also armed into
  /// the per-slot work budgets so matchers stop cooperatively instead of
  /// merely being observed to overrun.
  double deadline_ms = 0.0;
  /// Consecutive bad requests before degrading one level.
  int degrade_after = 2;
  /// Consecutive good requests before recovering one level.
  int recover_after = 8;
  /// SLO target for windowed p99 commit latency (microseconds); 0 = off.
  /// When set, ObserveWindow() becomes an additional early-degrade /
  /// early-recover signal on top of the per-request streaks. Like
  /// deadline_ms this is a wall-clock-driven, explicitly nondeterministic
  /// overlay for production use.
  double slo_p99_us = 0.0;
};

class OverloadController {
 public:
  explicit OverloadController(const OverloadOptions& options);

  /// False when neither a budget nor a deadline is configured; the engine
  /// then bypasses the controller entirely (no budgets handed to matchers).
  bool enabled() const { return enabled_; }

  DegradeLevel level() const { return level_; }

  /// Work-unit budget at the current level: request_budget shifted right by
  /// the level (at least 1 so a configured budget never degrades back into
  /// "unlimited"). 0 when no budget is configured.
  std::uint64_t LevelBudget() const;

  /// Budget at an explicit ladder level (same halving schedule). The
  /// request-parallel pipeline admits a wave of requests at once: each one
  /// captures the level in force at its admission and arms a budget for
  /// *that* level inside its worker, even if the ladder has since moved.
  std::uint64_t BudgetForLevel(DegradeLevel level) const;

  /// Configured deadline in microseconds (0 = none).
  double DeadlineMicros() const { return options_.deadline_ms * 1e3; }

  struct Observation {
    bool bad = false;
    bool deadline_missed = false;
    /// +1 = degraded one level, -1 = recovered one level, 0 = no move.
    int level_delta = 0;
  };

  /// Feeds one telemetry window's headline signals (p99 commit latency
  /// and shed rate, which the engine derives from the just-closed
  /// WindowedTelemetry::Newest() window) and moves the ladder ahead of
  /// the per-request streaks. A window whose p99 violates
  /// `slo_p99_us` degrades one level immediately — a whole window over
  /// target is stronger evidence than any single bad request — and a
  /// clearly healthy window (p99 under half the target, nothing shed)
  /// recovers one level immediately. Both reset the request streaks so the
  /// two mechanisms don't double-count the same episode. No-op when
  /// `slo_p99_us` is 0 or the window saw no requests.
  Observation ObserveWindow(double p99_commit_us, double shed_rate,
                            std::uint64_t window_requests);

  /// Feeds one completed (or shed) request's signals and moves the ladder.
  ///
  /// In the serial engine `elapsed_micros` is the request's matching wall
  /// time, measured inline. In the request-parallel pipeline many requests
  /// match concurrently, so the global inter-request wall clock says
  /// nothing about any one worker's health; the pipeline instead passes
  /// each request's *own* worker-measured elapsed time plus
  /// `worker_deadline_hit` — the worker budget's latched wall-deadline
  /// signal — so ladder transitions are driven by per-worker overruns.
  Observation Observe(double elapsed_micros, bool budget_exhausted,
                      bool worker_deadline_hit = false);

 private:
  OverloadOptions options_;
  bool enabled_;
  DegradeLevel level_ = DegradeLevel::kFull;
  int bad_streak_ = 0;
  int good_streak_ = 0;
};

}  // namespace ptar

#endif  // PTAR_SIM_OVERLOAD_H_
