// Outside-in tracing for the traced benchmark run.
//
// Spans are recorded by the benchmark around calls into the program's public
// functions: the driver times Engine::AdvanceTo and Engine::RunPipelined per
// wave, and a Matcher decorator times every Matcher::Match call the pipeline
// makes (first matches, re-matches and the serial tail alike) together with
// that call's MatchStats. Nothing inside the program is instrumented.
//
// Spans stay in memory until the run ends; WriteChromeTrace then emits them
// as Chrome trace-event JSON (load in ui.perfetto.dev).

#ifndef PTAR_BENCH_LAYER_TRACE_H_
#define PTAR_BENCH_LAYER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "rideshare/matcher.h"
#include "sim/engine.h"

namespace ptar::bench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds from `t0` to `t`.
inline std::int64_t NanosSince(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count();
}

/// One Matcher::Match call.
struct MatchSpan {
  RequestId request = 0;
  std::uint64_t wave = 0;
  int worker = 0;  ///< Index of the decorator within its RunPipelined call.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  MatchStats stats;
  std::size_t options = 0;
  bool complete = true;
};

/// One driver wave: AdvanceTo over [start, advance_end), RunPipelined over
/// [advance_end, end).
struct WaveSpan {
  std::uint64_t wave = 0;
  std::size_t requests = 0;
  std::int64_t start_ns = 0;
  std::int64_t advance_end_ns = 0;
  std::int64_t end_ns = 0;
};

/// Span time summed over the run, in nanoseconds (doubles, for ratios).
struct LayerTotals {
  double busy_ns = 0.0;       ///< Σ AdvanceTo + RunPipelined.
  double advance_ns = 0.0;    ///< Σ AdvanceTo.
  double pipelined_ns = 0.0;  ///< Σ RunPipelined.
  double match_ns = 0.0;      ///< Σ Match, over all workers.
  /// Σ over waves of the union of that wave's match spans: the part of
  /// RunPipelined during which at least one worker was matching.
  double match_union_ns = 0.0;
  std::size_t match_spans = 0;
};

class LayerTrace {
 public:
  /// `spans_per_matcher` pre-sizes each decorator's buffer; `t0` is the
  /// time origin of every span.
  LayerTrace(std::size_t spans_per_matcher, Clock::time_point t0)
      : spans_per_matcher_(spans_per_matcher), t0_(t0) {}

  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  /// A factory for RunPipelined that wraps each matcher `inner` builds in a
  /// recording decorator tagged with the current wave. Each decorator
  /// writes only its own buffer, so the worker path takes no lock.
  /// `workers` is the call's worker count, used to number the decorators of
  /// one call.
  MatcherFactory WrapFactory(MatcherFactory inner, int workers);

  /// Sets the wave id that decorators built from now on record.
  void BeginWave(std::uint64_t wave) { wave_ = wave; }
  void AddWave(const WaveSpan& span) { waves_.push_back(span); }

  /// Every recorded match span, ordered by start time. Call only while no
  /// RunPipelined call is in flight.
  std::vector<MatchSpan> MatchSpans() const;

  LayerTotals Totals() const;

  /// Writes all spans as Chrome trace-event JSON. False on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Per-layer table of span counts, total time and self time (a span's
  /// duration minus the union of its children's intervals).
  std::string SelfTimeTable() const;

 private:
  std::size_t spans_per_matcher_;
  Clock::time_point t0_;
  /// One buffer per decorator ever built; a deque keeps earlier buffers in
  /// place while later calls add new ones.
  std::deque<std::vector<MatchSpan>> buffers_;
  std::uint64_t matchers_built_ = 0;
  std::uint64_t wave_ = 0;
  std::vector<WaveSpan> waves_;
};

}  // namespace ptar::bench

#endif  // PTAR_BENCH_LAYER_TRACE_H_
