// Metrics registry: one mergeable home for every cost measure a run
// produces — named counters, oracle batching stats (BatchStats), and fixed
// log-bucket latency histograms.
//
// Naming convention (relied on by tests and tooling): metric names are
// slash-separated paths, "<subsystem>/<name>" or
// "matcher/<algo>/<phase>/<name>". Names ending in "_us", "_ms" or
// "_micros" hold wall-clock measurements and are NOT deterministic across
// runs; everything else (counts, candidate totals) must be bit-identical
// for identical seeds regardless of thread count. obs_metrics_test
// enforces the split.
//
// The registry itself is single-threaded: each owner (engine, matcher slot,
// bench row) fills its own and merges after joining.

#ifndef PTAR_OBS_METRICS_H_
#define PTAR_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/counters.h"

namespace ptar::obs {

/// Fixed-size logarithmic-bucket histogram for latency-style positive
/// samples. Unlike a sample list it is O(1) memory regardless of sample
/// count and merges across threads by adding bucket arrays; the price is
/// that Percentile() is exact only to one bucket width (buckets grow by
/// kGrowth ~ 19% per step, so quantiles are within ~±9% of the true value).
class LatencyHistogram {
 public:
  /// Bucket 0 is [0, kFirstBound); bucket i >= 1 is
  /// [kFirstBound * kGrowth^(i-1), kFirstBound * kGrowth^i); the last
  /// bucket absorbs overflow. With kFirstBound = 1e-3 and 128 buckets the
  /// covered range spans ~1e-3 .. 4e6 in whatever unit the caller uses
  /// (microseconds here) — sub-microsecond to over an hour.
  static constexpr int kNumBuckets = 128;
  static constexpr double kFirstBound = 1e-3;
  static constexpr double kGrowth = 1.1892071150027210667;  // 2^(1/4)

  void Add(double value);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double Sum() const { return sum_; }
  double Mean() const { return empty() ? 0.0 : sum_ / count_; }
  /// Exact extrema (tracked outside the buckets).
  double Min() const { return empty() ? 0.0 : min_; }
  double Max() const { return empty() ? 0.0 : max_; }

  /// Nearest-rank percentile, linearly interpolated inside the winning
  /// bucket; p in [0, 100]. Monotone in p. Clamped to [Min(), Max()].
  /// Degenerate registries get defined sentinels instead of UB: an empty
  /// histogram returns 0.0 for every p, a 1-sample histogram returns that
  /// sample exactly, and out-of-range p is clamped into [0, 100] (debug
  /// builds additionally DCHECK).
  double Percentile(double p) const;

  void MergeFrom(const LatencyHistogram& other);

  const std::uint64_t* buckets() const { return buckets_; }
  /// Inclusive lower bound of bucket i (0 for i == 0).
  static double BucketLowerBound(int i);

  friend bool operator==(const LatencyHistogram& a,
                         const LatencyHistogram& b) {
    if (a.count_ != b.count_ || a.sum_ != b.sum_ || a.min_ != b.min_ ||
        a.max_ != b.max_) {
      return false;
    }
    for (int i = 0; i < kNumBuckets; ++i) {
      if (a.buckets_[i] != b.buckets_[i]) return false;
    }
    return true;
  }

 private:
  static int BucketIndex(double value);

  std::uint64_t buckets_[kNumBuckets] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Monotonic named counter (creates at 0 on first touch).
  void AddCounter(const std::string& name, std::uint64_t delta = 1);
  std::uint64_t Counter(const std::string& name) const;
  /// Sets a counter to a cumulative source's current total (creates it).
  void SetCounter(const std::string& name, std::uint64_t value);

  /// Named histogram, created empty on first access.
  LatencyHistogram& Histogram(const std::string& name);
  /// Null if the histogram was never touched.
  const LatencyHistogram* FindHistogram(const std::string& name) const;

  /// Folds the oracle's batching stats in under `prefix` (one counter per
  /// BatchStats field).
  void MergeBatchStats(std::string_view prefix, const BatchStats& stats);

  /// Sums counters and histograms name-by-name.
  void MergeFrom(const MetricsRegistry& other);

  void Reset();

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, LatencyHistogram>& histograms() const {
    return histograms_;
  }

  /// Whether `name` holds a wall-clock measurement (suffix convention
  /// above) and is therefore exempt from cross-run determinism checks.
  static bool IsTimingMetric(std::string_view name);

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, LatencyHistogram> histograms_;
};

}  // namespace ptar::obs

#endif  // PTAR_OBS_METRICS_H_
