#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ptar::obs {

namespace {

/// log(kGrowth), precomputed for BucketIndex.
const double kLogGrowth = std::log(LatencyHistogram::kGrowth);

}  // namespace

int LatencyHistogram::BucketIndex(double value) {
  if (!(value >= kFirstBound)) return 0;  // also catches NaN and negatives
  const int i =
      1 + static_cast<int>(std::log(value / kFirstBound) / kLogGrowth);
  return std::min(i, kNumBuckets - 1);
}

double LatencyHistogram::BucketLowerBound(int i) {
  if (i <= 0) return 0.0;
  return kFirstBound * std::pow(kGrowth, i - 1);
}

void LatencyHistogram::Add(double value) {
  if (empty()) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  ++count_;
  ++buckets_[BucketIndex(value)];
}

double LatencyHistogram::Percentile(double p) const {
  if (empty()) return 0.0;  // sentinel: no samples, no quantile
  PTAR_DCHECK(p >= 0.0 && p <= 100.0 && !std::isnan(p));
  // Clamp in release builds too: a negative or NaN p would otherwise feed
  // a negative value into the uint64 cast below, which is UB.
  if (!(p > 0.0)) p = 0.0;
  if (p > 100.0) p = 100.0;
  if (count_ == 1) return min_;  // the single sample, exactly
  // Nearest-rank position among count_ samples (0-based): the
  // interpolated rank p/100 * (count_ - 1) rounded to a sample.
  const auto rank = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(count_ - 1) + 0.5);
  std::uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (seen + buckets_[i] > rank) {
      // Interpolate inside the bucket by the rank's offset into it.
      const double lo = BucketLowerBound(i);
      const double hi = i + 1 < kNumBuckets ? BucketLowerBound(i + 1) : max_;
      const double frac = buckets_[i] == 1
                              ? 0.5
                              : static_cast<double>(rank - seen) /
                                    static_cast<double>(buckets_[i] - 1);
      const double value = lo + (std::max(hi, lo) - lo) * frac;
      return std::clamp(value, min_, max_);
    }
    seen += buckets_[i];
  }
  return max_;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  if (other.empty()) return;
  if (empty()) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;
  count_ += other.count_;
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
}

void MetricsRegistry::AddCounter(const std::string& name,
                                 std::uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::SetCounter(const std::string& name,
                                 std::uint64_t value) {
  counters_[name] = value;
}

std::uint64_t MetricsRegistry::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

LatencyHistogram& MetricsRegistry::Histogram(const std::string& name) {
  return histograms_[name];
}

const LatencyHistogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::MergeBatchStats(std::string_view prefix,
                                      const BatchStats& stats) {
  const std::string base(prefix);
  counters_[base + "/batch_calls"] += stats.batch_calls;
  counters_[base + "/sweeps"] += stats.sweeps;
  counters_[base + "/pairs_requested"] += stats.pairs_requested;
  counters_[base + "/pairs_from_cache"] += stats.pairs_from_cache;
  counters_[base + "/pairs_swept"] += stats.pairs_swept;
  counters_[base + "/warm_hits"] += stats.warm_hits;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, histogram] : other.histograms_) {
    histograms_[name].MergeFrom(histogram);
  }
}

void MetricsRegistry::Reset() {
  counters_.clear();
  histograms_.clear();
}

bool MetricsRegistry::IsTimingMetric(std::string_view name) {
  return name.ends_with("_us") || name.ends_with("_ms") ||
         name.ends_with("_micros");
}

}  // namespace ptar::obs
