// LatencyHistogram bucket math, merging, and percentiles; MetricsRegistry
// counter/histogram bookkeeping and the BatchStats fold-in;
// the timing-metric naming convention.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/counters.h"
#include "obs/metrics.h"

namespace ptar::obs {
namespace {

TEST(LatencyHistogramTest, EmptyIsZeroEverywhere) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Sum(), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Min(), 0.0);
  EXPECT_EQ(h.Max(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(LatencyHistogramTest, TracksExactSumMinMax) {
  LatencyHistogram h;
  h.Add(3.0);
  h.Add(1.0);
  h.Add(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.Sum(), 14.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 14.0 / 3.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 10.0);
}

TEST(LatencyHistogramTest, BucketBoundsGrowGeometrically) {
  EXPECT_DOUBLE_EQ(LatencyHistogram::BucketLowerBound(0), 0.0);
  EXPECT_DOUBLE_EQ(LatencyHistogram::BucketLowerBound(1),
                   LatencyHistogram::kFirstBound);
  for (int i = 2; i < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_NEAR(LatencyHistogram::BucketLowerBound(i) /
                    LatencyHistogram::BucketLowerBound(i - 1),
                LatencyHistogram::kGrowth, 1e-9)
        << "bucket " << i;
  }
}

TEST(LatencyHistogramTest, SamplesLandInTheirBucket) {
  // A value inside bucket i must raise exactly bucket i.
  for (int i : {0, 1, 5, 64, LatencyHistogram::kNumBuckets - 1}) {
    LatencyHistogram one;
    const double lo = LatencyHistogram::BucketLowerBound(i);
    const double hi = i + 1 < LatencyHistogram::kNumBuckets
                          ? LatencyHistogram::BucketLowerBound(i + 1)
                          : lo * 2.0;
    const double v = lo + (hi - lo) / 2.0;
    one.Add(v);
    EXPECT_EQ(one.buckets()[i], 1u) << "value " << v << " bucket " << i;
  }
}

TEST(LatencyHistogramTest, OverflowGoesToLastBucket) {
  LatencyHistogram h;
  h.Add(1e300);
  EXPECT_EQ(h.buckets()[LatencyHistogram::kNumBuckets - 1], 1u);
  EXPECT_DOUBLE_EQ(h.Max(), 1e300);
}

TEST(LatencyHistogramTest, PercentileWithinOneBucketWidth) {
  LatencyHistogram h;
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i * 0.5);  // 0.5 .. 500
  for (double v : values) h.Add(v);
  // Exact percentiles of the uniform ramp, tolerance one bucket (~19%).
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    const double exact = values[static_cast<std::size_t>(
        p / 100.0 * (values.size() - 1) + 0.5)];
    const double approx = h.Percentile(p);
    EXPECT_GE(approx, exact / (LatencyHistogram::kGrowth * 1.0001))
        << "p" << p;
    EXPECT_LE(approx, exact * LatencyHistogram::kGrowth * 1.0001)
        << "p" << p;
  }
  // Extremes clamp to the exact tracked min / max (within one bucket).
  EXPECT_NEAR(h.Percentile(0), 0.5, 0.5 * (LatencyHistogram::kGrowth - 1));
  EXPECT_DOUBLE_EQ(h.Percentile(100), 500.0);
}

TEST(LatencyHistogramTest, PercentileIsMonotone) {
  LatencyHistogram h;
  for (int i = 0; i < 200; ++i) h.Add(std::pow(1.3, i % 37));
  double prev = -1.0;
  for (int p = 0; p <= 100; p += 5) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
}

TEST(LatencyHistogramTest, MergeMatchesBulkAdd) {
  LatencyHistogram a, b, all;
  for (int i = 1; i <= 50; ++i) {
    a.Add(i * 0.7);
    all.Add(i * 0.7);
  }
  for (int i = 1; i <= 80; ++i) {
    b.Add(i * 3.1);
    all.Add(i * 3.1);
  }
  a.MergeFrom(b);
  EXPECT_TRUE(a == all);
}

TEST(LatencyHistogramTest, MergeFromEmptyIsIdentity) {
  LatencyHistogram a, empty;
  a.Add(2.0);
  LatencyHistogram before = a;
  a.MergeFrom(empty);
  EXPECT_TRUE(a == before);
  empty.MergeFrom(a);
  EXPECT_TRUE(empty == a);
}

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.Counter("x"), 0u);
  reg.AddCounter("x");
  reg.AddCounter("x", 4);
  EXPECT_EQ(reg.Counter("x"), 5u);
}

TEST(MetricsRegistryTest, HistogramIsAddressStable) {
  MetricsRegistry reg;
  LatencyHistogram* h = &reg.Histogram("pipeline/wave_advance_us");
  for (int i = 0; i < 100; ++i) reg.Histogram("other" + std::to_string(i));
  EXPECT_EQ(h, &reg.Histogram("pipeline/wave_advance_us"));
  h->Add(1.0);
  ASSERT_NE(reg.FindHistogram("pipeline/wave_advance_us"), nullptr);
  EXPECT_EQ(reg.FindHistogram("pipeline/wave_advance_us")->count(), 1u);
  EXPECT_EQ(reg.FindHistogram("never_touched"), nullptr);
}

TEST(MetricsRegistryTest, MergeBatchStatsOneCounterPerField) {
  BatchStats stats;
  stats.batch_calls = 1;
  stats.sweeps = 2;
  stats.pairs_requested = 3;
  stats.pairs_from_cache = 4;
  stats.pairs_swept = 5;
  stats.warm_hits = 6;
  MetricsRegistry reg;
  reg.MergeBatchStats("matcher/ba/batch", stats);
  EXPECT_EQ(reg.Counter("matcher/ba/batch/batch_calls"), 1u);
  EXPECT_EQ(reg.Counter("matcher/ba/batch/sweeps"), 2u);
  EXPECT_EQ(reg.Counter("matcher/ba/batch/pairs_requested"), 3u);
  EXPECT_EQ(reg.Counter("matcher/ba/batch/pairs_from_cache"), 4u);
  EXPECT_EQ(reg.Counter("matcher/ba/batch/pairs_swept"), 5u);
  EXPECT_EQ(reg.Counter("matcher/ba/batch/warm_hits"), 6u);
}

TEST(MetricsRegistryTest, MergeFromSumsBothKinds) {
  MetricsRegistry a, b;
  a.AddCounter("c", 1);
  b.AddCounter("c", 2);
  b.AddCounter("only_b", 9);
  a.Histogram("h").Add(1.0);
  b.Histogram("h").Add(3.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.Counter("c"), 3u);
  EXPECT_EQ(a.Counter("only_b"), 9u);
  EXPECT_EQ(a.Histogram("h").count(), 2u);
  EXPECT_DOUBLE_EQ(a.Histogram("h").Sum(), 4.0);
}

TEST(MetricsRegistryTest, ResetClearsEverything) {
  MetricsRegistry reg;
  reg.AddCounter("c", 5);
  reg.Histogram("h").Add(1.0);
  reg.Reset();
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.histograms().empty());
}

TEST(MetricsRegistryTest, TimingMetricNamingConvention) {
  EXPECT_TRUE(MetricsRegistry::IsTimingMetric("pipeline/wave_advance_us"));
  EXPECT_TRUE(MetricsRegistry::IsTimingMetric("matcher/ssa/latency_us"));
  EXPECT_TRUE(MetricsRegistry::IsTimingMetric("x/latency_ms"));
  EXPECT_TRUE(MetricsRegistry::IsTimingMetric("pool/queue_wait_micros"));
  EXPECT_FALSE(MetricsRegistry::IsTimingMetric("matcher/ssa/compdists"));
  EXPECT_FALSE(MetricsRegistry::IsTimingMetric("matcher/ssa/options"));
  EXPECT_FALSE(MetricsRegistry::IsTimingMetric("pool/tasks_run"));
  EXPECT_FALSE(MetricsRegistry::IsTimingMetric("versus"));  // not a suffix
}

// Regression: Percentile on a degenerate histogram used to be undefined
// (empty read past the bucket array's intent; one sample interpolated
// inside its bucket instead of returning the sample). Sentinels are now
// part of the documented contract.
TEST(LatencyHistogramTest, PercentileEmptyHistogramReturnsZeroSentinel) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 0.0);
}

TEST(LatencyHistogramTest, PercentileSingleSampleReturnsThatSample) {
  LatencyHistogram h;
  h.Add(123.456);
  // Exact, not bucket-interpolated: every percentile of one sample IS the
  // sample.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 123.456);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 123.456);
  EXPECT_DOUBLE_EQ(h.Percentile(99.0), 123.456);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 123.456);
}

TEST(LatencyHistogramTest, PercentileOutOfRangePIsClampedInRelease) {
  LatencyHistogram h;
  h.Add(10.0);
  h.Add(20.0);
#ifdef NDEBUG
  // Release builds clamp instead of UB; debug builds DCHECK (covered by
  // the death-test-free contract: we only exercise the clamp here).
  EXPECT_DOUBLE_EQ(h.Percentile(-5.0), h.Percentile(0.0));
  EXPECT_DOUBLE_EQ(h.Percentile(150.0), h.Percentile(100.0));
#endif
  // Monotone within range, clamped to the extrema.
  EXPECT_LE(h.Percentile(0.0), h.Percentile(50.0));
  EXPECT_LE(h.Percentile(50.0), h.Percentile(100.0));
  EXPECT_GE(h.Percentile(0.0), h.Min());
  EXPECT_LE(h.Percentile(100.0), h.Max());
}

}  // namespace
}  // namespace ptar::obs
