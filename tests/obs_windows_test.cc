// Unit tests for the windowed telemetry aggregator (obs/windows.h) and the
// schema-v4 "timeseries" report block round-trip (obs/report.h).

#include "obs/windows.h"

#include <string>

#include "gtest/gtest.h"
#include "obs/json_writer.h"
#include "obs/report.h"

namespace ptar::obs {
namespace {

TEST(WindowedTelemetryTest, DisabledAggregatorIsInert) {
  WindowedTelemetry telemetry;
  EXPECT_FALSE(telemetry.enabled());
  EXPECT_EQ(telemetry.At(10.0), nullptr);
  EXPECT_FALSE(telemetry.WouldOpenNew(10.0));
  EXPECT_EQ(telemetry.Export().window_seconds, 0.0);
  EXPECT_TRUE(telemetry.Export().windows.empty());
  EXPECT_EQ(telemetry.Newest(), nullptr);
}

TEST(WindowedTelemetryTest, AssignsTimesToWindowsAndSkipsGaps) {
  WindowedTelemetry telemetry(TelemetryOptions{10.0});
  ASSERT_TRUE(telemetry.enabled());
  ++telemetry.At(1.0)->requests;
  ++telemetry.At(9.9)->requests;
  ++telemetry.At(10.0)->requests;
  // A long quiet gap: windows 2..9 are never materialized.
  ++telemetry.At(95.0)->requests;
  EXPECT_EQ(telemetry.num_windows(), 3u);

  const TimeseriesExport exported = telemetry.Export();
  ASSERT_EQ(exported.windows.size(), 3u);
  EXPECT_DOUBLE_EQ(exported.windows[0].start, 0.0);
  EXPECT_EQ(exported.windows[0].requests, 2u);
  EXPECT_DOUBLE_EQ(exported.windows[1].start, 10.0);
  EXPECT_EQ(exported.windows[1].requests, 1u);
  EXPECT_DOUBLE_EQ(exported.windows[2].start, 90.0);
  EXPECT_EQ(exported.windows[2].requests, 1u);
}

TEST(WindowedTelemetryTest, WouldOpenNewFlagsWindowTransitions) {
  WindowedTelemetry telemetry(TelemetryOptions{10.0});
  EXPECT_TRUE(telemetry.WouldOpenNew(0.0));  // First window counts as new.
  telemetry.At(0.0);
  EXPECT_FALSE(telemetry.WouldOpenNew(5.0));
  EXPECT_TRUE(telemetry.WouldOpenNew(10.0));
  telemetry.At(10.0);
  EXPECT_FALSE(telemetry.WouldOpenNew(19.9));
  EXPECT_FALSE(telemetry.WouldOpenNew(3.0));  // Out-of-order never opens.
}

TEST(WindowedTelemetryTest, CoalescingDoublesWidthAndPreservesTotals) {
  // Four one-second windows per ring slot: the ring overflows and must
  // double its width at least twice. Every field gets its own per-time
  // amount, so a field the merge drops shows up in its total.
  constexpr std::size_t kTimes = 4 * WindowedTelemetry::kMaxWindows;
  WindowedTelemetry telemetry(TelemetryOptions{1.0});
  for (std::size_t t = 0; t < kTimes; ++t) {
    WindowExport* w = telemetry.At(static_cast<double>(t) + 0.5);
    ASSERT_NE(w, nullptr);
    w->requests += 1;
    w->served += 2;
    w->unserved += 3;
    w->shed += 4;
    w->conflicts += 5;
    w->rematches += 6;
    w->partial += 7;
    for (std::size_t i = 0; i < w->ladder.size(); ++i) w->ladder[i] += 8 + i;
    w->commit_latency_us.Add(100.0);
  }
  EXPECT_LE(telemetry.num_windows(), WindowedTelemetry::kMaxWindows);
  EXPECT_GE(telemetry.window_seconds(), 4.0);

  const TimeseriesExport exported = telemetry.Export();
  WindowExport total;
  for (const WindowExport& w : exported.windows) total.MergeFrom(w);
  EXPECT_EQ(total.requests, kTimes);
  EXPECT_EQ(total.served, 2 * kTimes);
  EXPECT_EQ(total.unserved, 3 * kTimes);
  EXPECT_EQ(total.shed, 4 * kTimes);
  EXPECT_EQ(total.conflicts, 5 * kTimes);
  EXPECT_EQ(total.rematches, 6 * kTimes);
  EXPECT_EQ(total.partial, 7 * kTimes);
  for (std::size_t i = 0; i < total.ladder.size(); ++i) {
    EXPECT_EQ(total.ladder[i], (8 + i) * kTimes) << "ladder " << i;
  }
  EXPECT_EQ(total.commit_latency_us.count(), kTimes);
  EXPECT_DOUBLE_EQ(exported.window_seconds, telemetry.window_seconds());
}

TEST(WindowedTelemetryTest, NewestIsTheLatestWindow) {
  WindowedTelemetry telemetry(TelemetryOptions{10.0});
  EXPECT_EQ(telemetry.Newest(), nullptr);
  WindowExport* w0 = telemetry.At(5.0);
  w0->requests = 10;
  w0->shed = 5;
  w0->commit_latency_us.Add(9000.0);
  EXPECT_EQ(telemetry.Newest(), w0);

  WindowExport* w1 = telemetry.At(15.0);
  w1->requests = 4;
  w1->shed = 1;
  w1->commit_latency_us.Add(100.0);
  // An earlier time charges its own window and leaves the newest alone.
  ++telemetry.At(7.0)->requests;

  const WindowExport* newest = telemetry.Newest();
  ASSERT_EQ(newest, w1);
  EXPECT_EQ(newest->requests, 4u);
  EXPECT_EQ(newest->shed, 1u);
  EXPECT_GT(newest->commit_latency_us.Percentile(99.0), 90.0);
  EXPECT_LT(newest->commit_latency_us.Percentile(99.0), 200.0);
  EXPECT_EQ(telemetry.Export().windows[0].requests, 11u);
}

// --- Report round-trip -----------------------------------------------------

RunReport ReportWithTimeseries() {
  RunReport report;
  report.tool = "windows_test";
  report.served = 12;
  report.unserved = 3;
  report.timeseries.window_seconds = 10.0;
  for (int i = 0; i < 2; ++i) {
    WindowExport w;
    w.start = 10.0 * i;
    w.requests = 8 - static_cast<std::uint64_t>(i);
    w.served = 6;
    w.unserved = 1;
    w.shed = static_cast<std::uint64_t>(i);
    w.conflicts = 2;
    w.rematches = 1;
    w.partial = 1;
    w.ladder = {5, 2, 1, static_cast<std::uint64_t>(i)};
    w.commit_latency_us.Add(50.0);
    w.commit_latency_us.Add(150.0);
    w.commit_latency_us.Add(5000.0);
    report.timeseries.windows.push_back(w);
  }
  return report;
}

TEST(TimeseriesReportTest, RoundTripsThroughParser) {
  const std::string json = RunReportToJson(ReportWithTimeseries());
  const auto parsed = ParseTimeseries(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(parsed->window_seconds, 10.0);
  ASSERT_EQ(parsed->windows.size(), 2u);
  const WindowSummary& w0 = parsed->windows[0];
  EXPECT_DOUBLE_EQ(w0.start, 0.0);
  EXPECT_EQ(w0.requests, 8u);
  EXPECT_EQ(w0.served, 6u);
  EXPECT_EQ(w0.unserved, 1u);
  EXPECT_EQ(w0.shed, 0u);
  EXPECT_EQ(w0.conflicts, 2u);
  EXPECT_EQ(w0.rematches, 1u);
  EXPECT_EQ(w0.partial, 1u);
  EXPECT_EQ(w0.ladder[0], 5u);
  EXPECT_EQ(w0.ladder[3], 0u);
  EXPECT_EQ(w0.commit_count, 3u);
  EXPECT_GT(w0.commit_p99_us, w0.commit_p50_us);
  const WindowSummary& w1 = parsed->windows[1];
  EXPECT_DOUBLE_EQ(w1.start, 10.0);
  EXPECT_EQ(w1.shed, 1u);
  EXPECT_EQ(w1.ladder[3], 1u);
}

TEST(TimeseriesReportTest, MissingBlockParsesAsEmpty) {
  // A minimal (pre-v4 style) report without the block: OK + empty, so old
  // artifacts keep working through new consumers.
  RunReport report;
  report.tool = "windows_test";
  const std::string json = RunReportToJson(report);
  EXPECT_EQ(json.find("timeseries"), std::string::npos);
  const auto parsed = ParseTimeseries(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(parsed->window_seconds, 0.0);
  EXPECT_TRUE(parsed->windows.empty());
}

TEST(TimeseriesReportTest, RejectsUnknownMajorVersion) {
  std::string json = RunReportToJson(ReportWithTimeseries());
  const std::size_t pos = json.find("\"schema_version\": 4");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 19, "\"schema_version\": 99");
  const auto parsed = ParseTimeseries(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("99"), std::string::npos);
}

}  // namespace
}  // namespace ptar::obs
