// Unit tests for the per-request lifecycle recorder (obs/lifecycle.h):
// sampling purity and rates, line layout (deterministic core vs timing
// overlay), and flush-append file semantics.

#include "obs/lifecycle.h"

#include <cstdio>
#include <string>

#include "gtest/gtest.h"

namespace ptar::obs {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

TEST(LifecycleRecorderTest, DefaultConstructedIsDisabled) {
  LifecycleRecorder recorder;
  EXPECT_FALSE(recorder.enabled());
  recorder.Record(LifecycleEvent{});  // No-op, must not crash.
  EXPECT_EQ(recorder.events_recorded(), 0u);
  EXPECT_TRUE(recorder.Flush().ok());
}

TEST(LifecycleRecorderTest, SamplingIsAPureFunctionOfIdAndSeed) {
  LifecycleOptions opts;
  opts.path = TempPath("lifecycle_pure.jsonl");
  opts.sample_rate = 0.5;
  opts.seed = 7;
  LifecycleRecorder a(opts);
  LifecycleRecorder b(opts);
  for (std::uint64_t id = 0; id < 1000; ++id) {
    EXPECT_EQ(a.Sampled(id), b.Sampled(id)) << id;
    EXPECT_EQ(a.Sampled(id), a.Sampled(id)) << id;  // Stateless.
  }
  // A different seed samples a different set.
  opts.seed = 8;
  LifecycleRecorder c(opts);
  int differs = 0;
  for (std::uint64_t id = 0; id < 1000; ++id) {
    if (a.Sampled(id) != c.Sampled(id)) ++differs;
  }
  EXPECT_GT(differs, 100);
}

TEST(LifecycleRecorderTest, SampleRateBoundsAndProportion) {
  LifecycleOptions opts;
  opts.path = TempPath("lifecycle_rate.jsonl");
  opts.seed = 3;

  opts.sample_rate = 1.0;
  LifecycleRecorder all(opts);
  opts.sample_rate = 0.0;
  LifecycleRecorder none(opts);
  opts.sample_rate = 0.25;
  LifecycleRecorder quarter(opts);

  int sampled = 0;
  for (std::uint64_t id = 0; id < 4000; ++id) {
    EXPECT_TRUE(all.Sampled(id));
    EXPECT_FALSE(none.Sampled(id));
    if (quarter.Sampled(id)) ++sampled;
  }
  // The hash is uniform; 4000 draws at rate .25 land near 1000.
  EXPECT_GT(sampled, 800);
  EXPECT_LT(sampled, 1200);
}

TEST(LifecycleRecorderTest, LineLayoutCoreFieldsAndServedExtras) {
  LifecycleEvent event;
  event.request = 42;
  event.submit_time = 12.5;
  event.wave = 3;
  event.epoch = 17;
  event.level = "full";
  event.matcher = "SSA";
  event.options = 2;
  event.disposition = "served";
  event.vehicle = 9;
  event.pickup_dist = 100.25;
  event.price = 7.5;
  event.match_us = 123.0;

  const std::string line = LifecycleEventToJsonLine(event, false);
  EXPECT_EQ(line.find("{\"schema\":1,\"req\":42,\"t\":12.500000"), 0u);
  EXPECT_NE(line.find("\"wave\":3"), std::string::npos);
  EXPECT_NE(line.find("\"epoch\":17"), std::string::npos);
  EXPECT_NE(line.find("\"level\":\"full\""), std::string::npos);
  EXPECT_NE(line.find("\"matcher\":\"SSA\""), std::string::npos);
  EXPECT_NE(line.find("\"disposition\":\"served\""), std::string::npos);
  EXPECT_NE(line.find("\"vehicle\":9"), std::string::npos);
  EXPECT_NE(line.find("\"price\":7.500000"), std::string::npos);
  // The timing overlay is opt-in.
  EXPECT_EQ(line.find("match_us"), std::string::npos);
  const std::string timed = LifecycleEventToJsonLine(event, true);
  EXPECT_NE(timed.find("\"match_us\":123.000000"), std::string::npos);

  // Unserved requests omit the vehicle/price block entirely.
  event.disposition = "unserved";
  const std::string unserved = LifecycleEventToJsonLine(event, false);
  EXPECT_EQ(unserved.find("vehicle"), std::string::npos);
  EXPECT_EQ(unserved.find("price"), std::string::npos);
}

TEST(LifecycleRecorderTest, RecordBuffersOnlySampledIds) {
  LifecycleOptions opts;
  opts.path = TempPath("lifecycle_sampled.jsonl");
  opts.sample_rate = 0.5;
  opts.seed = 11;
  LifecycleRecorder recorder(opts);
  std::uint64_t expected = 0;
  for (std::uint64_t id = 0; id < 100; ++id) {
    if (recorder.Sampled(id)) ++expected;
    LifecycleEvent event;
    event.request = id;
    event.disposition = "unserved";
    recorder.Record(event);
  }
  EXPECT_EQ(recorder.events_recorded(), expected);
}

TEST(LifecycleRecorderTest, FlushTruncatesOnceThenAppends) {
  LifecycleOptions opts;
  opts.path = TempPath("lifecycle_flush.jsonl");
  LifecycleRecorder recorder(opts);

  // Stale content from a previous run must not leak into this one.
  std::FILE* f = std::fopen(opts.path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("stale\n", f);
  std::fclose(f);

  LifecycleEvent event;
  event.request = 1;
  event.disposition = "shed";
  recorder.Record(event);
  ASSERT_TRUE(recorder.Flush().ok());
  event.request = 2;
  recorder.Record(event);
  ASSERT_TRUE(recorder.Flush().ok());
  ASSERT_TRUE(recorder.Flush().ok());  // Idempotent with nothing buffered.

  const std::string content = ReadAll(opts.path);
  EXPECT_EQ(content.find("stale"), std::string::npos);
  EXPECT_NE(content.find("\"req\":1"), std::string::npos);
  EXPECT_NE(content.find("\"req\":2"), std::string::npos);
  EXPECT_EQ(recorder.buffered(), "");
}

}  // namespace
}  // namespace ptar::obs
