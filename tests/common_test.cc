// Tests for the common runtime: Status/StatusOr, logging, RNG, counters.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/timer.h"

namespace ptar {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 8; ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nothing here");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValues) {
  StatusOr<std::vector<int>> v = std::vector<int>{1, 2, 3};
  ASSERT_TRUE(v.ok());
  std::vector<int> out = std::move(v).value();
  EXPECT_EQ(out.size(), 3u);
}

Status Fails() { return Status::Internal("boom"); }
Status Succeeds() { return Status::OK(); }

Status UseReturnIfError(bool fail) {
  PTAR_RETURN_IF_ERROR(Succeeds());
  if (fail) PTAR_RETURN_IF_ERROR(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UseReturnIfError(false).ok());
  EXPECT_EQ(UseReturnIfError(true).code(), StatusCode::kInternal);
}

TEST(LoggingTest, ThresholdRoundTrips) {
  const LogLevel old = GetLogThreshold();
  SetLogThreshold(LogLevel::kError);
  EXPECT_EQ(GetLogThreshold(), LogLevel::kError);
  SetLogThreshold(old);
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(PTAR_CHECK(1 == 2) << "should die", "Check failed");
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1'000'000) == b.UniformInt(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRealInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformReal(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngTest, UniformIndexCoversRange) {
  Rng rng(9);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 1000; ++i) {
    ++seen[rng.UniformIndex(5)];
  }
  for (int count : seen) EXPECT_GT(count, 100);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(11);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-0.5));
  EXPECT_TRUE(rng.Bernoulli(1.5));
}

TEST(RngTest, NormalHasRoughMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  // The fork must not replay the parent's stream.
  Rng b(5);
  b.Fork();
  EXPECT_EQ(a.UniformInt(0, 1 << 30), b.UniformInt(0, 1 << 30));
  (void)child;
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  ::testing::internal::UnitTestImpl* volatile unused = nullptr;
  (void)unused;
  (void)sink;
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMicros(), t.ElapsedMillis());
}

}  // namespace
}  // namespace ptar
