// Foundation utilities: RNG determinism, statistics, assertions, logging.
#include <gtest/gtest.h>

#include <set>

#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace rapids {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(11);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.next_int(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    lo |= v == 3;
    hi |= v == 6;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.next_bool() ? 1 : 0;
  EXPECT_NEAR(heads, 5000, 300);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Stats, MeanMinMax) {
  RunningStats s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Stats, Variance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(Stats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, SingleSample) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
}

TEST(Assert, ThrowsInternalError) {
  EXPECT_THROW(RAPIDS_ASSERT(false), InternalError);
  EXPECT_NO_THROW(RAPIDS_ASSERT(true));
}

TEST(Assert, MessageIncluded) {
  try {
    RAPIDS_ASSERT_MSG(false, "specific context");
    FAIL();
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("specific context"), std::string::npos);
  }
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_LT(t.seconds(), 10.0);
}

TEST(Log, SinkReceivesMessagesAtLevel) {
  Logger& logger = Logger::instance();
  const LogLevel old_level = logger.level();
  std::vector<std::string> captured;
  const Logger::Sink old_sink = logger.set_sink(
      [&captured](LogLevel, const std::string& m) { captured.push_back(m); });
  logger.set_level(LogLevel::Info);
  log_info() << "hello " << 42;
  log_debug() << "filtered";
  logger.set_level(old_level);
  logger.set_sink(old_sink);  // the one process logger: restore stderr
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "hello 42");
}

}  // namespace
}  // namespace rapids
