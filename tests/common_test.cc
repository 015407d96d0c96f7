#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/queue.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"

namespace deco {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "invalid-argument: bad thing");
}

TEST(StatusTest, AllFactoriesMapToMatchingPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Timeout("x").IsTimeout());
  EXPECT_TRUE(Status::NetworkError("x").IsNetworkError());
  EXPECT_TRUE(Status::NodeFailed("x").IsNodeFailed());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Cancelled("x").IsCancelled());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Timeout("t"), Status::Timeout("t"));
  EXPECT_NE(Status::Timeout("t"), Status::Timeout("u"));
  EXPECT_NE(Status::Timeout("t"), Status::NotFound("t"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "ok");
  EXPECT_EQ(StatusCodeToString(StatusCode::kTimeout), "timeout");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNodeFailed), "node-failed");
}

Status ReturnsErrorThrough() {
  DECO_RETURN_NOT_OK(Status::NotFound("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(ReturnsErrorThrough().IsNotFound());
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(42), 42);
}

Result<int> Doubled(int v) {
  DECO_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, AssignOrReturnUnwrapsAndPropagates) {
  ASSERT_TRUE(Doubled(4).ok());
  EXPECT_EQ(*Doubled(4), 8);
  EXPECT_TRUE(Doubled(0).status().IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 5);
}

// ----------------------------------------------------------------- Clock

TEST(ClockTest, SystemClockIsMonotonic) {
  Clock* clock = SystemClock::Default();
  const TimeNanos a = clock->NowNanos();
  const TimeNanos b = clock->NowNanos();
  EXPECT_LE(a, b);
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowNanos(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowNanos(), 150);
  clock.SetNanos(1'000'000);
  EXPECT_EQ(clock.NowMillis(), 1);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBounded(13), 13u);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  const int kDraws = 80'000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(8)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 8 * 0.9);
    EXPECT_LT(c, kDraws / 8 * 1.1);
  }
}

TEST(RngTest, NextIntCoversClosedRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianHasPlausibleMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / kDraws;
  const double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
  int heads = 0;
  for (int i = 0; i < 10'000; ++i) heads += rng.NextBool(0.25);
  EXPECT_NEAR(heads / 10'000.0, 0.25, 0.02);
}

// ----------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesTypedValues) {
  const char* argv[] = {"prog",       "--name=deco", "--count=42",
                        "--rate=1.5", "--verbose",   "positional",
                        "--list=1,2,3"};
  Flags flags = Flags::Parse(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetString("name", ""), "deco");
  EXPECT_EQ(flags.GetInt("count", 0), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 1.5);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_FALSE(flags.Has("missing"));
  EXPECT_EQ(flags.GetInt("missing", -1), -1);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
  const std::vector<int64_t> list = flags.GetIntList("list", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[2], 3);
}

TEST(FlagsTest, BoolFalseValues) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=true", "--d=1"};
  Flags flags = Flags::Parse(5, const_cast<char**>(argv));
  EXPECT_FALSE(flags.GetBool("a", true));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_TRUE(flags.GetBool("d", false));
}

// ---------------------------------------------------------------- Queues

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.Pop().value(), i);
}

TEST(BlockingQueueTest, CloseWakesAndDrains) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Close();
  EXPECT_FALSE(q.Push(2));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, PopWithTimeoutExpires) {
  BlockingQueue<int> q;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.PopWithTimeout(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(15));
}

TEST(BlockingQueueTest, TryPopNonBlocking) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
  q.Push(5);
  EXPECT_EQ(q.TryPop().value(), 5);
}

TEST(BlockingQueueTest, DrainIntoMovesEverything) {
  BlockingQueue<int> q;
  for (int i = 0; i < 5; ++i) q.Push(i);
  std::vector<int> out;
  EXPECT_EQ(q.DrainInto(&out), 5u);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_TRUE(q.empty());
}

TEST(BlockingQueueTest, ConcurrentProducersConsumers) {
  BlockingQueue<int> q;
  constexpr int kPerProducer = 5000;
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  std::atomic<int> consumed{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.Pop()) {
        consumed.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  while (consumed.load() < kProducers * kPerProducer) {
    std::this_thread::yield();
  }
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
}

// --------------------------------------------------------------- Logging

TEST(LoggingTest, LevelGating) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Suppressed statement must still compile and stream.
  DECO_LOG(DEBUG) << "suppressed " << 42;
  SetLogLevel(before);
}

TEST(LoggingTest, LogLevelFromStringParsesEveryLevel) {
  struct Case {
    const char* name;
    LogLevel level;
  };
  for (const Case& c : {Case{"debug", LogLevel::kDebug},
                        Case{"info", LogLevel::kInfo},
                        Case{"warning", LogLevel::kWarning},
                        Case{"warn", LogLevel::kWarning},
                        Case{"error", LogLevel::kError},
                        Case{"fatal", LogLevel::kFatal}}) {
    auto level = LogLevelFromString(c.name);
    ASSERT_TRUE(level.ok()) << c.name;
    EXPECT_EQ(*level, c.level) << c.name;
  }
}

TEST(LoggingTest, LogLevelFromStringIsCaseInsensitive) {
  auto level = LogLevelFromString("WARNING");
  ASSERT_TRUE(level.ok());
  EXPECT_EQ(*level, LogLevel::kWarning);
  level = LogLevelFromString("Debug");
  ASSERT_TRUE(level.ok());
  EXPECT_EQ(*level, LogLevel::kDebug);
}

TEST(LoggingTest, LogLevelFromStringRejectsUnknown) {
  EXPECT_TRUE(LogLevelFromString("verbose").status().IsInvalidArgument());
  EXPECT_TRUE(LogLevelFromString("").status().IsInvalidArgument());
}

}  // namespace
}  // namespace deco
