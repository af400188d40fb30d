//===-- tests/SupportTest.cpp - support library tests -------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Csv.h"
#include "support/Error.h"
#include "support/FaultStats.h"
#include "support/Fnv.h"
#include "support/Histogram.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace medley;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I < 16 && !AnyDifferent; ++I)
    AnyDifferent = A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double X = R.uniform();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double X = R.uniform(-3.5, 2.5);
    EXPECT_GE(X, -3.5);
    EXPECT_LT(X, 2.5);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t X = R.uniformInt(1, 6);
    EXPECT_GE(X, 1);
    EXPECT_LE(X, 6);
    SawLo |= X == 1;
    SawHi |= X == 6;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, UniformIntSingleton) {
  Rng R(11);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(R.uniformInt(5, 5), 5);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng R(13);
  RunningStat Stat;
  for (int I = 0; I < 20000; ++I)
    Stat.add(R.normal(10.0, 2.0));
  EXPECT_NEAR(Stat.mean(), 10.0, 0.1);
  EXPECT_NEAR(Stat.stddev(), 2.0, 0.1);
}

TEST(RngTest, BernoulliProbability) {
  Rng R(17);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += R.bernoulli(0.3);
  EXPECT_NEAR(Hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng R(19);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Original = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Original);
}

TEST(RngTest, PickReturnsElement) {
  Rng R(23);
  std::vector<int> V = {10, 20, 30};
  for (int I = 0; I < 50; ++I) {
    int X = R.pick(V);
    EXPECT_TRUE(X == 10 || X == 20 || X == 30);
  }
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng A(31);
  Rng B = A.split();
  // The split stream should not just mirror the parent.
  bool AnyDifferent = false;
  for (int I = 0; I < 16 && !AnyDifferent; ++I)
    AnyDifferent = A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

//===----------------------------------------------------------------------===//
// FNV-1a
//===----------------------------------------------------------------------===//

TEST(FnvTest, WordFoldsLowByteFirst) {
  // The fleet checksums fold 64-bit words low byte first, on any host
  // byte order.
  const unsigned char Bytes[] = {0x08, 0x07, 0x06, 0x05,
                                 0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(support::fnv1aWord(support::fnv1aInit(), 0x0102030405060708ULL),
            support::fnv1aBytes(Bytes, sizeof(Bytes)));
  EXPECT_NE(support::fnv1aWord(support::fnv1aInit(), 1),
            support::fnv1aWord(support::fnv1aInit(), 1ULL << 56));
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(StatisticsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatisticsTest, HarmonicMeanBasics) {
  EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
  EXPECT_DOUBLE_EQ(harmonicMean({2.0, 2.0}), 2.0);
  EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
}

TEST(StatisticsTest, GeometricMeanBasics) {
  EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(geometricMean({3.0}), 3.0, 1e-12);
}

TEST(StatisticsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(StatisticsTest, StddevKnownValue) {
  // Sample stddev of {2, 4, 4, 4, 5, 5, 7, 9} is ~2.138.
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.13809, 1e-4);
  EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(StatisticsTest, MinMax) {
  EXPECT_DOUBLE_EQ(minOf({3.0, -1.0, 2.0}), -1.0);
  EXPECT_DOUBLE_EQ(maxOf({3.0, -1.0, 2.0}), 3.0);
}

/// Property: for positive data, hmean <= gmean <= mean.
class MeanInequalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MeanInequalityTest, HarmonicLeqGeometricLeqArithmetic) {
  Rng R(GetParam());
  std::vector<double> V;
  for (int I = 0; I < 50; ++I)
    V.push_back(R.uniform(0.1, 100.0));
  double H = harmonicMean(V), G = geometricMean(V), A = mean(V);
  EXPECT_LE(H, G + 1e-9);
  EXPECT_LE(G, A + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeanInequalityTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(RunningStatTest, MatchesBatchStatistics) {
  std::vector<double> V = {1.5, 2.5, 3.5, 10.0, -4.0};
  RunningStat Stat;
  for (double X : V)
    Stat.add(X);
  EXPECT_EQ(Stat.count(), V.size());
  EXPECT_NEAR(Stat.mean(), mean(V), 1e-12);
  EXPECT_NEAR(Stat.stddev(), stddev(V), 1e-12);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat Stat;
  EXPECT_EQ(Stat.count(), 0u);
  EXPECT_DOUBLE_EQ(Stat.mean(), 0.0);
  EXPECT_DOUBLE_EQ(Stat.variance(), 0.0);
}

TEST(EmaTest, PrimesOnFirstSample) {
  Ema E(60.0);
  EXPECT_FALSE(E.primed());
  E.update(5.0, 1.0);
  EXPECT_TRUE(E.primed());
  EXPECT_DOUBLE_EQ(E.value(), 5.0);
}

TEST(EmaTest, ConvergesTowardConstantInput) {
  Ema E(10.0);
  E.update(0.0, 1.0);
  for (int I = 0; I < 100; ++I)
    E.update(8.0, 1.0);
  EXPECT_NEAR(E.value(), 8.0, 0.01);
}

TEST(EmaTest, TimeConstantControlsSpeed) {
  Ema Fast(5.0), Slow(100.0);
  Fast.update(0.0, 1.0);
  Slow.update(0.0, 1.0);
  for (int I = 0; I < 10; ++I) {
    Fast.update(10.0, 1.0);
    Slow.update(10.0, 1.0);
  }
  EXPECT_GT(Fast.value(), Slow.value());
}

TEST(EmaTest, ResetClearsState) {
  Ema E(10.0);
  E.update(3.0, 1.0);
  E.reset();
  EXPECT_FALSE(E.primed());
  EXPECT_DOUBLE_EQ(E.value(), 0.0);
}

//===----------------------------------------------------------------------===//
// StringUtils / Table / Csv
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
  EXPECT_EQ(formatDouble(-1.5, 1), "-1.5");
}

TEST(StringUtilsTest, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcdef", 4), "abcdef");
  EXPECT_EQ(padRight("abcdef", 4), "abcdef");
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilsTest, AsciiBar) {
  EXPECT_EQ(asciiBar(2.0, 3.0), "######");
  EXPECT_EQ(asciiBar(0.0, 3.0), "");
  EXPECT_EQ(asciiBar(-1.0, 3.0), "");
  EXPECT_EQ(asciiBar(100.0, 3.0, 5).size(), 5u);
}

TEST(StringUtilsTest, ParseUnsignedTakesWholeDecimalOrHex) {
  EXPECT_EQ(parseUnsigned("0"), 0u);
  EXPECT_EQ(parseUnsigned("42"), 42u);
  EXPECT_EQ(parseUnsigned("0xF1EE7"), 0xF1EE7u);
  EXPECT_EQ(parseUnsigned("0XaB"), 0xABu);
  // Seeds keep all 64 bits.
  EXPECT_EQ(parseUnsigned("18446744073709551615"),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(parseUnsigned("0xFFFFFFFFFFFFFFFF"),
            std::numeric_limits<uint64_t>::max());
  for (const char *Bad :
       {"", "abc", "4x", "12abc", "1e3", " 4", "4 ", "+4", "-1", "--2", "0x",
        "0x-1", "0xG", "18446744073709551616", "0x10000000000000000"})
    EXPECT_FALSE(parseUnsigned(Bad).has_value()) << "'" << Bad << "'";
}

TEST(StringUtilsTest, ParseUnsignedChecksRange) {
  EXPECT_FALSE(parseUnsigned("0", 1).has_value());
  EXPECT_EQ(parseUnsigned("1", 1), 1u);
  EXPECT_EQ(parseUnsigned("1024", 0, 1024), 1024u);
  EXPECT_FALSE(parseUnsigned("1025", 0, 1024).has_value());
  // A negative --jobs must not wrap to a huge worker count.
  EXPECT_FALSE(parseUnsigned("-1", 0, 1024).has_value());
  EXPECT_FALSE(parseUnsigned("4294967295", 0, 1024).has_value());
}

TEST(StringUtilsTest, ParseDoubleTakesWholeFiniteNumbers) {
  EXPECT_EQ(parseDouble("0.5"), 0.5);
  EXPECT_EQ(parseDouble("-2"), -2.0);
  EXPECT_EQ(parseDouble("1e3"), 1000.0);
  for (const char *Bad :
       {"", "abc", "1.5x", " 1", "1 ", "+1", "inf", "-inf", "nan", "1e999"})
    EXPECT_FALSE(parseDouble(Bad).has_value()) << "'" << Bad << "'";
}

TEST(StringUtilsTest, ParseDoubleChecksRange) {
  EXPECT_EQ(parseDouble("0", 0.0, 1.0), 0.0);
  EXPECT_EQ(parseDouble("1", 0.0, 1.0), 1.0);
  EXPECT_FALSE(parseDouble("1.5", 0.0, 1.0).has_value());
  EXPECT_FALSE(parseDouble("-1e-9", 0.0, 1.0).has_value());
  // The CLI's --period floor is the simulator tick: the tick itself passes.
  EXPECT_EQ(parseDouble("0.1", 0.1), 0.1);
  EXPECT_FALSE(parseDouble("1e-9", 0.1).has_value());
}

TEST(TableTest, AlignsColumnsAndPrintsRule) {
  Table T("Title");
  T.addRow({"name", "value"});
  T.addRow();
  T.addCell("x");
  T.addCell(1.5, 1);
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("Title"), std::string::npos);
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("1.5"), std::string::npos);
  EXPECT_NE(Out.find("-----"), std::string::npos);
}

TEST(TableTest, NumericCellHelpers) {
  Table T;
  T.addRow();
  T.addCell(3);
  T.addCell(4u);
  T.addCell(2.25, 2);
  std::ostringstream OS;
  T.print(OS);
  EXPECT_NE(OS.str().find("3"), std::string::npos);
  EXPECT_NE(OS.str().find("2.25"), std::string::npos);
  EXPECT_EQ(T.numRows(), 1u);
}

TEST(CsvTest, PlainRow) {
  std::ostringstream OS;
  CsvWriter W(OS);
  W.writeRow({"a", "b", "c"});
  EXPECT_EQ(OS.str(), "a,b,c\n");
}

TEST(CsvTest, QuotesSpecialCharacters) {
  std::ostringstream OS;
  CsvWriter W(OS);
  W.writeRow({"a,b", "say \"hi\"", "line\nbreak"});
  EXPECT_EQ(OS.str(), "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(CsvTest, LabelledNumericRow) {
  std::ostringstream OS;
  CsvWriter W(OS);
  W.writeRow("series", {1.0, 2.5}, 1);
  EXPECT_EQ(OS.str(), "series,1.0,2.5\n");
}

TEST(CsvTest, BufferedRowsLandOnFlush) {
  std::ostringstream OS;
  {
    CsvWriter W(OS, /*BufferBytes=*/1 << 16);
    W.writeRow({"a", "b"});
    W.writeRow("s", {1.5}, 1);
    // Below the threshold: nothing has reached the stream yet.
    EXPECT_EQ(OS.str(), "");
    W.flush();
    EXPECT_EQ(OS.str(), "a,b\ns,1.5\n");
    W.writeRow({"c"});
  } // Destructor drains the tail.
  EXPECT_EQ(OS.str(), "a,b\ns,1.5\nc\n");
}

TEST(CsvTest, BufferedModeAutoFlushesPastThreshold) {
  std::ostringstream OS;
  CsvWriter W(OS, /*BufferBytes=*/8);
  W.writeRow({"0123456789"}); // One row already exceeds the threshold.
  EXPECT_EQ(OS.str(), "0123456789\n");
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, CountsAndFrequencies) {
  Histogram H;
  H.add(2);
  H.add(2);
  H.add(5);
  EXPECT_EQ(H.total(), 3u);
  EXPECT_EQ(H.count(2), 2u);
  EXPECT_EQ(H.count(5), 1u);
  EXPECT_EQ(H.count(7), 0u);
  EXPECT_NEAR(H.frequency(2), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(H.frequency(9), 0.0);
}

TEST(HistogramTest, MaxMeanMode) {
  Histogram H;
  for (unsigned V : {1u, 3u, 3u, 8u})
    H.add(V);
  EXPECT_EQ(H.maxValue(), 8u);
  EXPECT_EQ(H.mode(), 3u);
  EXPECT_NEAR(H.meanValue(), 15.0 / 4.0, 1e-12);
}

TEST(HistogramTest, EmptyDefaults) {
  Histogram H;
  EXPECT_EQ(H.total(), 0u);
  EXPECT_EQ(H.maxValue(), 0u);
  EXPECT_DOUBLE_EQ(H.meanValue(), 0.0);
  EXPECT_EQ(H.mode(), 0u);
}

TEST(HistogramTest, BucketizeGroupsThreadCounts) {
  Histogram H;
  for (unsigned V : {1u, 4u, 5u, 8u, 9u, 32u, 40u})
    H.add(V);
  // Width-4 buckets over values 1..16: [1-4], [5-8], [9-12], [13-16+].
  std::vector<size_t> B = H.bucketize(4, 16);
  ASSERT_EQ(B.size(), 4u);
  EXPECT_EQ(B[0], 2u); // 1, 4
  EXPECT_EQ(B[1], 2u); // 5, 8
  EXPECT_EQ(B[2], 1u); // 9
  EXPECT_EQ(B[3], 2u); // 32, 40 overflow into the last bucket
}

TEST(HistogramTest, ClearResets) {
  Histogram H;
  H.add(3);
  H.clear();
  EXPECT_EQ(H.total(), 0u);
  EXPECT_EQ(H.count(3), 0u);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  support::ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  std::vector<std::atomic<int>> Seen(1000);
  Pool.parallelFor(Seen.size(), [&](size_t I) { ++Seen[I]; });
  for (size_t I = 0; I < Seen.size(); ++I)
    EXPECT_EQ(Seen[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, SizeOneRunsInlineInOrder) {
  support::ThreadPool Pool(1);
  std::vector<size_t> Order;
  Pool.parallelFor(8, [&](size_t I) { Order.push_back(I); });
  std::vector<size_t> Expected(8);
  std::iota(Expected.begin(), Expected.end(), 0u);
  EXPECT_EQ(Order, Expected);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  support::ThreadPool Pool(4);
  std::atomic<int> Completed{0};
  EXPECT_THROW(Pool.parallelFor(64,
                                [&](size_t I) {
                                  if (I == 17)
                                    throw std::runtime_error("cell failed");
                                  ++Completed;
                                }),
               std::runtime_error);
  // The remaining indices are still drained before the rethrow.
  EXPECT_EQ(Completed.load(), 63);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  support::ThreadPool Pool(2);
  std::atomic<int> Total{0};
  Pool.parallelFor(4, [&](size_t) {
    // Re-entering the pool from a body must not deadlock.
    Pool.parallelFor(4, [&](size_t) { ++Total; });
  });
  EXPECT_EQ(Total.load(), 16);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  std::atomic<bool> Ran{false};
  {
    support::ThreadPool Pool(2);
    Pool.submit([&] { Ran = true; });
    // Destructor drains the queue before joining.
  }
  EXPECT_TRUE(Ran.load());
}

//===----------------------------------------------------------------------===//
// ThreadPool MEDLEY_JOBS hardening
//===----------------------------------------------------------------------===//

namespace {

/// RAII override of MEDLEY_JOBS; restores the previous value on exit.
class ScopedJobsEnv {
public:
  explicit ScopedJobsEnv(const char *Value) {
    const char *Old = std::getenv("MEDLEY_JOBS");
    if (Old) {
      HadOld = true;
      OldValue = Old;
    }
    if (Value)
      setenv("MEDLEY_JOBS", Value, /*overwrite=*/1);
    else
      unsetenv("MEDLEY_JOBS");
  }
  ~ScopedJobsEnv() {
    if (HadOld)
      setenv("MEDLEY_JOBS", OldValue.c_str(), 1);
    else
      unsetenv("MEDLEY_JOBS");
  }

private:
  bool HadOld = false;
  std::string OldValue;
};

/// What defaultJobs must fall back to when MEDLEY_JOBS is unusable.
unsigned hardwareFallback() {
  unsigned Hardware = std::thread::hardware_concurrency();
  return Hardware == 0 ? 1 : Hardware;
}

} // namespace

TEST(ThreadPoolTest, JobsEnvSaneValueIsUsed) {
  ScopedJobsEnv Env("7");
  EXPECT_EQ(support::ThreadPool::defaultJobs(), 7u);
}

TEST(ThreadPoolTest, JobsEnvUnsetFallsBackToHardware) {
  ScopedJobsEnv Env(nullptr);
  EXPECT_EQ(support::ThreadPool::defaultJobs(), hardwareFallback());
}

TEST(ThreadPoolTest, JobsEnvNonNumericFallsBack) {
  for (const char *Bad : {"", "abc", "12abc", "1e3", " 4x", "--2"}) {
    ScopedJobsEnv Env(Bad);
    EXPECT_EQ(support::ThreadPool::defaultJobs(), hardwareFallback())
        << "MEDLEY_JOBS='" << Bad << "'";
  }
}

TEST(ThreadPoolTest, JobsEnvNonPositiveFallsBack) {
  for (const char *Bad : {"0", "-3"}) {
    ScopedJobsEnv Env(Bad);
    EXPECT_EQ(support::ThreadPool::defaultJobs(), hardwareFallback())
        << "MEDLEY_JOBS='" << Bad << "'";
  }
}

TEST(ThreadPoolTest, JobsEnvAbsurdFallsBack) {
  // Above the sanity cap and beyond long's range (strtol ERANGE).
  for (const char *Bad : {"1000000", "999999999999999999999999"}) {
    ScopedJobsEnv Env(Bad);
    EXPECT_EQ(support::ThreadPool::defaultJobs(), hardwareFallback())
        << "MEDLEY_JOBS='" << Bad << "'";
  }
}

//===----------------------------------------------------------------------===//
// Error taxonomy
//===----------------------------------------------------------------------===//

TEST(ErrorTest, DefaultIsSuccess) {
  support::Error E;
  EXPECT_FALSE(E);
  EXPECT_EQ(E.code(), support::ErrorCode::None);
}

TEST(ErrorTest, ReportCarriesCodeAndMessage) {
  support::Error E;
  support::reportError(&E, support::ErrorCode::TruncatedInput,
                       "file ended early");
  EXPECT_TRUE(E);
  EXPECT_EQ(E.code(), support::ErrorCode::TruncatedInput);
  EXPECT_EQ(E.message(), "file ended early");
  EXPECT_EQ(E.str(), "truncated-input: file ended early");
}

TEST(ErrorTest, NullSinkIsIgnored) {
  support::reportError(nullptr, support::ErrorCode::IoFailure, "dropped");
}

TEST(ErrorTest, CodeNamesAreStable) {
  EXPECT_STREQ(support::errorCodeName(support::ErrorCode::None), "none");
  EXPECT_STREQ(support::errorCodeName(support::ErrorCode::CorruptInput),
               "corrupt-input");
  EXPECT_STREQ(support::errorCodeName(support::ErrorCode::NonFiniteValue),
               "non-finite-value");
}

//===----------------------------------------------------------------------===//
// FaultStats
//===----------------------------------------------------------------------===//

TEST(FaultStatsTest, FreshIsClean) {
  support::FaultStats S;
  EXPECT_TRUE(S.clean());
}

TEST(FaultStatsTest, MergeAddsEveryCounter) {
  support::FaultStats A, B;
  A.SensorDropouts = 2;
  A.UnplugOverrides = 1;
  B.SensorDropouts = 3;
  B.SensorCorruptions = 5;
  B.StaleTicks = 6;
  B.CellRetries = 7;
  B.CellFailures = 4;
  A.merge(B);
  EXPECT_EQ(A.SensorDropouts, 5u);
  EXPECT_EQ(A.SensorCorruptions, 5u);
  EXPECT_EQ(A.UnplugOverrides, 1u);
  EXPECT_EQ(A.StaleTicks, 6u);
  EXPECT_EQ(A.CellRetries, 7u);
  EXPECT_EQ(A.CellFailures, 4u);
  EXPECT_FALSE(A.clean());
}
