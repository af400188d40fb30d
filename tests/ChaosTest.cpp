//===-- tests/ChaosTest.cpp - fault-injection / degradation tests -------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The chaos suite (DESIGN.md §9): experiment grids executed under the
// full fault schedule must complete deterministically with every fault
// class firing, every decision must respect the binding clamp, a failing
// run must be retried or recorded as a cell failure without poisoning
// its plan, and corrupted expert files must be rejected at load time.
// Input sanitizing has its own tests in PolicyTest and SimTest. Runs
// under the `chaos` ctest label (`make chaos`).
//
//===----------------------------------------------------------------------===//

#include "core/ExpertIo.h"
#include "exp/Driver.h"
#include "exp/PolicySet.h"
#include "sim/FaultInjector.h"
#include "support/FaultStats.h"
#include "support/Fnv.h"

#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>

using namespace medley;
using namespace medley::exp;

//===----------------------------------------------------------------------===//
// Expert-file corruption (fault class 5)
//===----------------------------------------------------------------------===//

namespace {

/// Serialised form of a small trained expert set.
std::string expertFileText() {
  std::ostringstream OS;
  EXPECT_TRUE(
      core::writeExperts(OS, *PolicySet::instance().experts(2)));
  return OS.str();
}

/// Rewrites a v2 (checksummed) serialisation as a legacy v1 file so the
/// parse-level validation runs; on v2 files any mutation trips the
/// checksum first (covered by ExpertIoTest).
std::string stripToLegacyV1(const std::string &Text) {
  size_t HeaderEnd = Text.find('\n');
  EXPECT_NE(HeaderEnd, std::string::npos);
  size_t ChecksumEnd = Text.find('\n', HeaderEnd + 1);
  EXPECT_NE(ChecksumEnd, std::string::npos);
  return "medley-experts 1\n" + Text.substr(ChecksumEnd + 1);
}

std::string writeTempFile(const std::string &Name, const std::string &Text) {
  std::string Path = ::testing::TempDir() + Name;
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS << Text;
  return Path;
}

} // namespace

TEST(ExpertFileChaosTest, CleanFileRoundTrips) {
  std::string Path = writeTempFile("medley_clean_experts.txt",
                                   expertFileText());
  support::Error Err;
  auto Loaded = core::loadExpertsFromFile(Path, &Err);
  ASSERT_TRUE(Loaded.has_value()) << Err.str();
  EXPECT_FALSE(Err);
  EXPECT_EQ(Loaded->size(), 2u);
}

TEST(ExpertFileChaosTest, TruncatedFileIsRejected) {
  std::string Text = stripToLegacyV1(expertFileText());
  std::string Path = writeTempFile("medley_truncated_experts.txt",
                                   Text.substr(0, Text.size() / 2));
  support::Error Err;
  EXPECT_FALSE(core::loadExpertsFromFile(Path, &Err).has_value());
  EXPECT_TRUE(Err);
  EXPECT_EQ(Err.code(), support::ErrorCode::TruncatedInput);
  EXPECT_FALSE(Err.message().empty());
}

TEST(ExpertFileChaosTest, BadMagicIsRejected) {
  std::string Path = writeTempFile("medley_magic_experts.txt",
                                   "bogus-format 1\nexperts 2 features 10\n");
  support::Error Err;
  EXPECT_FALSE(core::loadExpertsFromFile(Path, &Err).has_value());
  EXPECT_TRUE(Err);
  EXPECT_NE(Err.message().find("magic"), std::string::npos) << Err.str();
}

TEST(ExpertFileChaosTest, WrongDimensionIsRejected) {
  std::string Text = stripToLegacyV1(expertFileText());
  size_t Pos = Text.find("features 10");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, 11, "features 99");
  std::string Path = writeTempFile("medley_dims_experts.txt", Text);
  support::Error Err;
  EXPECT_FALSE(core::loadExpertsFromFile(Path, &Err).has_value());
  EXPECT_EQ(Err.code(), support::ErrorCode::CorruptInput);
  EXPECT_NE(Err.message().find("99"), std::string::npos) << Err.str();
}

TEST(ExpertFileChaosTest, MissingFileReportsIoFailure) {
  support::Error Err;
  EXPECT_FALSE(core::loadExpertsFromFile(
                   ::testing::TempDir() + "medley_does_not_exist.txt", &Err)
                   .has_value());
  EXPECT_EQ(Err.code(), support::ErrorCode::IoFailure);
}

TEST(ExpertFileChaosTest, CorruptFileHelperForcesRejection) {
  std::string Text = expertFileText();
  unsigned Rejected = 0;
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    std::string Path = writeTempFile(
        "medley_corrupt_experts_" + std::to_string(Seed) + ".txt", Text);
    ASSERT_TRUE(sim::FaultInjector::corruptFile(Path, Seed));
    support::Error Err;
    if (!core::loadExpertsFromFile(Path, &Err).has_value()) {
      ++Rejected;
      EXPECT_TRUE(Err);
      EXPECT_FALSE(Err.message().empty());
    }
  }
  // Deterministic corruption: most mutations must be caught by the
  // validating loader (a rare one may land in a description line).
  EXPECT_GE(Rejected, 4u);
}

//===----------------------------------------------------------------------===//
// Driver cell isolation (rung 3)
//===----------------------------------------------------------------------===//

namespace {

/// Throws on every decision — a policy whose model is unusable.
class ExplodingPolicy : public policy::ThreadPolicy {
public:
  unsigned select(const policy::FeatureVector &) override {
    throw std::runtime_error("model exploded");
  }
  void reset() override {}
  const std::string &name() const override {
    static const std::string N = "exploding";
    return N;
  }
};

/// Throws until reset() (the driver's retry path) disarms it.
class FlakyPolicy : public policy::ThreadPolicy {
public:
  unsigned select(const policy::FeatureVector &Features) override {
    if (Armed)
      throw std::runtime_error("transient fault");
    return std::max(1u, Features.MaxThreads / 2);
  }
  void reset() override { Armed = false; }
  const std::string &name() const override {
    static const std::string N = "flaky";
    return N;
  }

private:
  bool Armed = true;
};

DriverOptions chaosDriverOptions(unsigned Jobs, uint64_t Seed) {
  DriverOptions Options;
  Options.Repeats = 2;
  Options.Jobs = Jobs;
  Options.Seed = Seed;
  return Options;
}

} // namespace

TEST(CellIsolationTest, ExplodingPolicyBecomesCellFailure) {
  DriverOptions Options = chaosDriverOptions(2, 0xC4A05);
  Driver D(Options);
  Scenario S = Scenario::isolatedStatic();

  policy::PolicyFactory Exploding = [] {
    return std::make_unique<ExplodingPolicy>();
  };
  Measurement M = D.measure("cg", Exploding, S, nullptr);

  ASSERT_EQ(M.Failures.size(), Options.Repeats);
  for (const CellFailure &F : M.Failures) {
    EXPECT_EQ(F.Attempts, 1 + Options.CellRetries);
    EXPECT_NE(F.Error.find("model exploded"), std::string::npos);
  }
  EXPECT_EQ(M.Faults.CellFailures, Options.Repeats);
  // Failed repeats carry the MaxTime penalty, keeping the reduction
  // arithmetic deterministic.
  EXPECT_DOUBLE_EQ(M.MeanTargetTime, Options.MaxTime);
}

TEST(CellIsolationTest, FailingCellDoesNotPoisonThePlan) {
  DriverOptions Options = chaosDriverOptions(2, 0xC4A06);
  Driver D(Options);
  Scenario S = Scenario::isolatedStatic();

  policy::PolicyFactory Exploding = [] {
    return std::make_unique<ExplodingPolicy>();
  };
  policy::PolicyFactory Healthy = PolicySet::instance().factory("online");

  CellSpec Bad;
  Bad.Target = "cg";
  Bad.Factory = &Exploding;
  Bad.Scen = &S;
  CellSpec Good = Bad;
  Good.Factory = &Healthy;

  auto Results = D.measureCells({Bad, Good});
  EXPECT_FALSE(Results[0]->Failures.empty());
  EXPECT_TRUE(Results[1]->Failures.empty());
  EXPECT_GT(Results[1]->MeanTargetTime, 0.0);
  EXPECT_LT(Results[1]->MeanTargetTime, Options.MaxTime);
}

TEST(CellIsolationTest, TransientFaultIsRetriedToSuccess) {
  DriverOptions Options = chaosDriverOptions(1, 0xC4A07);
  Driver D(Options);
  Scenario S = Scenario::isolatedStatic();

  policy::PolicyFactory Flaky = [] {
    return std::make_unique<FlakyPolicy>();
  };
  Measurement M = D.measure("cg", Flaky, S, nullptr);

  EXPECT_TRUE(M.Failures.empty());
  EXPECT_EQ(M.Faults.CellRetries, Options.Repeats); // One retry per repeat.
  EXPECT_LT(M.MeanTargetTime, Options.MaxTime);
}

//===----------------------------------------------------------------------===//
// Chaos grids end to end
//===----------------------------------------------------------------------===//

namespace {

Measurement runChaosCell(unsigned Jobs, uint64_t Seed) {
  DriverOptions Options = chaosDriverOptions(Jobs, Seed);
  Options.Faults = sim::FaultPlan::chaosSchedule(Options.MaxTime);
  Driver D(Options);
  D.clearCache();
  Scenario S = Scenario::smallLow();
  const workload::WorkloadSet &Set = S.workloadSets()[0];
  policy::PolicyFactory Mixture =
      PolicySet::instance().mixtureFactory(4, "regime");
  return D.measure("cg", Mixture, S, &Set);
}

} // namespace

TEST(ChaosGridTest, GridCompletesUnderFullFaultSchedule) {
  Measurement M = runChaosCell(2, 0xC4A0);

  ASSERT_EQ(M.Runs.size(), 2u);
  EXPECT_GT(M.MeanTargetTime, 0.0);
  // Every fault class must actually have fired.
  EXPECT_GT(M.Faults.SensorDropouts, 0u);
  EXPECT_GT(M.Faults.SensorCorruptions, 0u);
  EXPECT_GT(M.Faults.UnplugOverrides, 0u);
  EXPECT_GT(M.Faults.StaleTicks, 0u);
}

TEST(ChaosGridTest, DecisionsRespectTheAvailabilityClamp) {
  Measurement M = runChaosCell(2, 0xC4A1);
  size_t Decisions = 0;
  for (const runtime::CoExecutionResult &Run : M.Runs)
    for (const runtime::Decision &D : Run.TargetDecisions) {
      ++Decisions;
      ASSERT_GE(D.Threads, 1u);
      ASSERT_LE(D.Threads, D.AvailableProcessors);
    }
  EXPECT_GT(Decisions, 0u);
}

TEST(ChaosGridTest, ChaosRunsAreBitIdenticalAcrossJobs) {
  Measurement Sequential = runChaosCell(1, 0xC4A2);
  Measurement Pooled = runChaosCell(4, 0xC4A2);

  EXPECT_EQ(Sequential.MeanTargetTime, Pooled.MeanTargetTime);
  EXPECT_EQ(Sequential.MeanWorkloadThroughput,
            Pooled.MeanWorkloadThroughput);
  ASSERT_EQ(Sequential.Runs.size(), Pooled.Runs.size());
  for (size_t R = 0; R < Sequential.Runs.size(); ++R) {
    const runtime::CoExecutionResult &A = Sequential.Runs[R];
    const runtime::CoExecutionResult &B = Pooled.Runs[R];
    EXPECT_EQ(A.TargetTime, B.TargetTime);
    EXPECT_EQ(A.WorkloadThroughput, B.WorkloadThroughput);
    ASSERT_EQ(A.TargetDecisions.size(), B.TargetDecisions.size());
    for (size_t I = 0; I < A.TargetDecisions.size(); ++I)
      EXPECT_EQ(A.TargetDecisions[I].Threads, B.TargetDecisions[I].Threads);
  }
}

TEST(ChaosGridTest, ChaosOutputsArePinned) {
  // One chaos cell digested bit for bit: every run's target time,
  // throughput and region count, every decision's time, thread count,
  // available processors and clamp flag, and the fault counters. Any
  // change to chaosSchedule, the injector's streams, the sanitizers, the
  // binding clamp or the mixture moves it.
  Measurement M = runChaosCell(1, 0xC4A4);
  uint64_t Hash = support::fnv1aInit();
  auto FoldDouble = [&Hash](double V) {
    Hash = support::fnv1aWord(Hash, std::bit_cast<uint64_t>(V));
  };
  for (const runtime::CoExecutionResult &Run : M.Runs) {
    FoldDouble(Run.TargetTime);
    FoldDouble(Run.WorkloadThroughput);
    Hash = support::fnv1aWord(Hash, Run.TargetRegions);
    for (const runtime::Decision &D : Run.TargetDecisions) {
      FoldDouble(D.Time);
      Hash = support::fnv1aWord(Hash, D.Threads);
      Hash = support::fnv1aWord(Hash, D.AvailableProcessors);
      Hash = support::fnv1aWord(Hash, D.Clamped);
    }
  }
  const support::FaultStats &F = M.Faults;
  for (uint64_t N : {F.SensorDropouts, F.SensorCorruptions, F.UnplugOverrides,
                     F.StaleTicks, F.CellRetries, F.CellFailures})
    Hash = support::fnv1aWord(Hash, N);
  EXPECT_EQ(Hash, 0x9f6617dc4f79af30ULL);
}

TEST(ChaosGridTest, FaultFreeMixtureCellIsClean) {
  // Without a fault plan the mixture's cell must stay sane: no fault
  // counter ticks and no run fails.
  DriverOptions Options = chaosDriverOptions(2, 0xC4A3);
  Driver D(Options);
  Scenario S = Scenario::isolatedStatic();
  policy::PolicyFactory Mixture =
      PolicySet::instance().mixtureFactory(4, "regime");
  Measurement M = D.measure("cg", Mixture, S, nullptr);
  EXPECT_TRUE(M.Failures.empty());
  EXPECT_GT(M.MeanTargetTime, 0.0);
  EXPECT_LT(M.MeanTargetTime, Options.MaxTime);
  EXPECT_EQ(M.Faults.SensorDropouts, 0u);
  EXPECT_EQ(M.Faults.SensorCorruptions, 0u);
  EXPECT_EQ(M.Faults.UnplugOverrides, 0u);
  EXPECT_EQ(M.Faults.StaleTicks, 0u);
  EXPECT_EQ(M.Faults.CellFailures, 0u);
}
