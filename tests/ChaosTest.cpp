//===-- tests/ChaosTest.cpp - fault-injection / degradation tests -------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The chaos suite (DESIGN.md §9): experiment grids executed under the
// full fault schedule must complete deterministically, the degradation
// ladder must engage rung by rung (sanitize -> quarantine -> default-
// policy fallback -> binding clamp -> cell retry), and corrupted expert
// files must be rejected at load time. Runs under the `chaos` ctest
// label (`make chaos`).
//
//===----------------------------------------------------------------------===//

#include "core/ExpertIo.h"
#include "core/MixtureOfExperts.h"
#include "exp/Driver.h"
#include "exp/PolicySet.h"
#include "policy/DefaultPolicy.h"
#include "sim/FaultInjector.h"
#include "support/FaultStats.h"
#include "support/Fnv.h"
#include "trace/Columnar.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

using namespace medley;
using namespace medley::exp;

namespace {

/// Builds a feature vector directly (bypassing a simulation).
policy::FeatureVector makeFeatures(double Processors, unsigned MaxThreads = 32) {
  policy::FeatureVector F;
  F.Values = {0.3, 0.4, 0.1, 4.0, Processors, 6.0, 6.0, 6.0, 0.9, 0.01};
  F.EnvNorm = 1.0;
  F.MaxThreads = MaxThreads;
  return F;
}

core::QuarantineOptions fastQuarantine() {
  core::QuarantineOptions Q;
  Q.DivergenceFactor = 2.0;
  Q.AbsoluteErrorFloor = 0.1;
  Q.Strikes = 2;
  Q.BackoffUpdates = 3;
  Q.MaxBackoffUpdates = 12;
  return Q;
}

} // namespace

//===----------------------------------------------------------------------===//
// QuarantineSelector (degradation-ladder rung 2)
//===----------------------------------------------------------------------===//

TEST(QuarantineTest, DivergingExpertIsQuarantinedAndRedirected) {
  support::FaultStats Stats;
  core::QuarantineSelector Selector(
      std::make_unique<core::FixedSelector>(3, 0), fastQuarantine(), &Stats);

  Vec F = makeFeatures(16).Values;
  // Expert 0 diverges wildly; 1 and 2 track the environment.
  Selector.update(F, {10.0, 0.05, 0.08});
  EXPECT_FALSE(Selector.isQuarantined(0));
  Selector.update(F, {10.0, 0.05, 0.08});
  EXPECT_TRUE(Selector.isQuarantined(0));
  EXPECT_EQ(Stats.Quarantines, 1u);
  EXPECT_EQ(Selector.healthyCount(), 2u);

  // The inner FixedSelector keeps asking for 0; the decorator must
  // redirect to a healthy expert.
  size_t Chosen = Selector.select(F);
  EXPECT_NE(Chosen, 0u);
  EXPECT_LT(Chosen, 3u);
}

TEST(QuarantineTest, TimedReadmissionWithExponentialBackoff) {
  support::FaultStats Stats;
  core::QuarantineSelector Selector(
      std::make_unique<core::FixedSelector>(3, 0), fastQuarantine(), &Stats);

  Vec F = makeFeatures(16).Values;
  Selector.update(F, {10.0, 0.05, 0.08});
  Selector.update(F, {10.0, 0.05, 0.08});
  ASSERT_TRUE(Selector.isQuarantined(0));

  // BackoffUpdates = 3: after three clean updates the expert returns.
  for (int I = 0; I < 3; ++I)
    Selector.update(F, {0.05, 0.05, 0.08});
  EXPECT_FALSE(Selector.isQuarantined(0));
  EXPECT_EQ(Stats.Readmissions, 1u);

  // Relapse: the sentence doubles, so three clean updates are no longer
  // enough.
  Selector.update(F, {10.0, 0.05, 0.08});
  Selector.update(F, {10.0, 0.05, 0.08});
  ASSERT_TRUE(Selector.isQuarantined(0));
  for (int I = 0; I < 3; ++I)
    Selector.update(F, {0.05, 0.05, 0.08});
  EXPECT_TRUE(Selector.isQuarantined(0));
  for (int I = 0; I < 3; ++I)
    Selector.update(F, {0.05, 0.05, 0.08});
  EXPECT_FALSE(Selector.isQuarantined(0));
}

TEST(QuarantineTest, WhollyNonFiniteUpdateQuarantinesEveryone) {
  core::QuarantineOptions Q = fastQuarantine();
  Q.Strikes = 1;
  core::QuarantineSelector Selector(
      std::make_unique<core::FixedSelector>(3, 0), Q);

  Vec F = makeFeatures(16).Values;
  double NaN = std::nan("");
  Selector.update(F, {NaN, NaN, NaN});
  EXPECT_TRUE(Selector.allQuarantined());
  EXPECT_EQ(Selector.healthyCount(), 0u);
  // With nobody healthy the selector still answers in range.
  EXPECT_LT(Selector.select(F), 3u);
}

TEST(QuarantineTest, HealthySelectorsPassThrough) {
  core::QuarantineSelector Selector(
      std::make_unique<core::FixedSelector>(3, 1), fastQuarantine());
  Vec F = makeFeatures(16).Values;
  EXPECT_EQ(Selector.select(F), 1u);
  EXPECT_FALSE(Selector.allQuarantined());
  EXPECT_EQ(Selector.healthyCount(), 3u);
  EXPECT_EQ(Selector.name(), "quarantine:fixed");
}

TEST(QuarantineTest, CloneAndResetStartFresh) {
  core::QuarantineSelector Selector(
      std::make_unique<core::FixedSelector>(3, 0), fastQuarantine());
  Vec F = makeFeatures(16).Values;
  Selector.update(F, {10.0, 0.05, 0.08});
  Selector.update(F, {10.0, 0.05, 0.08});
  ASSERT_TRUE(Selector.isQuarantined(0));

  std::unique_ptr<core::ExpertSelector> Clone = Selector.clone();
  EXPECT_FALSE(Clone->isQuarantined(0));

  Selector.reset();
  EXPECT_FALSE(Selector.isQuarantined(0));
  EXPECT_EQ(Selector.healthyCount(), 3u);
}

//===----------------------------------------------------------------------===//
// MixtureOfExperts default-policy fallback (rung 3)
//===----------------------------------------------------------------------===//

namespace {

/// Selector stub reporting every expert as quarantined.
class AllQuarantinedSelector : public core::ExpertSelector {
public:
  explicit AllQuarantinedSelector(size_t NumExperts)
      : core::ExpertSelector(NumExperts) {}
  size_t select(const Vec &) override { return 0; }
  void update(const Vec &, const Vec &) override { ++Updates; }
  void reset() override {}
  std::unique_ptr<core::ExpertSelector> clone() const override {
    return std::make_unique<AllQuarantinedSelector>(NumExperts);
  }
  const std::string &name() const override {
    static const std::string N = "all-quarantined";
    return N;
  }
  bool isQuarantined(size_t) const override { return true; }
  bool allQuarantined() const override { return true; }

  size_t Updates = 0;
};

} // namespace

TEST(MixtureFallbackTest, AllQuarantinedMatchesDefaultPolicy) {
  PolicySet &Policies = PolicySet::instance();
  auto Experts = Policies.experts(2);

  support::FaultStats Stats;
  core::MixtureOptions Options;
  Options.Faults = &Stats;
  core::MixtureOfExperts Mixture(
      Experts, std::make_unique<AllQuarantinedSelector>(Experts->size()),
      nullptr, Options);
  policy::DefaultPolicy Default;

  for (double Processors : {1.0, 5.0, 17.0, 32.0}) {
    policy::FeatureVector F = makeFeatures(Processors);
    EXPECT_EQ(Mixture.select(F), Default.select(F))
        << "processors = " << Processors;
  }
  EXPECT_EQ(Stats.DefaultFallbacks, 4u);
}

TEST(MixtureFallbackTest, JudgingContinuesUnderFallback) {
  // Pending environment predictions must still be stashed during the
  // fallback, so selector updates keep flowing and quarantined experts
  // can earn re-admission.
  PolicySet &Policies = PolicySet::instance();
  auto Experts = Policies.experts(2);
  auto Selector = std::make_unique<AllQuarantinedSelector>(Experts->size());
  AllQuarantinedSelector *Raw = Selector.get();
  core::MixtureOfExperts Mixture(Experts, std::move(Selector));

  policy::FeatureVector F = makeFeatures(16.0);
  Mixture.select(F);
  EXPECT_EQ(Raw->Updates, 0u); // Nothing pending on the first decision.
  Mixture.select(F);
  EXPECT_EQ(Raw->Updates, 1u); // The fallback decision was judged.
}

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
// Driver cell isolation (rung 5)
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
  policy::PolicyFactory Hardened =
      PolicySet::instance().hardenedMixtureFactory(4, "regime");
  return D.measure("cg", Hardened, S, &Set);
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
  // available processors and clamp flag, and the fault counters. The
  // constant was computed before the expert lifecycle's fault classes left
  // FaultPlan; any change to chaosSchedule, the injector's streams, the
  // quarantine ladder or the mixture moves it.
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
                     F.StaleTicks, F.SanitizedValues, F.Quarantines,
                     F.Readmissions, F.DefaultFallbacks, F.ClampedPredictions,
                     F.CellRetries, F.CellFailures})
    Hash = support::fnv1aWord(Hash, N);
  EXPECT_EQ(Hash, 0x3c6aa712444a0d30ULL);
}

TEST(ChaosGridTest, FaultFreeHardenedMixtureMatchesPlainCosts) {
  // Without faults the hardened mixture may quarantine rarely, but the
  // measurement must stay sane and comparable to the plain mixture's.
  DriverOptions Options = chaosDriverOptions(2, 0xC4A3);
  Driver D(Options);
  Scenario S = Scenario::isolatedStatic();
  policy::PolicyFactory Hardened =
      PolicySet::instance().hardenedMixtureFactory(4, "regime");
  Measurement M = D.measure("cg", Hardened, S, nullptr);
  EXPECT_TRUE(M.Failures.empty());
  EXPECT_GT(M.MeanTargetTime, 0.0);
  EXPECT_LT(M.MeanTargetTime, Options.MaxTime);
  // No injector configured: the only counters that may tick are the
  // degradation rungs, never the injection ones.
  EXPECT_EQ(M.Faults.SensorDropouts, 0u);
  EXPECT_EQ(M.Faults.SensorCorruptions, 0u);
  EXPECT_EQ(M.Faults.UnplugOverrides, 0u);
  EXPECT_EQ(M.Faults.StaleTicks, 0u);
  EXPECT_EQ(M.Faults.CellFailures, 0u);
}

//===----------------------------------------------------------------------===//
// Columnar trace corruption (the trace reader's degradation contract)
//===----------------------------------------------------------------------===//

namespace {

/// A small columnar trace serialised to bytes.
std::string chaosTraceBytes() {
  trace::TickTrace T;
  for (unsigned I = 0; I < 8; ++I) {
    trace::TracePoint P;
    P.Time = 0.1 * (I + 1);
    P.AvailableCores = 32 - I;
    P.WorkloadThreads = I * 2;
    P.TargetThreads = I + 1;
    P.EnvNorm = 1.0 + 0.125 * I;
    T.append(P);
  }
  std::ostringstream OS(std::ios::binary);
  support::Error E = trace::ColumnarWriter::write(T, OS);
  EXPECT_FALSE(E) << E.str();
  return OS.str();
}

} // namespace

TEST(ChaosTraceTest, EveryTruncationFailsWithTaxonomyError) {
  // Cutting the file at any byte must produce a clean taxonomy error —
  // never a crash, never a silently short trace.
  std::string Full = chaosTraceBytes();
  for (size_t Cut = 0; Cut < Full.size(); ++Cut) {
    std::istringstream IS(Full.substr(0, Cut), std::ios::binary);
    trace::TickTrace Out;
    support::Error Err;
    ASSERT_FALSE(trace::ColumnarReader::read(IS, Out, &Err))
        << "read succeeded at cut " << Cut;
    ASSERT_TRUE(Err.code() == support::ErrorCode::TruncatedInput ||
                Err.code() == support::ErrorCode::CorruptInput)
        << "cut " << Cut << " gave " << Err.str();
  }
}

TEST(ChaosTraceTest, HeaderBitFlipsFailAsCorruptInput) {
  // Every load-bearing header/descriptor byte, flipped, must be caught by
  // a structural check. Bytes 24-31 are the reserved field, which readers
  // ignore by design.
  std::string Full = chaosTraceBytes();
  constexpr size_t DescriptorEnd = 32 + 5 * 48;
  for (size_t B = 0; B < DescriptorEnd; ++B) {
    if (B >= 24 && B < 32)
      continue;
    std::string Flipped = Full;
    Flipped[B] = static_cast<char>(Flipped[B] ^ 0x2A);
    std::istringstream IS(Flipped, std::ios::binary);
    trace::TickTrace Out;
    support::Error Err;
    ASSERT_FALSE(trace::ColumnarReader::read(IS, Out, &Err))
        << "read succeeded with byte " << B << " flipped";
    ASSERT_TRUE(Err.code() == support::ErrorCode::CorruptInput ||
                Err.code() == support::ErrorCode::TruncatedInput)
        << "byte " << B << " gave " << Err.str();
  }
}
