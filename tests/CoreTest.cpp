//===-- tests/CoreTest.cpp - mixture-of-experts core tests ---------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "core/Expert.h"
#include "core/ExpertBuilder.h"
#include "core/ExpertSelector.h"
#include "core/MixtureOfExperts.h"
#include "core/MoeStats.h"
#include "core/Oracle.h"
#include "support/Fnv.h"
#include "workload/Catalog.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

using namespace medley;
using namespace medley::core;

namespace {

/// Trains a linear model that predicts a constant \p Value over the
/// 10-feature space.
LinearModel constantModel(double Value, const std::string &Name) {
  Dataset Data(policy::featureNames());
  Rng R(11);
  for (int I = 0; I < 60; ++I) {
    Vec X(policy::NumFeatures);
    for (double &V : X)
      V = R.uniform(0, 10);
    Data.add(std::move(X), Value, "g");
  }
  auto Model = trainLinearModel(Data, Name, {1e-3, true, nullptr});
  EXPECT_TRUE(Model.has_value());
  return *Model;
}

Expert makeConstantExpert(const std::string &Name, double Threads,
                          double EnvNorm) {
  return Expert(Name, "test", constantModel(Threads, "w:" + Name),
                constantModel(EnvNorm, "m:" + Name), EnvNorm);
}

policy::FeatureVector makeFeatures(double EnvNorm = 1.0,
                                   double Processors = 32.0,
                                   double RunQueue = 10.0,
                                   unsigned MaxThreads = 32) {
  policy::FeatureVector F;
  F.Values = {0.3, 0.4, 0.1, 5.0, Processors, RunQueue, 8.0, 8.0, 0.9, 0.01};
  F.EnvNorm = EnvNorm;
  F.MaxThreads = MaxThreads;
  return F;
}

FeatureScaler tenDimScaler() { return FeatureScaler::identity(10); }

uint64_t hashDouble(uint64_t Hash, double V) {
  return support::fnv1aWord(Hash, std::bit_cast<uint64_t>(V));
}

/// The bits of \p V, with every NaN as one quiet NaN: IEEE leaves a NaN
/// result's sign and payload unspecified, and the optimiser may flip the
/// sign (-x / y as x / -y), so they differ between build types.
uint64_t valueBits(double V) {
  return std::bit_cast<uint64_t>(
      std::isnan(V) ? std::numeric_limits<double>::quiet_NaN() : V);
}

} // namespace

//===----------------------------------------------------------------------===//
// Expert
//===----------------------------------------------------------------------===//

TEST(ExpertTest, PredictsAndClamps) {
  Expert E = makeConstantExpert("E1", 12.0, 1.5);
  policy::FeatureVector F = makeFeatures();
  EXPECT_EQ(E.predictThreads(F), 12u);
  F.MaxThreads = 8;
  EXPECT_EQ(E.predictThreads(F), 8u);
  EXPECT_NEAR(E.predictEnvNorm(F), 1.5, 0.05);
  EXPECT_EQ(E.name(), "E1");
  EXPECT_DOUBLE_EQ(E.meanTrainingEnv(), 1.5);
}

TEST(ExpertTest, NegativePredictionsClampToOneAndZero) {
  Expert E = makeConstantExpert("low", -5.0, -2.0);
  policy::FeatureVector F = makeFeatures();
  EXPECT_EQ(E.predictThreads(F), 1u);
  EXPECT_GE(E.predictEnvNorm(F), 0.0);
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

TEST(OracleTest, BestThreadsIsActuallyBest) {
  const workload::ProgramSpec &Spec = workload::Catalog::byName("cg");
  sim::MachineConfig M = sim::MachineConfig::evaluationPlatform();
  OracleEnv Env;
  Env.AvailableCores = 16;
  Env.ExternalThreads = 24;
  Env.ExternalMemDemand = 10.0;
  for (const workload::RegionSpec &R : Spec.Regions) {
    unsigned Best = oracleBestThreads(R, Env, M);
    double BestRate = oracleRegionRate(R, Best, Env, M);
    for (unsigned N = 1; N <= 32; ++N)
      EXPECT_LE(oracleRegionRate(R, N, Env, M), BestRate + 1e-12)
          << "n=" << N << " beats claimed optimum " << Best;
  }
}

TEST(OracleTest, IsolatedScalableRegionWantsEverything) {
  workload::RegionSpec R;
  R.ParallelFraction = 0.999;
  R.SyncCost = 0.0002;
  R.MemIntensity = 0.05;
  sim::MachineConfig M = sim::MachineConfig::evaluationPlatform();
  OracleEnv Idle;
  Idle.AvailableCores = 32;
  EXPECT_GE(oracleBestThreads(R, Idle, M), 28u);
}

TEST(OracleTest, ContentionShrinksOptimum) {
  const workload::RegionSpec &R = workload::Catalog::byName("lu").Regions[2];
  sim::MachineConfig M = sim::MachineConfig::evaluationPlatform();
  OracleEnv Idle;
  Idle.AvailableCores = 32;
  OracleEnv Busy;
  Busy.AvailableCores = 16;
  Busy.ExternalThreads = 48;
  Busy.ExternalMemDemand = 12.0;
  EXPECT_LT(oracleBestThreads(R, Busy, M), oracleBestThreads(R, Idle, M));
}

TEST(OracleTest, RateMatchesSchedulerArithmetic) {
  workload::RegionSpec R;
  R.ParallelFraction = 1.0;
  R.SyncCost = 0.0;
  R.MemIntensity = 0.0;
  sim::MachineConfig M = sim::MachineConfig::evaluationPlatform();
  OracleEnv Env;
  Env.AvailableCores = 32;
  Env.ExternalThreads = 32; // Ratio 2 with 32 own threads... use 32 ext.
  // With 8 own threads: runnable 40, ratio 1.25, share = (1/1.25)/(1+.35*.25).
  double Share = (1.0 / 1.25) / (1.0 + M.ContextSwitchOverhead * 0.25);
  EXPECT_NEAR(oracleRegionRate(R, 8, Env, M), 8.0 * Share, 1e-9);
}

TEST(OracleTest, EmpiricalLabelsStayOnGridAndNearOracle) {
  const workload::RegionSpec &R = workload::Catalog::byName("sp").Regions[0];
  sim::MachineConfig M = sim::MachineConfig::evaluationPlatform();
  OracleEnv Env;
  Env.AvailableCores = 24;
  Env.ExternalThreads = 20;
  Env.ExternalMemDemand = 6.0;
  unsigned Exact = oracleBestThreads(R, Env, M);
  Rng Gen(5);
  for (int I = 0; I < 20; ++I) {
    unsigned Label = empiricalBestThreads(R, Env, M, Gen);
    EXPECT_GE(Label, 1u);
    EXPECT_LE(Label, 32u);
    // Within a factor ~2 of the exact optimum (flat-top + grid + noise).
    EXPECT_LE(Label, Exact * 2 + 4);
    EXPECT_GE(Label + Label, Exact / 2);
  }
}

//===----------------------------------------------------------------------===//
// Selectors
//===----------------------------------------------------------------------===//

TEST(SelectorTest, WinnerOf) {
  EXPECT_EQ(ExpertSelector::winnerOf({0.3, 0.1, 0.5}), 1u);
  EXPECT_EQ(ExpertSelector::winnerOf({0.1, 0.1}), 0u); // Tie -> lowest.
}

TEST(SelectorTest, SoftmaxWeightsProperties) {
  Vec W = ExpertSelector::softmaxOfErrors({0.1, 0.2, 0.9, 0.9});
  ASSERT_EQ(W.size(), 4u);
  double Sum = 0.0;
  for (double X : W)
    Sum += X;
  EXPECT_NEAR(Sum, 1.0, 1e-12);
  EXPECT_GT(W[0], W[1]);
  EXPECT_GT(W[1], W[2]);
  EXPECT_NEAR(W[2], W[3], 1e-12);
}

TEST(SelectorTest, SoftmaxDegenerateEqualErrors) {
  Vec W = ExpertSelector::softmaxOfErrors({0.5, 0.5});
  EXPECT_NEAR(W[0], 0.5, 1e-9);
  EXPECT_NEAR(W[1], 0.5, 1e-9);
}

TEST(SelectorTest, SoftmaxSkipsExpBitwiseOnTiesAndNonFinite) {
  // The formula before the exp(-0.0) == 1 skip, kept verbatim.
  auto Reference = [](const Vec &Errors) {
    double Mean = Errors[0];
    double MinError = Errors[0];
    for (size_t K = 1; K < Errors.size(); ++K) {
      Mean += Errors[K];
      if (Errors[K] < MinError)
        MinError = Errors[K];
    }
    Mean /= static_cast<double>(Errors.size());
    double Tau = std::max(1e-9, 0.3 * Mean);
    Vec Weights(Errors.size());
    double Sum = 0.0;
    for (size_t K = 0; K < Errors.size(); ++K) {
      Weights[K] = std::exp(-(Errors[K] - MinError) / Tau);
      Sum += Weights[K];
    }
    for (double &W : Weights)
      W /= Sum;
    return Weights;
  };
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Vec> Cases = {
      {0.5, 0.5},        {0.1, 0.1, 0.3}, {0.0, 0.0, 0.0},  {-0.0, 0.0},
      {0.0, -0.0, 1.0},  {1e-300, 1e-300}, {5.0},           {0.3, 0.1, 0.1},
      {0.2, Inf},        {Inf, 0.2},      {Inf, Inf},       {-Inf, 1.0},
      {NaN, 0.1},        {0.1, NaN},      {NaN, NaN},       {0.1, 0.1, NaN},
      {Inf, NaN, 0.4},   {0.1, 0.1 + 1e-13, 0.3}};
  for (const Vec &Errors : Cases) {
    Vec Expected = Reference(Errors);
    Vec Actual = ExpertSelector::softmaxOfErrors(Errors);
    ASSERT_EQ(Actual.size(), Expected.size());
    for (size_t K = 0; K < Errors.size(); ++K)
      EXPECT_EQ(std::memcmp(&Actual[K], &Expected[K], sizeof(double)), 0)
          << "case of size " << Errors.size() << ", weight " << K << ": "
          << Actual[K] << " vs " << Expected[K];
  }
}

TEST(AccuracySelectorTest, ConvergesToBestExpert) {
  AccuracySelector S(3);
  Vec F = makeFeatures().Values;
  for (int I = 0; I < 20; ++I)
    S.update(F, {0.5, 0.1, 0.9});
  EXPECT_EQ(S.select(F), 1u);
  Vec W;
  ASSERT_TRUE(S.blendWeights(F, W));
  EXPECT_GT(W[1], W[0]);
  EXPECT_GT(W[1], W[2]);
}

TEST(AccuracySelectorTest, AdaptsToRegimeChange) {
  AccuracySelector S(2, /*Alpha=*/0.4);
  Vec F = makeFeatures().Values;
  for (int I = 0; I < 10; ++I)
    S.update(F, {0.1, 0.9});
  EXPECT_EQ(S.select(F), 0u);
  for (int I = 0; I < 10; ++I)
    S.update(F, {0.9, 0.1});
  EXPECT_EQ(S.select(F), 1u);
}

TEST(AccuracySelectorTest, NoBlendBeforeTraining) {
  AccuracySelector S(2);
  Vec W;
  EXPECT_FALSE(S.blendWeights(makeFeatures().Values, W));
}

TEST(BinnedAccuracySelectorTest, PerBinSpecialisation) {
  BinnedAccuracySelector S(2, tenDimScaler(), /*NumBins=*/4, /*Alpha=*/0.5);
  // Two very different feature magnitudes land in different norm bins.
  Vec Low(10, 0.1), High(10, 2.0);
  for (int I = 0; I < 10; ++I) {
    S.update(Low, {0.1, 0.9});  // Expert 0 wins in the low bin.
    S.update(High, {0.9, 0.1}); // Expert 1 wins in the high bin.
  }
  EXPECT_EQ(S.select(Low), 0u);
  EXPECT_EQ(S.select(High), 1u);
}

TEST(BinnedAccuracySelectorTest, UntouchedBinFallsBackToGlobal) {
  BinnedAccuracySelector S(2, tenDimScaler(), 8, 0.5);
  Vec Low(10, 0.1);
  for (int I = 0; I < 10; ++I)
    S.update(Low, {0.9, 0.1}); // Global: expert 1.
  Vec Unseen(10, 3.0);
  EXPECT_EQ(S.select(Unseen), 1u);
}

TEST(HyperplaneSelectorTest, EvenInitialPartition) {
  HyperplaneSelector S(4, tenDimScaler());
  ASSERT_EQ(S.boundaries().size(), 3u);
  EXPECT_GT(S.boundaries()[0], 0.0);
  EXPECT_LT(S.boundaries()[0], S.boundaries()[1]);
  EXPECT_LT(S.boundaries()[1], S.boundaries()[2]);
  // A small-norm point maps to the first region, a huge one to the last.
  EXPECT_EQ(S.select(Vec(10, 0.01)), 0u);
  EXPECT_EQ(S.select(Vec(10, 100.0)), 3u);
}

TEST(HyperplaneSelectorTest, BoundariesMoveTowardMisclassifiedPoints) {
  HyperplaneSelector S(2, tenDimScaler(), 0.5);
  Vec Mid(10, 0.9); // Below the initial single boundary (sqrt(10) ~ 3.16).
  ASSERT_EQ(S.select(Mid), 0u);
  // Supervision says expert 1 is better there: boundary must move down.
  Vec Errors = {0.9, 0.1};
  for (int I = 0; I < 20; ++I)
    S.update(Mid, Errors);
  EXPECT_EQ(S.select(Mid), 1u);
}

TEST(HyperplaneSelectorTest, BoundariesStayOrdered) {
  HyperplaneSelector S(4, tenDimScaler(), 0.9);
  Rng R(3);
  for (int I = 0; I < 200; ++I) {
    Vec F(10, R.uniform(0, 4));
    Vec Errors = {R.uniform(0, 1), R.uniform(0, 1), R.uniform(0, 1),
                  R.uniform(0, 1)};
    S.update(F, Errors);
    for (size_t B = 1; B < S.boundaries().size(); ++B)
      EXPECT_LE(S.boundaries()[B - 1], S.boundaries()[B] + 1e-12);
  }
}

TEST(PerceptronSelectorTest, LearnsLinearlySeparableRouting) {
  PerceptronSelector S(2, tenDimScaler(), 0.5);
  Vec Low(10, 0.0), High(10, 2.0);
  for (int I = 0; I < 50; ++I) {
    S.update(Low, {0.1, 0.9});
    S.update(High, {0.9, 0.1});
  }
  EXPECT_EQ(S.select(Low), 0u);
  EXPECT_EQ(S.select(High), 1u);
}

TEST(RegimeSelectorTest, GatesByObservableContention) {
  // Experts 0/1 uncontended, 2/3 contended.
  RegimeSelector S({0, 0, 1, 1});
  // Errors make expert 1 globally best among uncontended, 2 among
  // contended.
  Vec AnyF = makeFeatures().Values;
  for (int I = 0; I < 10; ++I)
    S.update(AnyF, {0.5, 0.2, 0.1, 0.6});

  policy::FeatureVector Idle = makeFeatures(1.0, 32.0, /*RunQueue=*/8.0);
  policy::FeatureVector Busy = makeFeatures(2.0, 16.0, /*RunQueue=*/50.0);
  EXPECT_EQ(S.select(Idle.Values), 1u) << "uncontended half must be used";
  EXPECT_EQ(S.select(Busy.Values), 2u) << "contended half must be used";

  Vec W;
  ASSERT_TRUE(S.blendWeights(Idle.Values, W));
  EXPECT_DOUBLE_EQ(W[2] + W[3], 0.0) << "contended experts get no weight";
  EXPECT_NEAR(W[0] + W[1], 1.0, 1e-12);
}

TEST(RegimeSelectorTest, AnyTaggedExpertAlwaysCandidate) {
  RegimeSelector S({-1, 1});
  Vec AnyF = makeFeatures().Values;
  for (int I = 0; I < 5; ++I)
    S.update(AnyF, {0.1, 0.9});
  policy::FeatureVector Idle = makeFeatures(1.0, 32.0, 8.0);
  EXPECT_EQ(S.select(Idle.Values), 0u);
}

TEST(RandomSelectorTest, DeterministicAndInRange) {
  RandomSelector A(4, 9), B(4, 9);
  Vec F = makeFeatures().Values;
  for (int I = 0; I < 50; ++I) {
    size_t SA = A.select(F);
    EXPECT_EQ(SA, B.select(F));
    EXPECT_LT(SA, 4u);
  }
  A.reset();
  RandomSelector C(4, 9);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(A.select(F), C.select(F));
}

TEST(FixedSelectorTest, AlwaysSameExpert) {
  FixedSelector S(4, 2);
  EXPECT_EQ(S.select(makeFeatures().Values), 2u);
  S.update(makeFeatures().Values, {0, 0, 9, 9});
  EXPECT_EQ(S.select(makeFeatures().Values), 2u);
}

TEST(SelectorTest, ClonesStartFresh) {
  AccuracySelector S(2);
  Vec F = makeFeatures().Values;
  for (int I = 0; I < 5; ++I)
    S.update(F, {0.9, 0.1});
  auto Clone = S.clone();
  // The trained original prefers expert 1; the clone is untrained and
  // must not blend yet.
  Vec W;
  EXPECT_FALSE(Clone->blendWeights(F, W));
  EXPECT_EQ(Clone->numExperts(), 2u);
}

//===----------------------------------------------------------------------===//
// MoeStats
//===----------------------------------------------------------------------===//

TEST(MoeStatsTest, FrequencyAndAccuracyAccounting) {
  MoeStats Stats(2);
  Stats.SelectionCounts[0] = 3;
  Stats.SelectionCounts[1] = 1;
  EXPECT_NEAR(Stats.selectionFrequency(0), 0.75, 1e-12);
  Stats.EnvAccurate = {8, 1};
  Stats.EnvTotal = {10, 10};
  EXPECT_NEAR(Stats.envAccuracy(0), 0.8, 1e-12);
  Stats.MixtureEnvAccurate = 9;
  Stats.MixtureEnvTotal = 10;
  EXPECT_NEAR(Stats.mixtureEnvAccuracy(), 0.9, 1e-12);
  Stats.clear();
  EXPECT_DOUBLE_EQ(Stats.selectionFrequency(0), 0.0);
  EXPECT_DOUBLE_EQ(Stats.envAccuracy(0), 0.0);
}

//===----------------------------------------------------------------------===//
// MixtureOfExperts (with synthetic experts)
//===----------------------------------------------------------------------===//

namespace {

std::shared_ptr<const std::vector<Expert>> twoConstantExperts() {
  auto Experts = std::make_shared<std::vector<Expert>>();
  // Expert 0 predicts 8 threads and env 1.0; expert 1 predicts 24 / 3.0.
  Experts->push_back(makeConstantExpert("E1", 8.0, 1.0));
  Experts->push_back(makeConstantExpert("E2", 24.0, 3.0));
  return Experts;
}

} // namespace

TEST(MixtureTest, RoutesToExpertWhoseEnvPredictionHolds) {
  auto Experts = twoConstantExperts();
  MixtureOptions Options;
  Options.SoftBlend = false;
  MixtureOfExperts Mix(Experts,
                       std::make_unique<AccuracySelector>(2, 0.5), nullptr,
                       Options);
  // The observed environment stays near 1.0: expert 0's predictions are
  // vindicated at every step, so selection converges to it.
  for (int I = 0; I < 10; ++I)
    Mix.select(makeFeatures(/*EnvNorm=*/1.05));
  EXPECT_EQ(Mix.lastExpert(), 0u);
  unsigned N = Mix.select(makeFeatures(1.05));
  EXPECT_EQ(N, 8u);

  // Now the environment jumps to 3.0: expert 1 becomes the accurate one.
  for (int I = 0; I < 10; ++I)
    Mix.select(makeFeatures(3.0));
  EXPECT_EQ(Mix.lastExpert(), 1u);
}

TEST(MixtureTest, SoftBlendLandsBetweenExperts) {
  auto Experts = twoConstantExperts();
  MixtureOfExperts Mix(Experts,
                       std::make_unique<AccuracySelector>(2, 0.5));
  // Environment at 2.0 sits exactly between both env models: weights stay
  // balanced and the blended thread count lies between 8 and 24.
  unsigned Last = 0;
  for (int I = 0; I < 10; ++I)
    Last = Mix.select(makeFeatures(2.0));
  EXPECT_GT(Last, 8u);
  EXPECT_LT(Last, 24u);
}

TEST(MixtureTest, StatsAreRecorded) {
  auto Experts = twoConstantExperts();
  auto Stats = std::make_shared<MoeStats>(2);
  MixtureOfExperts Mix(Experts, std::make_unique<AccuracySelector>(2),
                       Stats);
  for (int I = 0; I < 12; ++I)
    Mix.select(makeFeatures(1.0));
  EXPECT_EQ(Stats->SelectionCounts[0] + Stats->SelectionCounts[1], 12u);
  // 11 judged decisions (the last is still pending).
  EXPECT_EQ(Stats->EnvTotal[0], 11u);
  EXPECT_EQ(Stats->MixtureEnvTotal, 11u);
  EXPECT_EQ(Stats->MixtureThreads.total(), 12u);
  EXPECT_EQ(Stats->ExpertThreads[1].total(), 12u);
  // Expert 0 (env model = 1.0) is accurate at tolerance 0.2.
  EXPECT_GT(Stats->envAccuracy(0), 0.9);
  EXPECT_LT(Stats->envAccuracy(1), 0.1);
}

TEST(MixtureTest, ResetClearsPendingAndSelector) {
  auto Experts = twoConstantExperts();
  auto Stats = std::make_shared<MoeStats>(2);
  MixtureOfExperts Mix(Experts, std::make_unique<AccuracySelector>(2),
                       Stats);
  Mix.select(makeFeatures(1.0));
  size_t JudgedBefore = Stats->MixtureEnvTotal;
  Mix.reset();
  Mix.select(makeFeatures(1.0));
  // The pending prediction from before the reset must not be judged.
  EXPECT_EQ(Stats->MixtureEnvTotal, JudgedBefore);
  EXPECT_EQ(Mix.name(), "mixture");
}

TEST(MixtureTest, RespectsMaxThreads) {
  auto Experts = twoConstantExperts();
  MixtureOfExperts Mix(Experts, std::make_unique<FixedSelector>(2, 1));
  unsigned N = Mix.select(makeFeatures(1.0, 32.0, 10.0, /*MaxThreads=*/6));
  EXPECT_LE(N, 6u);
  EXPECT_GE(N, 1u);
}

//===----------------------------------------------------------------------===//
// Golden decision sequence
//===----------------------------------------------------------------------===//

namespace {

/// Builds one golden expert from a deterministically generated corpus. The
/// construction (and the sequence below) reproduces exactly what the
/// pre-refactor code computed; the expected decisions were captured from it
/// and pinned. Each expert fits its own scalers, so the mixture scores them
/// through the folded bank (DESIGN.md §11).
Expert makeGoldenExpert(const std::string &Name, double ThreadBias,
                        double EnvBias, uint64_t Seed) {
  Dataset ThreadData(policy::featureNames());
  Dataset EnvData(policy::featureNames());
  Rng Gen(Seed);
  for (int I = 0; I < 200; ++I) {
    Vec X = {Gen.uniform(0.1, 1.0),  Gen.uniform(0.2, 1.0),
             Gen.uniform(0.05, 0.5), Gen.uniform(0.0, 24.0),
             Gen.uniform(4.0, 32.0), Gen.uniform(0.0, 48.0),
             Gen.uniform(0.0, 32.0), Gen.uniform(0.0, 32.0),
             Gen.uniform(0.0, 1.0),  Gen.uniform(0.0, 0.1)};
    double Threads = ThreadBias + 0.4 * X[4] - 0.2 * X[5] +
                     2.0 * X[0] + Gen.normal(0.0, 0.5);
    double EnvNorm = EnvBias + 0.05 * X[5] + 0.02 * X[3] +
                     Gen.normal(0.0, 0.1);
    ThreadData.add(X, Threads);
    EnvData.add(X, EnvNorm);
  }
  auto ThreadModel = trainLinearModel(ThreadData, Name + ".w");
  auto EnvModel = trainLinearModel(EnvData, Name + ".m");
  return Expert(Name, "golden", *ThreadModel, *EnvModel, EnvBias);
}

std::vector<unsigned> goldenDecisionSequence() {
  auto Experts = std::make_shared<std::vector<Expert>>();
  Experts->push_back(makeGoldenExpert("e0", 4.0, 0.3, 101));
  Experts->push_back(makeGoldenExpert("e1", 10.0, 0.8, 202));
  Experts->push_back(makeGoldenExpert("e2", 16.0, 1.4, 303));
  Experts->push_back(makeGoldenExpert("e3", 24.0, 2.0, 404));
  auto Selector =
      std::make_unique<RegimeSelector>(std::vector<int>{0, 0, 1, 1});
  MixtureOfExperts Mixture(Experts, std::move(Selector));

  Rng Gen(0x601D);
  std::vector<unsigned> Decisions;
  for (int I = 0; I < 64; ++I) {
    policy::FeatureVector F;
    F.Values = {Gen.uniform(0.1, 1.0),  Gen.uniform(0.2, 1.0),
                Gen.uniform(0.05, 0.5), Gen.uniform(0.0, 24.0),
                Gen.uniform(4.0, 32.0), Gen.uniform(0.0, 48.0),
                Gen.uniform(0.0, 32.0), Gen.uniform(0.0, 32.0),
                Gen.uniform(0.0, 1.0),  Gen.uniform(0.0, 0.1)};
    F.EnvNorm = Gen.uniform(0.2, 2.0);
    F.Now = 0.1 * I;
    F.MaxThreads = 32;
    Decisions.push_back(Mixture.select(F));
  }
  return Decisions;
}

} // namespace

TEST(MixtureTest, GoldenDecisionSequenceIsByteIdentical) {
  // Captured from the pre-refactor implementation; every element must match
  // exactly. This pins decisions, not every FP operation: the bank's fold
  // may move a score's last bits (DESIGN.md §11), never a thread count. If
  // an intentional semantics change ever invalidates this, regenerate by
  // printing goldenDecisionSequence() from the old code.
  const std::vector<unsigned> Expected = {
      18, 20, 19, 20, 21, 15, 18, 22, 12, 17, 18, 15, 21, 22, 13, 13,
      23, 12, 23, 15, 12, 18, 17, 22, 19, 12, 21, 11, 18, 17, 14, 24,
      24, 12, 18, 13, 17, 24, 14, 10, 12, 15, 14, 18, 13, 15, 22, 25,
      19, 18, 13, 16, 15, 17, 23, 26, 13, 18, 14, 14, 14, 13, 22, 11};
  EXPECT_EQ(goldenDecisionSequence(), Expected);
}

//===----------------------------------------------------------------------===//
// Packed scoring bank vs the per-expert path
//===----------------------------------------------------------------------===//

namespace {

Vec randomFeatures(Rng &Gen) {
  return {Gen.uniform(0.1, 1.0),  Gen.uniform(0.2, 1.0),
          Gen.uniform(0.05, 0.5), Gen.uniform(0.0, 24.0),
          Gen.uniform(4.0, 32.0), Gen.uniform(0.0, 48.0),
          Gen.uniform(0.0, 32.0), Gen.uniform(0.0, 32.0),
          Gen.uniform(0.0, 1.0),  Gen.uniform(0.0, 0.1)};
}

/// \p K linear experts in the ExpertBuilder shape: the thread models share
/// one corpus scaler, each environment model keeps its subset's own. With
/// \p SharedThreadScaler false, each thread model fits its own scaler too.
std::shared_ptr<const std::vector<Expert>>
builderShapedExperts(size_t K, bool SharedThreadScaler = true) {
  Rng Gen(0xBA4C + K);
  std::vector<Vec> Corpus;
  for (int I = 0; I < 200; ++I)
    Corpus.push_back(randomFeatures(Gen));
  const FeatureScaler CorpusScaler = FeatureScaler::fit(Corpus);
  const FeatureScaler *Shared = SharedThreadScaler ? &CorpusScaler : nullptr;
  auto Experts = std::make_shared<std::vector<Expert>>();
  for (size_t E = 0; E < K; ++E) {
    Dataset ThreadData(policy::featureNames());
    Dataset EnvData(policy::featureNames());
    const double Bias = 30.0 * static_cast<double>(E) / static_cast<double>(K);
    for (int I = 0; I < 120; ++I) {
      Vec X = randomFeatures(Gen);
      ThreadData.add(X, Bias + 0.4 * X[4] - 0.2 * X[5] + Gen.normal(0, 0.5));
      // Low experts predict below zero at light load, so the clamp in
      // Expert::predictEnvNorm matters.
      EnvData.add(X, 0.2 * Bias - 1.5 + 0.08 * X[5] + Gen.normal(0, 0.1));
    }
    auto W = trainLinearModel(ThreadData, "w", {1e-3, true, Shared});
    auto M = trainLinearModel(EnvData, "m", {1e-3, true, nullptr});
    Experts->push_back(Expert("e" + std::to_string(E), "differential", *W,
                              *M, 0.2 * Bias));
  }
  return Experts;
}

/// The same models wrapped as external experts, which the mixture scores
/// one by one through Expert's prediction functions.
std::shared_ptr<const std::vector<Expert>>
externalTwins(std::shared_ptr<const std::vector<Expert>> Linear) {
  auto Twins = std::make_shared<std::vector<Expert>>();
  for (const Expert &E : *Linear) {
    const LinearModel *W = E.threadModel();
    const LinearModel *M = E.envModel();
    Twins->push_back(Expert(
        E.name(), E.description(),
        [Linear, W](const Vec &X) { return W->predict(X); },
        [Linear, M](const Vec &X) { return M->predict(X); },
        E.meanTrainingEnv()));
  }
  return Twins;
}

/// Every selector kind the mixture can be built with.
const char *const AllSelectorKinds[] = {"regime", "accuracy",   "hyperplane",
                                        "binned", "perceptron", "random",
                                        "fixed"};

/// A scaler fitted to randomFeatures, for the contextual selectors.
FeatureScaler differentialScaler() {
  Rng Gen(0x5CA1E);
  std::vector<Vec> Corpus;
  for (int I = 0; I < 200; ++I)
    Corpus.push_back(randomFeatures(Gen));
  return FeatureScaler::fit(Corpus);
}

std::unique_ptr<ExpertSelector> differentialSelector(const std::string &Kind,
                                                     size_t K) {
  std::vector<int> Tags;
  for (size_t E = 0; E < K; ++E)
    Tags.push_back(K == 1 ? -1 : E < K / 2 ? 0 : 1);
  if (Kind == "accuracy")
    return std::make_unique<AccuracySelector>(K);
  if (Kind == "hyperplane")
    return std::make_unique<HyperplaneSelector>(K, differentialScaler());
  if (Kind == "binned")
    return std::make_unique<BinnedAccuracySelector>(K, differentialScaler());
  if (Kind == "perceptron")
    return std::make_unique<PerceptronSelector>(K, differentialScaler());
  if (Kind == "random")
    return std::make_unique<RandomSelector>(K, 0x5EED);
  if (Kind == "fixed")
    return std::make_unique<FixedSelector>(K, K / 2);
  return std::make_unique<RegimeSelector>(Tags);
}

/// Features in both regimes, under two machine sizes, with runs of
/// bit-identical vectors and a burst of infinite observed environment
/// norms, so every selector folds infinite errors.
std::vector<policy::FeatureVector> differentialStream() {
  Rng Gen(0xD1FF);
  std::vector<policy::FeatureVector> Stream;
  for (int I = 0; I < 300; ++I) {
    policy::FeatureVector F;
    F.Values = randomFeatures(Gen);
    F.MaxThreads = I % 5 == 0 ? 8 : 32;
    for (int Repeat = I % 3 == 0 ? 3 : 1; Repeat > 0; --Repeat) {
      F.EnvNorm = I >= 40 && I < 46 ? std::numeric_limits<double>::infinity()
                                    : Gen.uniform(0.2, 8.0);
      Stream.push_back(F);
    }
  }
  return Stream;
}

struct DifferentialRun {
  std::vector<unsigned> Threads;
  std::vector<size_t> Chosen;
  std::vector<std::vector<size_t>> ExpertThreads;
  std::vector<size_t> SelectionCounts, EnvAccurate, EnvTotal;
  std::vector<size_t> MixtureThreads;
  size_t MixtureEnvAccurate = 0, MixtureEnvTotal = 0;
  bool Banked = false;
};

DifferentialRun
runDifferential(std::shared_ptr<const std::vector<Expert>> Experts,
                const std::string &Kind, bool SoftBlend) {
  const size_t K = Experts->size();
  auto Stats = std::make_shared<MoeStats>(K);
  MixtureOptions Options;
  Options.SoftBlend = SoftBlend;
  MixtureOfExperts Mixture(Experts, differentialSelector(Kind, K), Stats,
                           Options);
  DifferentialRun Run;
  Run.Banked = Mixture.banked();
  for (const policy::FeatureVector &F : differentialStream()) {
    Run.Threads.push_back(Mixture.select(F));
    Run.Chosen.push_back(Mixture.lastExpert());
  }
  for (const Histogram &H : Stats->ExpertThreads)
    Run.ExpertThreads.push_back(H.bucketize(1, 64));
  Run.SelectionCounts = Stats->SelectionCounts;
  Run.EnvAccurate = Stats->EnvAccurate;
  Run.EnvTotal = Stats->EnvTotal;
  Run.MixtureThreads = Stats->MixtureThreads.bucketize(1, 64);
  Run.MixtureEnvAccurate = Stats->MixtureEnvAccurate;
  Run.MixtureEnvTotal = Stats->MixtureEnvTotal;
  return Run;
}

uint64_t hashWords(uint64_t Hash, const auto &Words) {
  Hash = support::fnv1aWord(Hash, Words.size());
  for (auto W : Words)
    Hash = support::fnv1aWord(Hash, W);
  return Hash;
}

/// Every output of one differential run, in a fixed order.
uint64_t hashRun(uint64_t Hash, const DifferentialRun &Run) {
  Hash = hashWords(Hash, Run.Threads);
  Hash = hashWords(Hash, Run.Chosen);
  for (const std::vector<size_t> &Buckets : Run.ExpertThreads)
    Hash = hashWords(Hash, Buckets);
  Hash = hashWords(Hash, Run.SelectionCounts);
  Hash = hashWords(Hash, Run.EnvAccurate);
  Hash = hashWords(Hash, Run.EnvTotal);
  Hash = hashWords(Hash, Run.MixtureThreads);
  Hash = support::fnv1aWord(Hash, Run.MixtureEnvAccurate);
  return support::fnv1aWord(Hash, Run.MixtureEnvTotal);
}

} // namespace

TEST(MixtureTest, BankMatchesPerExpertPathBitwise) {
  // Fig 15c's expert counts, each scored through the bank and through the
  // per-expert path over the very same models: every decision, chosen
  // expert and statistic must agree. The bank folds each model's scaler
  // into its weights, so the sets whose thread models fit their own
  // scalers take it too.
  for (size_t K : {1u, 2u, 4u, 8u}) {
    for (bool SharedThreadScaler : {true, false}) {
      auto Linear = builderShapedExperts(K, SharedThreadScaler);
      auto External = externalTwins(Linear);
      for (const std::string Kind : {"regime", "accuracy"})
        for (bool SoftBlend : {true, false}) {
          SCOPED_TRACE("K=" + std::to_string(K) + " " + Kind +
                       (SharedThreadScaler ? " shared" : " own") +
                       (SoftBlend ? " soft" : " hard"));
          DifferentialRun Banked = runDifferential(Linear, Kind, SoftBlend);
          DifferentialRun Reference =
              runDifferential(External, Kind, SoftBlend);
          ASSERT_TRUE(Banked.Banked);
          ASSERT_FALSE(Reference.Banked);
          EXPECT_EQ(Banked.Threads, Reference.Threads);
          EXPECT_EQ(Banked.Chosen, Reference.Chosen);
          EXPECT_EQ(Banked.ExpertThreads, Reference.ExpertThreads);
          EXPECT_EQ(Banked.SelectionCounts, Reference.SelectionCounts);
          EXPECT_EQ(Banked.EnvAccurate, Reference.EnvAccurate);
          // The stream must exercise the rounding, not one clamped value.
          std::set<unsigned> Distinct(Banked.Threads.begin(),
                                      Banked.Threads.end());
          EXPECT_GT(Distinct.size(), K == 1 ? 3u : 8u);
        }
    }
  }
}

TEST(SelectorTest, GateMatchesComposition) {
  // gate() is one call for the stages a decision used to run one by one:
  // update, then blendWeights or select. Two clones of every selector walk
  // one stream, one through each form, and must agree on every result,
  // chosen index and weight bit (a NaN weight only on being NaN; see
  // valueBits). The stream opens with the untrained first decision (no
  // errors to fold) and carries a burst of infinite errors and one NaN.
  // Three and five experts give softmaxes over counts that are not powers
  // of two, where dividing by the count and multiplying by its reciprocal
  // differ.
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  uint64_t Hash = support::fnv1aInit();
  for (size_t K : {1u, 2u, 3u, 4u, 5u, 8u}) {
    Rng Gen(0x6A7E + K);
    std::vector<Vec> Features, Errors;
    for (int I = 0; I < 300; ++I) {
      Features.push_back(randomFeatures(Gen));
      Vec E(K);
      for (double &X : E)
        X = I >= 40 && I < 50 ? Inf : Gen.uniform(0.0, 4.0);
      if (I == 120)
        E[K - 1] = NaN;
      Errors.push_back(E);
    }
    for (const char *Kind : AllSelectorKinds)
      for (bool Soft : {true, false}) {
        SCOPED_TRACE("K=" + std::to_string(K) + " " + Kind +
                     (Soft ? " soft" : " hard"));
        auto Prototype = differentialSelector(Kind, K);
        auto Gated = Prototype->clone();
        auto Staged = Prototype->clone();
        Vec GateWeights(K), StagedWeights;
        std::set<GateResult> Seen;
        for (size_t I = 0; I < Features.size(); ++I) {
          const Vec &Pending = Features[I == 0 ? 0 : I - 1];
          size_t GateChosen = K;
          GateResult Got =
              Gated->gate(Pending, I == 0 ? nullptr : Errors[I].data(),
                          Features[I], Soft, GateWeights.data(), GateChosen);

          if (I > 0)
            Staged->update(Pending, Errors[I]);
          GateResult Want = GateResult::Single;
          size_t StagedChosen = K;
          if (Soft && Staged->blendWeights(Features[I], StagedWeights))
            Want = GateResult::Blend;
          else
            StagedChosen = Staged->select(Features[I]);

          ASSERT_EQ(Got, Want) << "decision " << I;
          Seen.insert(Got);
          Hash = support::fnv1aWord(Hash, static_cast<uint64_t>(Want));
          if (Want == GateResult::Single) {
            ASSERT_EQ(GateChosen, StagedChosen) << "decision " << I;
            Hash = support::fnv1aWord(Hash, StagedChosen);
          }
          if (Want == GateResult::Blend) {
            for (size_t E = 0; E < K; ++E) {
              ASSERT_EQ(valueBits(GateWeights[E]), valueBits(StagedWeights[E]))
                  << "decision " << I << ", weight " << E;
              Hash = support::fnv1aWord(Hash, valueBits(StagedWeights[E]));
            }
          }
        }
        // The stream reaches every result the selector can give.
        EXPECT_TRUE(Seen.count(GateResult::Single));
        const std::string Name = Kind;
        if (Soft &&
            (Name == "regime" || Name == "accuracy" || Name == "binned")) {
          EXPECT_TRUE(Seen.count(GateResult::Blend));
        }
      }
  }
  // The stages' own outputs, pinned: the two forms share their
  // arithmetic, so only this digest sees a change to it.
  EXPECT_EQ(Hash, 0xc9117866887e79d9ULL);
}

TEST(MixtureTest, DecisionsArePinned) {
  // Every output of the mixture over the differential stream, for every
  // selector kind, soft and hard gating and Fig 15c's expert counts, each
  // scored through the bank and one by one. BankMatchesPerExpertPathBitwise
  // compares two paths through the same gate, so it cannot see a change to
  // the gate itself; this digest can. Decisions may get cheaper; they may
  // not change a single bit.
  uint64_t Hash = support::fnv1aInit();
  for (size_t K : {1u, 2u, 4u, 8u}) {
    auto Linear = builderShapedExperts(K);
    auto External = externalTwins(Linear);
    for (const char *Kind : AllSelectorKinds)
      for (bool SoftBlend : {true, false}) {
        Hash = hashRun(Hash, runDifferential(Linear, Kind, SoftBlend));
        Hash = hashRun(Hash, runDifferential(External, Kind, SoftBlend));
      }
  }
  EXPECT_EQ(Hash, 0x9ff9a6004471c2a1ULL);
}

TEST(MixtureTest, BankTakesEveryLinearSetOfAtMostEight) {
  // The golden experts each fit their own scalers; the bank folds each one
  // into its lane, so they are banked.
  auto Experts = std::make_shared<std::vector<Expert>>();
  Experts->push_back(makeGoldenExpert("e0", 4.0, 0.3, 101));
  Experts->push_back(makeGoldenExpert("e1", 10.0, 0.8, 202));
  MixtureOfExperts Mixture(Experts, std::make_unique<AccuracySelector>(2));
  EXPECT_TRUE(Mixture.banked());
  // Nine experts exceed the bank's lanes.
  MixtureOfExperts Wide(builderShapedExperts(9),
                        std::make_unique<AccuracySelector>(9));
  EXPECT_FALSE(Wide.banked());
  MixtureOfExperts Eight(builderShapedExperts(8),
                         std::make_unique<AccuracySelector>(8));
  EXPECT_TRUE(Eight.banked());
}

//===----------------------------------------------------------------------===//
// ExpertBuilder (small config to keep runtime bounded)
//===----------------------------------------------------------------------===//

namespace {

/// A reduced training matrix: 3 programs, the 32-core platform only.
TrainingConfig smallTraining() {
  TrainingConfig Config;
  Config.Programs = {"cg", "ep", "lu"};
  Config.Platforms = {sim::MachineConfig::evaluationPlatform()};
  Config.SplitPlatformIndex = 0;
  Config.RunDuration = 60.0;
  Config.Seed = 0xABCD;
  return Config;
}

} // namespace

TEST(ExpertBuilderTest, CollectsLabelledSamples) {
  ExpertBuilder Builder(smallTraining());
  const auto &Samples = Builder.samples();
  ASSERT_GT(Samples.size(), 500u);
  size_t WithNext = 0;
  for (const TrainingSample &S : Samples) {
    EXPECT_EQ(S.Features.size(), policy::NumFeatures);
    EXPECT_GE(S.BestThreads, 1.0);
    EXPECT_LE(S.BestThreads, 32.0);
    EXPECT_EQ(S.PlatformCores, 32u);
    EXPECT_GT(S.ScalabilityFraction, 0.0);
    EXPECT_FALSE(S.Program.empty());
    WithNext += S.HasNextEnv;
    if (S.HasNextEnv) {
      EXPECT_GT(S.NextEnvNorm, 0.0);
    }
  }
  EXPECT_GT(WithNext, Samples.size() / 2);
}

TEST(ExpertBuilderTest, DeterministicAcrossInstances) {
  ExpertBuilder A(smallTraining()), B(smallTraining());
  ASSERT_EQ(A.samples().size(), B.samples().size());
  for (size_t I = 0; I < A.samples().size(); I += 97) {
    EXPECT_EQ(A.samples()[I].BestThreads, B.samples()[I].BestThreads);
    EXPECT_EQ(A.samples()[I].Features, B.samples()[I].Features);
  }
}

TEST(ExpertBuilderTest, BuildsRequestedGranularities) {
  ExpertBuilder Builder(smallTraining());
  for (unsigned K : {1u, 2u, 4u, 8u}) {
    auto Built = Builder.build(K);
    ASSERT_EQ(Built.size(), K) << "K=" << K;
    for (size_t I = 0; I < Built.size(); ++I) {
      EXPECT_EQ(Built[I].E.name(), "E" + std::to_string(I + 1));
      EXPECT_FALSE(Built[I].E.description().empty());
      EXPECT_GT(Built[I].ThreadSamples, 0u);
      EXPECT_GT(Built[I].EnvSamples, 0u);
    }
    // Ordered by the calmness of the training regime.
    for (size_t I = 1; I < Built.size(); ++I)
      EXPECT_LE(Built[I - 1].E.meanTrainingEnv(),
                Built[I].E.meanTrainingEnv() + 1e-9);
  }
}

TEST(ExpertBuilderTest, FourExpertSplitCoversBothAxes) {
  ExpertBuilder Builder(smallTraining());
  auto Built = Builder.build(4);
  std::set<std::string> Descriptions;
  for (const auto &B : Built)
    Descriptions.insert(B.E.description());
  EXPECT_TRUE(Descriptions.count("uncontended/scalable"));
  EXPECT_TRUE(Descriptions.count("uncontended/non-scalable"));
  EXPECT_TRUE(Descriptions.count("contended/scalable"));
  EXPECT_TRUE(Descriptions.count("contended/non-scalable"));
}

TEST(ExpertBuilderTest, ScalabilityTableUsesPaperCriterion) {
  ExpertBuilder Builder(smallTraining());
  auto Table = Builder.scalabilityTable();
  ASSERT_EQ(Table.size(), 3u);
  for (const ScalabilityEntry &E : Table) {
    EXPECT_EQ(E.PlatformCores, 32u);
    EXPECT_EQ(E.Scalable, E.IsolatedSpeedup >= 8.0);
  }
}

TEST(ExpertBuilderTest, MonolithicModelTrains) {
  ExpertBuilder Builder(smallTraining());
  LinearModel Model = Builder.monolithicThreadModel();
  EXPECT_EQ(Model.dimension(), policy::NumFeatures);
  // Predictions over in-corpus features are within machine bounds after
  // clamping; raw predictions must at least be finite and sane.
  double P = Model.predict(Builder.samples().front().Features);
  EXPECT_TRUE(std::isfinite(P));
  EXPECT_GT(P, -40.0);
  EXPECT_LT(P, 80.0);
}

TEST(ExpertBuilderTest, FeatureScalerCoversCorpus) {
  ExpertBuilder Builder(smallTraining());
  FeatureScaler Scaler = Builder.featureScaler();
  EXPECT_EQ(Scaler.dimension(), policy::NumFeatures);
  // Standardised corpus features should be O(1) on average.
  double Total = 0.0;
  size_t Count = 0;
  for (size_t I = 0; I < Builder.samples().size(); I += 23) {
    Total += norm2(Scaler.transform(Builder.samples()[I].Features));
    ++Count;
  }
  double MeanNorm = Total / double(Count);
  EXPECT_GT(MeanNorm, 0.5);
  EXPECT_LT(MeanNorm, 10.0);
}

//===----------------------------------------------------------------------===//
// External experts (Section 9 extensions)
//===----------------------------------------------------------------------===//

#include "core/ExternalExperts.h"

TEST(ExternalExpertTest, FunctionBackedExpertPredicts) {
  Expert E("fn", "custom",
           [](const Vec &X) { return X[4] / 2.0; },  // Half the processors.
           [](const Vec &) { return 1.5; }, 1.5);
  policy::FeatureVector F = makeFeatures(1.0, 24.0);
  EXPECT_EQ(E.predictThreads(F), 12u);
  EXPECT_NEAR(E.predictEnvNorm(F), 1.5, 1e-12);
  EXPECT_EQ(E.threadModel(), nullptr) << "no linear model to introspect";
}

TEST(ExternalExpertTest, LinearExpertExposesItsModels) {
  Expert E = makeConstantExpert("E1", 10.0, 1.0);
  EXPECT_NE(E.threadModel(), nullptr);
  EXPECT_NE(E.envModel(), nullptr);
}

TEST(OnlineEnvModelTest, LearnsPerRegimeEstimates) {
  OnlineEnvModel Model(/*Prior=*/1.0, /*Alpha=*/0.5);
  Vec Idle = makeFeatures(0.0, 32.0, /*RunQueue=*/8.0).Values;
  Vec Busy = makeFeatures(0.0, 16.0, /*RunQueue=*/50.0).Values;
  EXPECT_NEAR(Model.predict(Idle), 1.0, 1e-12);
  for (int I = 0; I < 20; ++I) {
    Model.observe(Idle, 1.4);
    Model.observe(Busy, 2.6);
  }
  EXPECT_NEAR(Model.predict(Idle), 1.4, 0.05);
  EXPECT_NEAR(Model.predict(Busy), 2.6, 0.05);
  EXPECT_EQ(Model.observations(), 40u);
}

TEST(ExternalExpertTest, HandcraftedExpertHeuristics) {
  Expert E = makeHandcraftedExpert(sim::MachineConfig::evaluationPlatform(),
                                   "hand");
  // Idle machine, low branch ratio: claim everything.
  policy::FeatureVector Idle = makeFeatures(1.0, 32.0, 4.0);
  Idle.Values[2] = 0.05; // branches
  Idle.Values[3] = 0.0;  // no workload
  EXPECT_GE(E.predictThreads(Idle), 30u);
  // Branchy loop: stay within one socket (8 cores).
  policy::FeatureVector Branchy = Idle;
  Branchy.Values[2] = 0.30;
  EXPECT_LE(E.predictThreads(Branchy), 8u);
  // Loaded machine: claim only the slack.
  policy::FeatureVector Loaded = Idle;
  Loaded.Values[3] = 40.0;
  EXPECT_LE(E.predictThreads(Loaded), 14u);
}

TEST(ExternalExpertTest, HandcraftedEnvModelLearnsFromFeedback) {
  Expert E = makeHandcraftedExpert(sim::MachineConfig::evaluationPlatform(),
                                   "hand");
  ASSERT_NE(E.onlineEnvPrior(), nullptr);
  policy::FeatureVector F = makeFeatures(2.4, 16.0, 50.0);
  OnlineEnvModel Model = *E.onlineEnvPrior();
  double Before = Model.predict(F.Values);
  EXPECT_DOUBLE_EQ(E.predictEnvNorm(F), Before) << "the expert's own prior";
  for (int I = 0; I < 30; ++I)
    Model.observe(F.Values, 2.4);
  double After = Model.predict(F.Values);
  EXPECT_GT(std::fabs(2.4 - Before), std::fabs(2.4 - After));
  EXPECT_NEAR(After, 2.4, 0.1);
  // Training a copy leaves the expert's own prior untouched.
  EXPECT_DOUBLE_EQ(E.predictEnvNorm(F), Before);
}

TEST(ExternalExpertTest, KnnExpertFromCorpus) {
  ExpertBuilder Builder(smallTraining());
  Expert Knn = makeKnnExpert(Builder, "E-knn");
  EXPECT_EQ(Knn.name(), "E-knn");
  EXPECT_EQ(Knn.threadModel(), nullptr);
  // Predictions over in-corpus features are sane thread counts.
  policy::FeatureVector F;
  F.Values = Builder.samples().front().Features;
  F.MaxThreads = 32;
  unsigned N = Knn.predictThreads(F);
  EXPECT_GE(N, 1u);
  EXPECT_LE(N, 32u);
  EXPECT_GT(Knn.predictEnvNorm(F), 0.0);
}

TEST(ExpertBuilderTest, SubsampledBuildShrinksData) {
  ExpertBuilder Builder(smallTraining());
  auto Full = Builder.build(2);
  auto Quarter = Builder.buildSubsampled(2, 0.25);
  ASSERT_EQ(Quarter.size(), 2u);
  size_t FullSamples = Full[0].ThreadSamples + Full[1].ThreadSamples;
  size_t QuarterSamples = Quarter[0].ThreadSamples + Quarter[1].ThreadSamples;
  EXPECT_LT(QuarterSamples, FullSamples / 3);
  EXPECT_GT(QuarterSamples, FullSamples / 6);
}

namespace {

uint64_t hashModel(uint64_t Hash, const LinearModel &Model) {
  for (double W : Model.weights())
    Hash = hashDouble(Hash, W);
  Hash = hashDouble(Hash, Model.intercept());
  Hash = hashDouble(Hash, Model.trainingR2());
  for (double M : Model.scaler().means())
    Hash = hashDouble(Hash, M);
  for (double S : Model.scaler().scales())
    Hash = hashDouble(Hash, S);
  return Hash;
}

} // namespace

TEST(ExpertBuilderTest, TrainedModelsArePinned) {
  // Every bit of every standard model: the 1/2/4/8-expert sets, the corpus
  // scaler, the Figure-14c aggregate and the offline policy's aggregate.
  // Training may get cheaper; it may not change a single bit.
  uint64_t Hash = support::fnv1aInit();
  ExpertBuilder Builder;
  FeatureScaler Scaler = Builder.featureScaler();
  for (double M : Scaler.means())
    Hash = hashDouble(Hash, M);
  for (double S : Scaler.scales())
    Hash = hashDouble(Hash, S);
  for (unsigned K : {1u, 2u, 4u, 8u})
    for (const BuiltExpert &B : Builder.build(K)) {
      Hash = hashModel(Hash, *B.E.threadModel());
      Hash = hashModel(Hash, *B.E.envModel());
      Hash = hashDouble(Hash, B.E.meanTrainingEnv());
    }
  Hash = hashModel(Hash, Builder.monolithicThreadModel());

  TrainingConfig Offline = TrainingConfig::standard();
  Offline.Platforms = {sim::MachineConfig::evaluationPlatform()};
  Offline.SplitPlatformIndex = 0;
  Offline.AvailabilityPeriod = 1e9;
  Hash = hashModel(Hash, ExpertBuilder(Offline).monolithicThreadModel());

  EXPECT_EQ(Hash, 0x37499915adb10337ULL);
}

namespace {

/// An expert with no offline environment model: 20 threads, and an online
/// model starting at \p Prior with EMA step 0.5.
Expert makeOnlineExpert(double Prior) {
  return Expert(
      "online", "learns online", [](const Vec &) { return 20.0; },
      OnlineEnvModel(Prior, /*Alpha=*/0.5), Prior);
}

} // namespace

TEST(MixtureTest, FeedsObservationsToOnlineExperts) {
  auto Experts = std::make_shared<std::vector<Expert>>();
  Experts->push_back(makeOnlineExpert(1.0));
  auto Stats = std::make_shared<MoeStats>(1);
  MixtureOfExperts Mix(Experts, std::make_unique<FixedSelector>(1, 0), Stats);
  for (int I = 0; I < 10; ++I)
    Mix.select(makeFeatures(3.0));
  // Every decision but the last was judged. The prior 1.0 misses 3.0 by
  // more than 20%, and so does the first estimate learned from it (2.0);
  // from the third judgement on (2.5, 2.75, ...) the estimate is within.
  EXPECT_EQ(Stats->EnvTotal[0], 9u);
  EXPECT_EQ(Stats->EnvAccurate[0], 7u);
  EXPECT_DOUBLE_EQ(Experts->front().predictEnvNorm(makeFeatures(3.0)), 1.0)
      << "the instance trains its own copy, not the expert's prior";
}

TEST(MixtureTest, OnlineEnvModelsArePerInstance) {
  // Judged against an observed norm of 1.0, the online expert (prior 1.0)
  // beats the offline one (constant 2.0), unless its model has been
  // trained away from the prior. Instance A trains its copy towards 3.0;
  // B, made afterwards by the same factory, must not see that.
  auto Experts = std::make_shared<std::vector<Expert>>();
  Experts->push_back(makeConstantExpert("offline", 4.0, 2.0));
  Experts->push_back(makeOnlineExpert(1.0));
  policy::PolicyFactory Factory = [Experts] {
    return std::make_unique<MixtureOfExperts>(
        Experts, std::make_unique<AccuracySelector>(2));
  };
  auto Run = [](policy::ThreadPolicy &P, double Observed) {
    std::vector<unsigned> Threads;
    for (int I = 0; I < 20; ++I)
      Threads.push_back(P.select(makeFeatures(Observed)));
    return Threads;
  };
  std::vector<unsigned> Fresh = Run(*Factory(), 1.0);

  auto A = Factory();
  Run(*A, 3.0);
  auto B = Factory();
  EXPECT_EQ(Run(*B, 1.0), Fresh);
  // reset() rewinds A's copy to the prior, as it does the selector.
  A->reset();
  EXPECT_EQ(Run(*A, 1.0), Fresh);
}

//===----------------------------------------------------------------------===//
// Expert serialisation
//===----------------------------------------------------------------------===//

#include "core/ExpertIo.h"

#include <sstream>

TEST(ExpertIoTest, RoundTripsLinearExperts) {
  std::vector<Expert> Original = {
      makeConstantExpert("E1", 8.0, 1.2),
      makeConstantExpert("E2", 24.0, 2.4),
  };
  std::stringstream SS;
  ASSERT_TRUE(writeExperts(SS, Original));
  auto Loaded = readExperts(SS);
  ASSERT_TRUE(Loaded.has_value());
  ASSERT_EQ(Loaded->size(), 2u);

  policy::FeatureVector F = makeFeatures(1.0, 24.0, 30.0);
  for (size_t I = 0; I < 2; ++I) {
    EXPECT_EQ((*Loaded)[I].name(), Original[I].name());
    EXPECT_EQ((*Loaded)[I].description(), Original[I].description());
    EXPECT_DOUBLE_EQ((*Loaded)[I].meanTrainingEnv(),
                     Original[I].meanTrainingEnv());
    EXPECT_EQ((*Loaded)[I].predictThreads(F), Original[I].predictThreads(F));
    EXPECT_DOUBLE_EQ((*Loaded)[I].predictEnvNorm(F),
                     Original[I].predictEnvNorm(F));
  }
}

TEST(ExpertIoTest, TrainedExpertsRoundTripExactly) {
  ExpertBuilder Builder(smallTraining());
  auto Built = Builder.build(2);
  std::vector<Expert> Experts;
  for (auto &B : Built)
    Experts.push_back(B.E);

  std::stringstream SS;
  ASSERT_TRUE(writeExperts(SS, Experts));
  auto Loaded = readExperts(SS);
  ASSERT_TRUE(Loaded.has_value());

  // Bit-exact predictions on real corpus features (max_digits10 output).
  for (size_t I = 0; I < Builder.samples().size(); I += 137) {
    policy::FeatureVector F;
    F.Values = Builder.samples()[I].Features;
    F.MaxThreads = 32;
    for (size_t K = 0; K < Experts.size(); ++K) {
      EXPECT_EQ((*Loaded)[K].predictThreads(F), Experts[K].predictThreads(F));
      EXPECT_DOUBLE_EQ((*Loaded)[K].predictEnvNorm(F),
                       Experts[K].predictEnvNorm(F));
    }
  }
}

TEST(ExpertIoTest, RejectsExternalExperts) {
  std::vector<Expert> Experts = {
      Expert("fn", "custom", [](const Vec &) { return 8.0; },
             [](const Vec &) { return 1.0; }, 1.0)};
  std::stringstream SS;
  EXPECT_FALSE(writeExperts(SS, Experts));
}

TEST(ExpertIoTest, RejectsMalformedInput) {
  auto Try = [](const std::string &Text) {
    std::stringstream SS(Text);
    return readExperts(SS).has_value();
  };
  EXPECT_FALSE(Try(""));
  EXPECT_FALSE(Try("wrong-magic 1\n"));
  EXPECT_FALSE(Try("medley-experts 99\nexperts 1 features 10\n"));
  EXPECT_FALSE(Try("medley-experts 1\nexperts 1 features 3\n"));
  // Truncated body.
  EXPECT_FALSE(Try("medley-experts 1\nexperts 1 features 10\nexpert E1 "
                   "1.0\ndescription d\nw means 1 2 3\n"));
}

TEST(ExpertIoTest, WritesChecksummedV2Header) {
  std::vector<Expert> Experts = {makeConstantExpert("E1", 8.0, 1.2)};
  std::stringstream SS;
  ASSERT_TRUE(writeExperts(SS, Experts));
  const std::string Text = SS.str();
  EXPECT_EQ(Text.rfind("medley-experts 2\nchecksum ", 0), 0u);
  // The checksum token is exactly 16 lowercase hex digits.
  const size_t CkStart = Text.find("checksum ") + 9;
  const std::string Ck = Text.substr(CkStart, Text.find('\n', CkStart) - CkStart);
  ASSERT_EQ(Ck.size(), 16u);
  for (char C : Ck)
    EXPECT_TRUE((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')) << Ck;
}

TEST(ExpertIoTest, RejectsBitFlippedPayloadAsChecksumMismatch) {
  std::vector<Expert> Experts = {makeConstantExpert("E1", 8.0, 1.2),
                                 makeConstantExpert("E2", 24.0, 2.4)};
  std::stringstream SS;
  ASSERT_TRUE(writeExperts(SS, Experts));
  std::string Text = SS.str();

  // Flip one digit deep in the payload; the v2 checksum must catch it
  // before any parsing.
  const size_t Pos = Text.rfind('7') != std::string::npos
                         ? Text.rfind('7')
                         : Text.size() - 2;
  Text[Pos] = Text[Pos] == '7' ? '8' : '7';
  std::stringstream Damaged(Text);
  support::Error Err;
  EXPECT_FALSE(readExperts(Damaged, &Err).has_value());
  EXPECT_EQ(Err.code(), support::ErrorCode::ChecksumMismatch);
}

TEST(ExpertIoTest, ReadsLegacyV1FilesWithoutChecksum) {
  std::vector<Expert> Experts = {makeConstantExpert("E1", 8.0, 1.2)};
  std::stringstream SS;
  ASSERT_TRUE(writeExperts(SS, Experts));
  std::string Text = SS.str();

  // Strip the v2 header down to the v1 form: old magic, no checksum line.
  const size_t PayloadStart = Text.find('\n', Text.find("checksum ")) + 1;
  std::stringstream Legacy("medley-experts 1\n" + Text.substr(PayloadStart));
  auto Loaded = readExperts(Legacy);
  ASSERT_TRUE(Loaded.has_value());
  ASSERT_EQ(Loaded->size(), 1u);
  policy::FeatureVector F = makeFeatures(1.0, 24.0, 30.0);
  EXPECT_EQ((*Loaded)[0].predictThreads(F), Experts[0].predictThreads(F));
  EXPECT_DOUBLE_EQ((*Loaded)[0].predictEnvNorm(F),
                   Experts[0].predictEnvNorm(F));
}

TEST(ExpertIoTest, TruncatedV2PayloadFailsChecksum) {
  std::vector<Expert> Experts = {makeConstantExpert("E1", 8.0, 1.2)};
  std::stringstream SS;
  ASSERT_TRUE(writeExperts(SS, Experts));
  std::string Text = SS.str();
  std::stringstream Truncated(Text.substr(0, Text.size() * 2 / 3));
  support::Error Err;
  EXPECT_FALSE(readExperts(Truncated, &Err).has_value());
  EXPECT_EQ(Err.code(), support::ErrorCode::ChecksumMismatch);
}

TEST(ExpertIoTest, FileHelpersWork) {
  std::vector<Expert> Experts = {makeConstantExpert("E1", 8.0, 1.2)};
  std::string Path = ::testing::TempDir() + "/medley_experts_test.txt";
  ASSERT_TRUE(saveExpertsToFile(Path, Experts));
  auto Loaded = loadExpertsFromFile(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->size(), 1u);
  EXPECT_FALSE(loadExpertsFromFile("/nonexistent/dir/file").has_value());
}
