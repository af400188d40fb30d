//===-- tests/PolicyTest.cpp - baseline policy tests ---------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "policy/AnalyticPolicy.h"
#include "policy/DefaultPolicy.h"
#include "policy/Features.h"
#include "policy/OfflinePolicy.h"
#include "policy/OnlinePolicy.h"
#include "runtime/PolicyBinding.h"
#include "workload/Catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

using namespace medley;
using namespace medley::policy;

namespace {

/// Builds a feature vector directly (bypassing a simulation).
FeatureVector makeFeatures(double Processors, double WorkloadThreads,
                           double RunQueue, unsigned MaxThreads = 32,
                           double Now = 0.0) {
  FeatureVector F;
  F.Values = {0.3, 0.4, 0.1, WorkloadThreads, Processors,
              RunQueue, RunQueue, RunQueue, 0.9, 0.01};
  F.EnvNorm = 1.0;
  F.Now = Now;
  F.MaxThreads = MaxThreads;
  return F;
}

workload::RegionOutcome makeOutcome(const workload::RegionSpec *Region,
                                    unsigned Threads, double Rate) {
  workload::RegionOutcome O;
  O.Region = Region;
  O.Threads = Threads;
  O.Work = Rate; // With Duration = 1, rate() == Work.
  O.Duration = 1.0;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Features
//===----------------------------------------------------------------------===//

TEST(FeaturesTest, TenTable1Names) {
  const auto &Names = featureNames();
  ASSERT_EQ(Names.size(), NumFeatures);
  EXPECT_EQ(Names[0], "load/store count");
  EXPECT_EQ(Names[4], "processors");
  EXPECT_EQ(Names[9], "pages free list rate");
}

TEST(FeaturesTest, BuildFeaturesMapsContext) {
  const workload::ProgramSpec &Spec = workload::Catalog::byName("lu");
  workload::RegionContext Context;
  Context.Program = &Spec;
  Context.Region = &Spec.Regions[1];
  Context.Env.WorkloadThreads = 12;
  Context.Env.Processors = 24;
  Context.Env.RunQueue = 20;
  Context.Env.LoadAvg1 = 18;
  Context.Env.LoadAvg5 = 15;
  Context.Env.CachedMemory = 0.8;
  Context.Env.PageFreeRate = 0.02;
  Context.Now = 7.0;
  Context.MaxThreads = 32;

  FeatureVector F = buildFeatures(Context, 32);
  ASSERT_EQ(F.Values.size(), NumFeatures);
  EXPECT_DOUBLE_EQ(F.Values[0], Spec.Regions[1].Code.LoadStoreRatio);
  EXPECT_DOUBLE_EQ(F.Values[1], Spec.Regions[1].Code.InstructionWeight);
  EXPECT_DOUBLE_EQ(F.Values[2], Spec.Regions[1].Code.BranchRatio);
  EXPECT_DOUBLE_EQ(F.Values[3], 12.0);
  EXPECT_DOUBLE_EQ(F.Values[4], 24.0);
  EXPECT_DOUBLE_EQ(F.Values[5], 20.0);
  EXPECT_DOUBLE_EQ(F.Values[8], 0.8);
  EXPECT_DOUBLE_EQ(F.Now, 7.0);
  EXPECT_EQ(F.MaxThreads, 32u);
  EXPECT_NEAR(F.EnvNorm, Context.Env.scaledNorm(32.0), 1e-12);
}

TEST(FeaturesTest, EnvironmentPartIsLastSeven) {
  FeatureVector F = makeFeatures(24, 12, 20);
  Vec E = environmentPart(F);
  ASSERT_EQ(E.size(), 7u);
  EXPECT_DOUBLE_EQ(E[0], 12.0);
  EXPECT_DOUBLE_EQ(E[1], 24.0);
}

//===----------------------------------------------------------------------===//
// DefaultPolicy
//===----------------------------------------------------------------------===//

TEST(DefaultPolicyTest, ReturnsAvailableProcessors) {
  DefaultPolicy P;
  EXPECT_EQ(P.select(makeFeatures(32, 50, 80)), 32u);
  EXPECT_EQ(P.select(makeFeatures(8, 0, 0)), 8u);
  EXPECT_EQ(P.name(), "default");
}

TEST(DefaultPolicyTest, IgnoresWorkload) {
  DefaultPolicy P;
  EXPECT_EQ(P.select(makeFeatures(16, 0, 0)),
            P.select(makeFeatures(16, 100, 200)));
}

//===----------------------------------------------------------------------===//
// OnlinePolicy (hill climbing)
//===----------------------------------------------------------------------===//

TEST(OnlinePolicyTest, StartsAtHalfTheMachine) {
  OnlinePolicy P;
  EXPECT_EQ(P.select(makeFeatures(32, 0, 0, 32)), 16u);
}

TEST(OnlinePolicyTest, ClimbsWhileImproving) {
  workload::RegionSpec R;
  OnlinePolicy P(/*Window=*/1, /*Step=*/1);
  unsigned N = P.select(makeFeatures(32, 0, 0, 32));
  // Feed rates that improve with thread count: the climb must move up.
  for (int I = 0; I < 8; ++I) {
    P.observe(makeOutcome(&R, N, double(N)));
    N = P.select(makeFeatures(32, 0, 0, 32));
  }
  EXPECT_GT(N, 16u);
}

TEST(OnlinePolicyTest, ReversesWhenPerformanceDrops) {
  workload::RegionSpec R;
  OnlinePolicy P(1, 1);
  unsigned N = P.select(makeFeatures(32, 0, 0, 32));
  // Optimal at 12: rate decreases beyond it.
  auto RateAt = [](unsigned T) { return 10.0 - std::fabs(double(T) - 12.0); };
  std::set<unsigned> Visited;
  for (int I = 0; I < 60; ++I) {
    P.observe(makeOutcome(&R, N, RateAt(N)));
    N = P.select(makeFeatures(32, 0, 0, 32));
    Visited.insert(N);
  }
  // The climb must end near the optimum.
  EXPECT_LE(N, 15u);
  EXPECT_GE(N, 9u);
}

TEST(OnlinePolicyTest, ClampsAtMachineEdges) {
  workload::RegionSpec R;
  OnlinePolicy P(1, 4);
  unsigned N = P.select(makeFeatures(32, 0, 0, 32));
  for (int I = 0; I < 30; ++I) {
    P.observe(makeOutcome(&R, N, double(N))); // Always improving: go up.
    N = P.select(makeFeatures(32, 0, 0, 32));
    EXPECT_LE(N, 32u);
    EXPECT_GE(N, 1u);
  }
  EXPECT_EQ(N, 32u);
}

TEST(OnlinePolicyTest, ResetRestartsClimb) {
  workload::RegionSpec R;
  OnlinePolicy P(1, 2);
  unsigned N = P.select(makeFeatures(32, 0, 0, 32));
  P.observe(makeOutcome(&R, N, 5.0));
  P.reset();
  EXPECT_EQ(P.select(makeFeatures(32, 0, 0, 32)), 16u);
}

TEST(OnlinePolicyTest, WindowDelaysAdaptation) {
  workload::RegionSpec R;
  OnlinePolicy P(/*Window=*/5, /*Step=*/1);
  unsigned First = P.select(makeFeatures(32, 0, 0, 32));
  for (int I = 0; I < 4; ++I) {
    P.observe(makeOutcome(&R, First, 1.0));
    EXPECT_EQ(P.select(makeFeatures(32, 0, 0, 32)), First)
        << "must not move before the window fills";
  }
  P.observe(makeOutcome(&R, First, 1.0));
  EXPECT_NE(P.select(makeFeatures(32, 0, 0, 32)), First);
}

//===----------------------------------------------------------------------===//
// AnalyticPolicy
//===----------------------------------------------------------------------===//

TEST(AnalyticPolicyTest, ExploresTwoDistinctCounts) {
  workload::RegionSpec R;
  AnalyticPolicy P;
  unsigned First = P.select(makeFeatures(32, 0, 0, 32, 0.0));
  P.observe(makeOutcome(&R, First, 5.0));
  unsigned Second = P.select(makeFeatures(32, 0, 0, 32, 0.1));
  EXPECT_NE(First, Second);
  EXPECT_TRUE(P.exploring());
}

TEST(AnalyticPolicyTest, HoldsAfterFitting) {
  workload::RegionSpec R;
  AnalyticPolicy P;
  unsigned N1 = P.select(makeFeatures(32, 0, 0, 32, 0.0));
  P.observe(makeOutcome(&R, N1, double(N1)));
  unsigned N2 = P.select(makeFeatures(32, 0, 0, 32, 0.1));
  P.observe(makeOutcome(&R, N2, double(N2)));
  EXPECT_FALSE(P.exploring());
  unsigned Held = P.select(makeFeatures(32, 0, 0, 32, 0.2));
  EXPECT_EQ(P.select(makeFeatures(32, 0, 0, 32, 0.3)), Held);
  EXPECT_GE(Held, 1u);
  EXPECT_LE(Held, 32u);
}

TEST(AnalyticPolicyTest, ReExploresAfterHoldInterval) {
  workload::RegionSpec R;
  AnalyticPolicy::Options Options;
  Options.HoldInterval = 2.0;
  AnalyticPolicy P(Options);
  unsigned N1 = P.select(makeFeatures(32, 0, 0, 32, 0.0));
  P.observe(makeOutcome(&R, N1, 3.0));
  unsigned N2 = P.select(makeFeatures(32, 0, 0, 32, 0.1));
  P.observe(makeOutcome(&R, N2, 4.0));
  ASSERT_FALSE(P.exploring());
  P.select(makeFeatures(32, 0, 0, 32, 0.2));
  // Past the hold interval it must explore again.
  P.select(makeFeatures(32, 0, 0, 32, 3.0));
  EXPECT_TRUE(P.exploring());
}

TEST(AnalyticPolicyTest, DriftTriggersEarlyReExploration) {
  workload::RegionSpec R;
  AnalyticPolicy::Options Options;
  Options.HoldInterval = 1000.0; // Never re-explore on the clock.
  Options.DriftThreshold = 0.4;
  AnalyticPolicy P(Options);
  unsigned N1 = P.select(makeFeatures(32, 0, 0, 32, 0.0));
  P.observe(makeOutcome(&R, N1, 3.0));
  unsigned N2 = P.select(makeFeatures(32, 0, 0, 32, 0.1));
  P.observe(makeOutcome(&R, N2, 4.0));
  ASSERT_FALSE(P.exploring());
  unsigned Held = P.select(makeFeatures(32, 0, 0, 32, 0.2));
  // Establish the reference rate, then crash it.
  P.observe(makeOutcome(&R, Held, 4.0));
  P.observe(makeOutcome(&R, Held, 1.0)); // -75%: drift.
  P.select(makeFeatures(32, 0, 0, 32, 0.4));
  EXPECT_TRUE(P.exploring());
}

TEST(AnalyticPolicyTest, DeterministicGivenSeed) {
  AnalyticPolicy::Options Options;
  Options.Seed = 1234;
  AnalyticPolicy A(Options), B(Options);
  EXPECT_EQ(A.select(makeFeatures(32, 0, 0, 32, 0.0)),
            B.select(makeFeatures(32, 0, 0, 32, 0.0)));
}

TEST(AnalyticPolicyTest, ResetRestores) {
  workload::RegionSpec R;
  AnalyticPolicy P;
  unsigned First = P.select(makeFeatures(32, 0, 0, 32, 0.0));
  P.observe(makeOutcome(&R, First, 2.0));
  P.select(makeFeatures(32, 0, 0, 32, 0.1));
  P.reset();
  EXPECT_EQ(P.select(makeFeatures(32, 0, 0, 32, 0.0)), First);
}

//===----------------------------------------------------------------------===//
// OfflinePolicy
//===----------------------------------------------------------------------===//

namespace {

/// Trains a tiny model mapping processors (f5) to half its value.
LinearModel makeHalfProcessorsModel() {
  Dataset Data(featureNames());
  Rng R(3);
  for (int I = 0; I < 200; ++I) {
    double P = R.uniform(4, 32);
    Vec X = {0.3, 0.4, 0.1, 5.0, P, 10.0, 8.0, 8.0, 0.9, 0.01};
    Data.add(std::move(X), P / 2.0, "g");
  }
  auto Model = trainLinearModel(Data, "half");
  EXPECT_TRUE(Model.has_value());
  return *Model;
}

} // namespace

TEST(OfflinePolicyTest, FollowsItsModel) {
  OfflinePolicy P(makeHalfProcessorsModel());
  EXPECT_EQ(P.name(), "offline");
  EXPECT_NEAR(double(P.select(makeFeatures(24, 5, 10))), 12.0, 1.0);
  EXPECT_NEAR(double(P.select(makeFeatures(8, 5, 10))), 4.0, 1.0);
}

TEST(OfflinePolicyTest, ClampsToMachineBounds) {
  OfflinePolicy P(makeHalfProcessorsModel());
  FeatureVector F = makeFeatures(32, 5, 10, /*MaxThreads=*/4);
  unsigned N = P.select(F);
  EXPECT_GE(N, 1u);
  EXPECT_LE(N, 4u);
}

TEST(OfflinePolicyTest, CustomName) {
  OfflinePolicy P(makeHalfProcessorsModel(), "aggregate");
  EXPECT_EQ(P.name(), "aggregate");
}

//===----------------------------------------------------------------------===//
// Extended candidate features (Section 5.2.2 sweep)
//===----------------------------------------------------------------------===//

#include "policy/ExtendedFeatures.h"

TEST(ExtendedFeaturesTest, FirstTenAreTheDeployedFeatures) {
  const auto &Extended = extendedFeatureNames();
  const auto &Deployed = featureNames();
  ASSERT_GE(Extended.size(), Deployed.size());
  for (size_t I = 0; I < Deployed.size(); ++I)
    EXPECT_EQ(Extended[I], Deployed[I]);
  EXPECT_EQ(numExtendedFeatures(), Extended.size());
  EXPECT_GE(numExtendedFeatures(), 35u);
}

TEST(ExtendedFeaturesTest, VectorAlignsWithBaseFeatures) {
  const workload::ProgramSpec &Spec = workload::Catalog::byName("mg");
  workload::RegionContext Context;
  Context.Program = &Spec;
  Context.Region = &Spec.Regions[0];
  Context.Env.WorkloadThreads = 18;
  Context.Env.Processors = 24;
  Context.Env.RunQueue = 30;
  Context.Env.LoadAvg1 = 26;
  Context.Env.LoadAvg5 = 20;
  Context.Env.CachedMemory = 0.8;
  Context.Env.PageFreeRate = 0.02;
  Context.MaxThreads = 32;

  Vec Extended = buildExtendedFeatures(Context, 32);
  ASSERT_EQ(Extended.size(), numExtendedFeatures());
  FeatureVector Base = buildFeatures(Context, 32);
  for (size_t I = 0; I < NumFeatures; ++I)
    EXPECT_DOUBLE_EQ(Extended[I], Base.Values[I]);
}

TEST(ExtendedFeaturesTest, DerivedValuesAreConsistent) {
  const workload::ProgramSpec &Spec = workload::Catalog::byName("mg");
  workload::RegionContext Context;
  Context.Program = &Spec;
  Context.Region = &Spec.Regions[0];
  Context.Env.WorkloadThreads = 18;
  Context.Env.Processors = 24;
  Context.Env.RunQueue = 30;
  Context.MaxThreads = 32;

  const auto &Names = extendedFeatureNames();
  Vec X = buildExtendedFeatures(Context, 32);
  auto At = [&](const std::string &Name) {
    for (size_t I = 0; I < Names.size(); ++I)
      if (Names[I] == Name)
        return X[I];
    ADD_FAILURE() << "missing feature " << Name;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(At("utilization (runq/procs)"), 30.0 / 24.0);
  EXPECT_DOUBLE_EQ(At("overload flag"), 1.0);
  EXPECT_DOUBLE_EQ(At("runq minus procs"), 6.0);
  EXPECT_DOUBLE_EQ(At("procs squared"), 576.0);
  EXPECT_DOUBLE_EQ(At("cached minus cached (zero)"), 0.0);
  EXPECT_DOUBLE_EQ(At("page size (const)"), 4096.0);
}

//===----------------------------------------------------------------------===//
// Feature sanitization (degradation-ladder rung 1)
//===----------------------------------------------------------------------===//

TEST(FeaturesTest, SanitizeValuesZeroesNonFiniteEntries) {
  Vec Values = {1.0, std::nan(""), -std::numeric_limits<double>::infinity(),
                4.0};
  EXPECT_EQ(sanitizeValues(Values), 2u);
  EXPECT_EQ(Values, (Vec{1.0, 0.0, 0.0, 4.0}));
  EXPECT_EQ(sanitizeValues(Values), 0u);
}

TEST(FeaturesTest, BuildFeaturesSanitizesCorruptSample) {
  const workload::ProgramSpec &Spec = workload::Catalog::byName("lu");
  workload::RegionContext Context;
  Context.Program = &Spec;
  Context.Region = &Spec.Regions[0];
  Context.Env.WorkloadThreads = std::nan("");
  Context.Env.Processors = std::numeric_limits<double>::infinity();
  Context.Env.RunQueue = -1e18;
  Context.Env.CachedMemory = 0.5;
  Context.MaxThreads = 32;

  FeatureVector F = buildFeatures(Context, 32);
  for (double V : F.Values)
    EXPECT_TRUE(std::isfinite(V));
  EXPECT_TRUE(std::isfinite(F.EnvNorm));
  // The repaired fields: non-finite ones read 0, a negative counter 0.
  EXPECT_EQ(F.Values[3], 0.0);
  EXPECT_EQ(F.Values[4], 0.0);
  EXPECT_EQ(F.Values[5], 0.0);
  EXPECT_EQ(F.Values[8], 0.5);
}

//===----------------------------------------------------------------------===//
// Binding-site thread clamp (degradation-ladder rung 2)
//===----------------------------------------------------------------------===//

TEST(ThreadClampTest, RoundThreadsMatchesClampedLround) {
  // roundThreads stands in for std::clamp(std::lround(X), 1L, Max) on the
  // decision path; it must agree on every input, halves and their
  // neighbours included.
  std::vector<double> Inputs = {0.0,
                                -0.0,
                                0x1p52 - 1,
                                0x1p52,
                                0x1p52 + 1,
                                -(0x1p52 + 1),
                                0x1p53 + 2,
                                std::numeric_limits<double>::min(),
                                0.49999999999999994};
  for (int Whole = -4; Whole <= 40; ++Whole) {
    double Half = Whole + 0.5;
    Inputs.insert(Inputs.end(),
                  {Half, std::nextafter(Half, -HUGE_VAL),
                   std::nextafter(Half, HUGE_VAL), static_cast<double>(Whole)});
  }
#if defined(__GLIBC__) && defined(__x86_64__)
  // Out of lround's range glibc returns LONG_MIN, which clamps to 1.
  Inputs.insert(Inputs.end(),
                {0x1p63, -0x1p63, std::nextafter(0x1p63, 0.0), 0x1p64, 1e300,
                 -1e300, std::numeric_limits<double>::infinity(),
                 -std::numeric_limits<double>::infinity(),
                 std::numeric_limits<double>::quiet_NaN()});
#endif
  for (unsigned Max : {1u, 2u, 8u, 31u, 32u, 1000u, 4294967295u}) {
    std::vector<double> All = Inputs;
    for (double Edge : {Max - 0.5, Max + 0.5, double(Max)})
      All.insert(All.end(), {Edge, std::nextafter(Edge, -HUGE_VAL),
                             std::nextafter(Edge, HUGE_VAL)});
    for (double X : All) {
      long Expected =
          std::clamp(std::lround(X), 1L, static_cast<long>(Max));
      EXPECT_EQ(roundThreads(X, Max), static_cast<unsigned>(Expected))
          << "X = " << X << " (" << std::hexfloat << X << std::defaultfloat
          << "), Max = " << Max;
    }
  }
}

TEST(ThreadClampTest, CeilingIsAvailableProcessors) {
  EXPECT_EQ(runtime::threadCeiling(makeFeatures(4, 2, 6)), 4u);
  EXPECT_EQ(runtime::threadCeiling(makeFeatures(24, 2, 6)), 24u);
}

TEST(ThreadClampTest, ZeroAvailableWindowStillAllowsOneThread) {
  EXPECT_EQ(runtime::threadCeiling(makeFeatures(0, 2, 6)), 1u);
}

TEST(ThreadClampTest, CeilingNeverExceedsMachineCores) {
  // A corrupt (already sanitized but huge) processor reading must not
  // push the ceiling beyond the machine.
  EXPECT_EQ(runtime::threadCeiling(makeFeatures(64, 2, 6, /*MaxThreads=*/32)),
            32u);
}

namespace {

/// Policy that deliberately oversubscribes: always asks for far more
/// threads than the machine has.
class GreedyPolicy : public ThreadPolicy {
public:
  unsigned select(const FeatureVector &) override { return 999; }
  void reset() override {}
  const std::string &name() const override {
    static const std::string N = "greedy";
    return N;
  }
};

} // namespace

TEST(ThreadClampTest, BindPolicyClampsOversubscription) {
  GreedyPolicy Greedy;
  std::vector<runtime::Decision> Trace;
  workload::ThreadChooser Chooser = runtime::bindPolicy(Greedy, 32, &Trace);

  const workload::ProgramSpec &Spec = workload::Catalog::byName("lu");
  workload::RegionContext Context;
  Context.Program = &Spec;
  Context.Region = &Spec.Regions[0];
  Context.Env.Processors = 6;
  Context.MaxThreads = 32;

  EXPECT_EQ(Chooser(Context), 6u);
  ASSERT_EQ(Trace.size(), 1u);
  EXPECT_EQ(Trace[0].Threads, 6u);
  EXPECT_EQ(Trace[0].AvailableProcessors, 6u);
  EXPECT_TRUE(Trace[0].Clamped);

  // During a total outage the clamp floors at one thread.
  Context.Env.Processors = 0;
  EXPECT_EQ(Chooser(Context), 1u);
}
