//===-- tests/ExpTest.cpp - experiment harness tests ---------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exp/Driver.h"
#include "exp/PolicySet.h"
#include "exp/Reporter.h"
#include "support/Fnv.h"
#include "workload/Catalog.h"

#include <gtest/gtest.h>

#include <bit>
#include <sstream>

using namespace medley;
using namespace medley::exp;

//===----------------------------------------------------------------------===//
// Scenario
//===----------------------------------------------------------------------===//

TEST(ScenarioTest, PaperSettings) {
  EXPECT_EQ(Scenario::isolatedStatic().workloadSets().size(), 0u);
  EXPECT_DOUBLE_EQ(Scenario::isolatedStatic().availabilityPeriod(), 0.0);

  Scenario SmallLow = Scenario::smallLow();
  EXPECT_EQ(SmallLow.WorkloadSize, "small");
  EXPECT_DOUBLE_EQ(SmallLow.availabilityPeriod(), 20.0);
  EXPECT_EQ(SmallLow.workloadSets().size(), 2u);

  Scenario LargeHigh = Scenario::largeHigh();
  EXPECT_DOUBLE_EQ(LargeHigh.availabilityPeriod(), 10.0);
  EXPECT_EQ(LargeHigh.workloadSets()[1].Programs.size(), 7u);

  EXPECT_EQ(Scenario::dynamicScenarios().size(), 4u);
}

TEST(ScenarioTest, AffinityModifier) {
  Scenario S = Scenario::smallLow().withAffinity();
  EXPECT_TRUE(S.Affinity);
  EXPECT_NE(S.Name.find("affinity"), std::string::npos);
}

TEST(ScenarioTest, LiveStudyUsesTraceHardware) {
  Scenario S = Scenario::liveStudy();
  EXPECT_EQ(S.Hardware, HardwareChange::LiveTrace);
  EXPECT_FALSE(S.workloadSets().empty());
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

namespace {

DriverOptions quickOptions() {
  DriverOptions Options;
  Options.Repeats = 1;
  return Options;
}

} // namespace

TEST(DriverTest, DefaultPolicySpeedupIsOne) {
  Driver D(quickOptions());
  PolicySet &Policies = PolicySet::instance();
  Scenario S = Scenario::isolatedStatic();
  EXPECT_NEAR(D.speedup("cg", Policies.factory("default"), S), 1.0, 1e-9);
}

TEST(DriverTest, BaselineCacheReturnsSameObject) {
  Driver D(quickOptions());
  Scenario S = Scenario::isolatedStatic();
  std::shared_ptr<const Measurement> A = D.defaultMeasurement("cg", S, nullptr);
  std::shared_ptr<const Measurement> B = D.defaultMeasurement("cg", S, nullptr);
  EXPECT_EQ(A.get(), B.get());
  EXPECT_GT(A->MeanTargetTime, 0.0);
  // The entry survives a cache clear: callers never hold dangling
  // references into the cache (the old per-driver map could rehash away).
  D.clearCache();
  EXPECT_GT(A->MeanTargetTime, 0.0);
  std::shared_ptr<const Measurement> C = D.defaultMeasurement("cg", S, nullptr);
  EXPECT_DOUBLE_EQ(C->MeanTargetTime, A->MeanTargetTime);
}

TEST(DriverTest, MeasurementsAreDeterministic) {
  PolicySet &Policies = PolicySet::instance();
  Scenario S = Scenario::smallLow();
  Driver D1(quickOptions()), D2(quickOptions());
  const workload::WorkloadSet &Set = S.workloadSets()[0];
  Measurement A = D1.measure("lu", Policies.factory("online"), S, &Set);
  Measurement B = D2.measure("lu", Policies.factory("online"), S, &Set);
  EXPECT_DOUBLE_EQ(A.MeanTargetTime, B.MeanTargetTime);
}

TEST(DriverTest, RepeatsAreAveraged) {
  DriverOptions Options;
  Options.Repeats = 3;
  Driver D(Options);
  PolicySet &Policies = PolicySet::instance();
  Scenario S = Scenario::smallLow();
  const workload::WorkloadSet &Set = S.workloadSets()[0];
  Measurement M = D.measure("cg", Policies.factory("default"), S, &Set);
  ASSERT_EQ(M.Runs.size(), 3u);
  double Sum = 0.0;
  for (const auto &Run : M.Runs)
    Sum += Run.TargetTime;
  EXPECT_NEAR(M.MeanTargetTime, Sum / 3.0, 1e-9);
}

TEST(DriverTest, WorkloadImpactOfDefaultIsOne) {
  Driver D(quickOptions());
  PolicySet &Policies = PolicySet::instance();
  Scenario S = Scenario::smallLow();
  EXPECT_NEAR(D.workloadImpact("cg", Policies.factory("default"), S), 1.0,
              1e-9);
}

TEST(DriverTest, LiveScenarioRuns) {
  Driver D(quickOptions());
  PolicySet &Policies = PolicySet::instance();
  Scenario S = Scenario::liveStudy();
  double Speedup = D.speedup("cg", Policies.factory("mixture"), S);
  EXPECT_GT(Speedup, 0.3);
  EXPECT_LT(Speedup, 30.0);
}

TEST(DriverTest, SimulatorOutputsArePinned) {
  // A small fixed set of co-executions, digested bit for bit: every target
  // time, workload throughput, region count and recorded decision. The
  // constant was computed before the simulator read task state in place
  // (DESIGN.md §13.1); any change to the tick arithmetic, the reduction
  // cache or the rate cache moves it.
  DriverOptions Options = quickOptions();
  Options.Jobs = 1;
  Driver D(Options);
  PolicySet &Policies = PolicySet::instance();
  const std::vector<Scenario> &Dynamic = Scenario::dynamicScenarios();
  uint64_t Hash = support::fnv1aInit();
  auto FoldDouble = [&Hash](double V) {
    Hash = support::fnv1aWord(Hash, std::bit_cast<uint64_t>(V));
  };
  for (const Scenario *S : {&Dynamic.front(), &Dynamic.back()})
    for (const char *Target : {"cg", "lu", "art"})
      for (const char *Policy : {"default", "mixture"})
        for (const workload::WorkloadSet &Set : S->workloadSets()) {
          Measurement M = D.measure(Target, Policies.factory(Policy), *S, &Set);
          ASSERT_TRUE(M.Failures.empty());
          for (const runtime::CoExecutionResult &Run : M.Runs) {
            FoldDouble(Run.TargetTime);
            FoldDouble(Run.WorkloadThroughput);
            Hash = support::fnv1aWord(Hash, Run.TargetRegions);
            for (const runtime::Decision &Dec : Run.TargetDecisions) {
              FoldDouble(Dec.Time);
              Hash = support::fnv1aWord(Hash, Dec.Threads);
              FoldDouble(Dec.EnvNorm);
              Hash = support::fnv1aWord(Hash, Dec.AvailableProcessors);
              Hash = support::fnv1aWord(Hash, Dec.Clamped);
            }
          }
        }
  EXPECT_EQ(Hash, 0x1274c1df6ed87975ULL);
}

//===----------------------------------------------------------------------===//
// Reporter
//===----------------------------------------------------------------------===//

TEST(ReporterTest, MatrixAggregation) {
  SpeedupMatrix M;
  M.Targets = {"a", "b"};
  M.Policies = {"p", "q"};
  M.Values = {{1.0, 2.0}, {1.0, 4.0}};
  auto H = M.hmeanPerPolicy();
  ASSERT_EQ(H.size(), 2u);
  EXPECT_NEAR(H[0], 1.0, 1e-12);
  EXPECT_NEAR(H[1], harmonicMean({2.0, 4.0}), 1e-12);
  EXPECT_EQ(M.policyIndex("q"), 1u);
}

TEST(ReporterTest, PrintSpeedupMatrixContainsRows) {
  SpeedupMatrix M;
  M.Targets = {"cg"};
  M.Policies = {"mixture"};
  M.Values = {{1.5}};
  std::ostringstream OS;
  printSpeedupMatrix(OS, "Figure N", M);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("Figure N"), std::string::npos);
  EXPECT_NE(Out.find("cg"), std::string::npos);
  EXPECT_NE(Out.find("mixture"), std::string::npos);
  EXPECT_NE(Out.find("hmean"), std::string::npos);
}

TEST(ReporterTest, SpeedupMatrixCsvRoundTrips) {
  SpeedupMatrix M;
  M.Targets = {"cg", "lu"};
  M.Policies = {"online", "mixture"};
  M.Values = {{1.0, 1.5}, {2.0, 3.0}};
  std::ostringstream OS;
  writeSpeedupMatrixCsv(OS, M);
  std::string Out = OS.str();
  EXPECT_EQ(Out.rfind("benchmark,online,mixture\n", 0), 0u) << Out;
  EXPECT_NE(Out.find("cg,1.0000,1.5000\n"), std::string::npos) << Out;
  EXPECT_NE(Out.find("lu,2.0000,3.0000\n"), std::string::npos) << Out;
  EXPECT_NE(Out.find("hmean,"), std::string::npos) << Out;
}

TEST(ReporterTest, PrintBars) {
  std::ostringstream OS;
  printBars(OS, "Bars", {"one", "two"}, {1.0, 2.0});
  std::string Out = OS.str();
  EXPECT_NE(Out.find("one"), std::string::npos);
  EXPECT_NE(Out.find("##"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// PolicySet
//===----------------------------------------------------------------------===//

TEST(PolicySetTest, FactoriesProduceNamedPolicies) {
  PolicySet &Policies = PolicySet::instance();
  EXPECT_EQ(Policies.factory("default")()->name(), "default");
  EXPECT_EQ(Policies.factory("online")()->name(), "online");
  EXPECT_EQ(Policies.factory("offline")()->name(), "offline");
  EXPECT_EQ(Policies.factory("analytic")()->name(), "analytic");
  EXPECT_EQ(Policies.factory("mixture")()->name(), "mixture");
}

TEST(PolicySetTest, ExpertSetsAreCached) {
  PolicySet &Policies = PolicySet::instance();
  EXPECT_EQ(Policies.experts(4).get(), Policies.experts(4).get());
  EXPECT_EQ(Policies.experts(4)->size(), 4u);
  EXPECT_EQ(Policies.experts(2)->size(), 2u);
}

TEST(PolicySetTest, MixtureFactorySharesStats) {
  PolicySet &Policies = PolicySet::instance();
  auto Stats = std::make_shared<core::MoeStats>(4);
  auto Factory = Policies.mixtureFactory(4, "regime", Stats);
  auto P1 = Factory();
  auto P2 = Factory();
  policy::FeatureVector F;
  F.Values = Vec(policy::NumFeatures, 1.0);
  F.EnvNorm = 1.0;
  F.MaxThreads = 32;
  P1->select(F);
  P2->select(F);
  size_t Total = 0;
  for (size_t C : Stats->SelectionCounts)
    Total += C;
  EXPECT_EQ(Total, 2u);
}

TEST(PolicySetTest, SingleExpertFactoryPinsExpert) {
  PolicySet &Policies = PolicySet::instance();
  auto Factory = Policies.singleExpertFactory(4, 2);
  auto P = Factory();
  auto *Mix = dynamic_cast<core::MixtureOfExperts *>(P.get());
  ASSERT_NE(Mix, nullptr);
  policy::FeatureVector F;
  F.Values = Vec(policy::NumFeatures, 1.0);
  F.EnvNorm = 1.0;
  F.MaxThreads = 32;
  Mix->select(F);
  EXPECT_EQ(Mix->lastExpert(), 2u);
}

TEST(PolicySetTest, AllSelectorKindsConstruct) {
  PolicySet &Policies = PolicySet::instance();
  for (const char *Kind : {"regime", "accuracy", "binned", "perceptron",
                           "hyperplane", "random"}) {
    auto P = Policies.mixtureFactory(4, Kind)();
    EXPECT_EQ(P->name(), "mixture") << Kind;
  }
}

TEST(PolicySetTest, StandardPoliciesOrder) {
  const auto &Names = PolicySet::standardPolicies();
  ASSERT_EQ(Names.size(), 4u);
  EXPECT_EQ(Names.back(), "mixture");
}
