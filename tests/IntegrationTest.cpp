//===-- tests/IntegrationTest.cpp - end-to-end paper-shape tests ---------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end checks that the trained system reproduces the paper's
/// qualitative results (see DESIGN.md §7): the mixture outperforms the
/// default and the adaptive baselines in dynamic scenarios, adds (almost)
/// no overhead in a static isolated system, never harms the external
/// workload, and its experts' environment predictors are accurate.
///
//===----------------------------------------------------------------------===//

#include "exp/Driver.h"
#include "exp/PolicySet.h"
#include "exp/Reporter.h"
#include "ml/CrossValidation.h"
#include "workload/Catalog.h"

#include <gtest/gtest.h>

using namespace medley;
using namespace medley::exp;

namespace {

DriverOptions quickOptions() {
  DriverOptions Options;
  Options.Repeats = 1; // Keep the suite fast; benches use 3 repeats.
  return Options;
}

/// A fast hmean over a representative subset of targets.
double hmeanSpeedup(Driver &D, const policy::PolicyFactory &Factory,
                    const Scenario &S,
                    const std::vector<std::string> &Targets) {
  std::vector<double> V;
  for (const std::string &T : Targets)
    V.push_back(D.speedup(T, Factory, S));
  return harmonicMean(V);
}

const std::vector<std::string> &subsetTargets() {
  static const std::vector<std::string> Targets = {"lu", "cg", "mg", "is",
                                                   "ep", "equake"};
  return Targets;
}

} // namespace

TEST(IntegrationTest, TrainedModelsHaveUsefulAccuracy) {
  PolicySet &Policies = PolicySet::instance();
  AccuracyOptions Acc;
  Acc.RelativeTolerance = 0.25;
  Acc.AbsoluteTolerance = 2.0;
  for (const core::BuiltExpert &B : Policies.builtExperts(4)) {
    double ThreadAcc =
        leaveOneGroupOut(Policies.builder().trainingData(4, B).Threads, {},
                         Acc)
            .Accuracy;
    EXPECT_GT(ThreadAcc, 0.5) << B.E.description();
  }
}

TEST(IntegrationTest, MixtureBeatsDefaultInDynamicScenarios) {
  PolicySet &Policies = PolicySet::instance();
  Driver D(quickOptions());
  for (const Scenario &S : Scenario::dynamicScenarios()) {
    double H = hmeanSpeedup(D, Policies.factory("mixture"), S,
                            subsetTargets());
    EXPECT_GT(H, 1.3) << S.Name;
  }
}

TEST(IntegrationTest, MixtureBeatsOnlineAndAnalyticInDynamicScenarios) {
  PolicySet &Policies = PolicySet::instance();
  Driver D(quickOptions());
  Scenario S = Scenario::largeLow();
  double Mixture =
      hmeanSpeedup(D, Policies.factory("mixture"), S, subsetTargets());
  double Online =
      hmeanSpeedup(D, Policies.factory("online"), S, subsetTargets());
  double Analytic =
      hmeanSpeedup(D, Policies.factory("analytic"), S, subsetTargets());
  EXPECT_GT(Mixture, Online);
  EXPECT_GT(Mixture, Analytic);
}

TEST(IntegrationTest, MixtureCompetitiveWithOfflineModel) {
  PolicySet &Policies = PolicySet::instance();
  Driver D(quickOptions());
  Scenario S = Scenario::smallLow();
  double Mixture =
      hmeanSpeedup(D, Policies.factory("mixture"), S, subsetTargets());
  double Offline =
      hmeanSpeedup(D, Policies.factory("offline"), S, subsetTargets());
  EXPECT_GT(Mixture, 0.95 * Offline);
}

TEST(IntegrationTest, NearZeroOverheadWhenIsolatedAndStatic) {
  // Paper Result 1: no slowdown in a static isolated system. We allow a
  // small tolerance on unseen ultra-scalable programs (see
  // EXPERIMENTS.md).
  PolicySet &Policies = PolicySet::instance();
  Driver D(quickOptions());
  Scenario S = Scenario::isolatedStatic();
  for (const std::string &T : workload::Catalog::evaluationTargets()) {
    double Speedup = D.speedup(T, Policies.factory("mixture"), S);
    EXPECT_GT(Speedup, 0.80) << T;
  }
}

TEST(IntegrationTest, MixtureImprovesIrregularProgramsInIsolation) {
  // Paper Result 1: "improves mg, cg, art" in the static isolated system.
  PolicySet &Policies = PolicySet::instance();
  Driver D(quickOptions());
  Scenario S = Scenario::isolatedStatic();
  for (const char *T : {"mg", "cg", "art"})
    EXPECT_GT(D.speedup(T, Policies.factory("mixture"), S), 1.05) << T;
}

TEST(IntegrationTest, MixtureDoesNotDegradeWorkloads) {
  // Paper Result 3: the mixture never slows the co-executing workload.
  PolicySet &Policies = PolicySet::instance();
  Driver D(quickOptions());
  Scenario S = Scenario::smallLow();
  for (const char *T : {"lu", "cg", "ep"}) {
    double Impact = D.workloadImpact(T, Policies.factory("mixture"), S);
    EXPECT_GT(Impact, 0.97) << T;
  }
}

TEST(IntegrationTest, EnvironmentPredictorsAreAccurate) {
  // Paper Fig 15a: experts predict the environment accurately most of the
  // time, and the mixture's chosen expert is at least as good as the
  // average expert.
  PolicySet &Policies = PolicySet::instance();
  auto Stats = std::make_shared<core::MoeStats>(4);
  Driver D(quickOptions());
  Scenario S = Scenario::largeLow();
  auto Factory = Policies.mixtureFactory(4, "regime", Stats);
  for (const char *T : {"lu", "cg", "mg"})
    D.measure(T, Factory, S, &S.workloadSets()[0]);

  ASSERT_GT(Stats->MixtureEnvTotal, 100u);
  double Sum = 0.0;
  for (size_t K = 0; K < 4; ++K) {
    double A = Stats->envAccuracy(K);
    EXPECT_GT(A, 0.3) << "expert " << K;
    Sum += A;
  }
  EXPECT_GE(Stats->mixtureEnvAccuracy() + 0.05, Sum / 4.0);
}

TEST(IntegrationTest, MoreExpertsNeverHurtMuch) {
  // Paper Figs 15c/16: adding experts improves (monotone trend with slack
  // for noise).
  PolicySet &Policies = PolicySet::instance();
  Driver D(quickOptions());
  Scenario S = Scenario::largeLow();
  std::vector<std::string> Probe = {"lu", "cg", "mg", "is"};
  double K1 = hmeanSpeedup(D, Policies.mixtureFactory(1, "accuracy"), S,
                           Probe);
  double K4 = hmeanSpeedup(D, Policies.mixtureFactory(4, "regime"), S,
                           Probe);
  double K8 = hmeanSpeedup(D, Policies.mixtureFactory(8, "regime"), S,
                           Probe);
  EXPECT_GT(K4, 0.95 * K1);
  EXPECT_GT(K8, 0.9 * K4);
  EXPECT_GT(K8, K1);
}

TEST(IntegrationTest, AffinityHelpsTheMixture) {
  // Paper Fig 14b: affinity scheduling improves every policy; the mixture
  // benefits as well.
  PolicySet &Policies = PolicySet::instance();
  Scenario Plain = Scenario::smallLow();
  Scenario Affine = Plain.withAffinity();
  Driver D(quickOptions());
  // Affinity changes the machine for both the policy run and its default
  // baseline, so compare end-to-end times: the affinity run must not be
  // slower than the plain run.
  const workload::WorkloadSet &Set = Plain.workloadSets()[0];
  double PlainTime =
      D.measure("mg", Policies.factory("mixture"), Plain, &Set)
          .MeanTargetTime;
  double AffineTime =
      D.measure("mg", Policies.factory("mixture"), Affine, &Set)
          .MeanTargetTime;
  EXPECT_LT(AffineTime, PlainTime * 1.02);
}

TEST(IntegrationTest, SmartWorkloadsCreateWinWin) {
  // Paper Result 4 direction: both sides adopting the mixture policy must
  // not be worse than both sides using the default.
  PolicySet &Policies = PolicySet::instance();
  Driver D(quickOptions());
  Scenario S = Scenario::smallLow();
  const workload::WorkloadSet &Set = S.workloadSets()[0];

  policy::PolicyFactory Mixture = Policies.factory("mixture");
  Measurement Smart = D.measure("lu", Mixture, S, &Set, &Mixture);
  std::shared_ptr<const Measurement> Dumb = D.defaultMeasurement("lu", S, &Set);
  double TargetGain = Dumb->MeanTargetTime / Smart.MeanTargetTime;
  double WorkloadGain =
      Smart.MeanWorkloadThroughput / Dumb->MeanWorkloadThroughput;
  EXPECT_GT(TargetGain, 1.0);
  EXPECT_GT(WorkloadGain, 0.97);
}
