//===-- tests/ContractTest.cpp - cross-cutting contracts and properties ---------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contracts every policy must honour regardless of implementation, and
/// consistency properties tying the oracle's analytic model to the live
/// simulation. Parameterised over all policies / programs so regressions
/// in any one implementation are caught by the same suite.
///
//===----------------------------------------------------------------------===//

#include "core/Oracle.h"
#include "exp/PolicySet.h"
#include "runtime/CoExecution.h"
#include "workload/Catalog.h"
#include "workload/WorkloadSets.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

using namespace medley;

namespace {

runtime::CoExecutionConfig dynamicConfig() {
  runtime::CoExecutionConfig Config;
  Config.Machine = sim::MachineConfig::evaluationPlatform();
  Config.Availability = [] {
    return sim::PeriodicAvailability::standardLadder(32, 12.0, 0xC0);
  };
  Config.WorkloadSeed = 0xC0;
  Config.WorkloadMaxThreads = 10;
  Config.MaxTime = 900.0;
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// Policy contracts: every policy, same dynamic run.
//===----------------------------------------------------------------------===//

class PolicyContractTest : public ::testing::TestWithParam<const char *> {};

TEST_P(PolicyContractTest, DecisionsAreValidAndTargetFinishes) {
  exp::PolicySet &Policies = exp::PolicySet::instance();
  auto Policy = Policies.factory(GetParam())();
  runtime::CoExecutionResult Result = runCoExecution(
      dynamicConfig(), workload::Catalog::byName("lu"), *Policy,
      runtime::patternWorkload({"cg", "ft"}));

  EXPECT_TRUE(Result.TargetFinished) << GetParam();
  ASSERT_FALSE(Result.TargetDecisions.empty());
  for (const runtime::Decision &D : Result.TargetDecisions) {
    EXPECT_GE(D.Threads, 1u) << GetParam();
    EXPECT_LE(D.Threads, 32u) << GetParam();
    EXPECT_GE(D.EnvNorm, 0.0) << GetParam();
  }
  // Decision timestamps are non-decreasing.
  for (size_t I = 1; I < Result.TargetDecisions.size(); ++I)
    EXPECT_GE(Result.TargetDecisions[I].Time,
              Result.TargetDecisions[I - 1].Time);
}

TEST_P(PolicyContractTest, DeterministicAcrossRuns) {
  exp::PolicySet &Policies = exp::PolicySet::instance();
  auto P1 = Policies.factory(GetParam())();
  auto P2 = Policies.factory(GetParam())();
  double T1 = runCoExecution(dynamicConfig(),
                             workload::Catalog::byName("mg"), *P1,
                             runtime::patternWorkload({"is"}))
                  .TargetTime;
  double T2 = runCoExecution(dynamicConfig(),
                             workload::Catalog::byName("mg"), *P2,
                             runtime::patternWorkload({"is"}))
                  .TargetTime;
  EXPECT_DOUBLE_EQ(T1, T2) << GetParam();
}

TEST_P(PolicyContractTest, ResetMakesInstancesReusable) {
  exp::PolicySet &Policies = exp::PolicySet::instance();
  auto Policy = Policies.factory(GetParam())();
  double First = runCoExecution(dynamicConfig(),
                                workload::Catalog::byName("cg"), *Policy,
                                runtime::patternWorkload({"lu"}))
                     .TargetTime;
  Policy->reset();
  double Second = runCoExecution(dynamicConfig(),
                                 workload::Catalog::byName("cg"), *Policy,
                                 runtime::patternWorkload({"lu"}))
                      .TargetTime;
  EXPECT_DOUBLE_EQ(First, Second) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyContractTest,
                         ::testing::Values("default", "online", "offline",
                                           "analytic", "mixture"));

//===----------------------------------------------------------------------===//
// Oracle vs live simulation consistency.
//===----------------------------------------------------------------------===//

namespace {

/// One (program, thread count) case. PrintTo names it "lu_4": a bare
/// `const char *` parameter prints as its address, which moves with every
/// build, so the discovered ctest names changed from build to build.
struct OracleCase {
  const char *Program;
  unsigned Threads;
};

void PrintTo(const OracleCase &Case, std::ostream *OS) {
  *OS << Case.Program << '_' << Case.Threads;
}

std::vector<OracleCase> oracleCases() {
  std::vector<OracleCase> Cases;
  for (const char *Program : {"lu", "cg", "ep", "ft"})
    for (unsigned Threads : {4u, 12u, 24u})
      Cases.push_back({Program, Threads});
  return Cases;
}

} // namespace

/// Property: the oracle's predicted rate for a frozen environment matches
/// what the simulator actually delivers for a single program running at a
/// fixed thread count with a constant co-runner.
class OracleConsistencyTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(OracleConsistencyTest, PredictedRateMatchesSimulatedRate) {
  auto [Name, Threads] = GetParam();
  const workload::ProgramSpec &Spec = workload::Catalog::byName(Name);
  sim::MachineConfig Machine = sim::MachineConfig::evaluationPlatform();

  // A constant synthetic co-runner: fixed threads, fixed memory demand.
  const unsigned CoThreads = 20;
  workload::ProgramSpec CoSpec = workload::Catalog::byName("swim");

  sim::Simulation Simulation(
      Machine, std::make_unique<sim::StaticAvailability>(32), 0.1);
  auto CoRunner = std::make_shared<workload::Program>(
      CoSpec, workload::fixedChooser(CoThreads), 32, /*Looping=*/true);
  auto Target = std::make_shared<workload::Program>(
      Spec, workload::fixedChooser(Threads), 32, /*Looping=*/true);
  Simulation.addTask(CoRunner);
  Simulation.addTask(Target);

  // Warm up, then measure the target's aggregate work rate over a window.
  Simulation.runUntil([] { return false; }, 10.0);
  double WorkBefore = Target->workCompleted();
  Simulation.runUntil([] { return false; }, 40.0);
  double MeasuredRate = (Target->workCompleted() - WorkBefore) / 30.0;

  // The oracle's prediction: work-weighted rate over the three regions,
  // using the co-runner's true thread count and memory demand. The
  // co-runner's demand varies by its current region; bound it instead of
  // pinning it.
  double TotalWork = 0.0, TotalTime = 0.0;
  for (const workload::RegionSpec &R : Spec.Regions) {
    core::OracleEnv Env;
    Env.AvailableCores = 32;
    Env.ExternalThreads = CoThreads;
    Env.ExternalMemDemand = CoThreads * 0.7; // Mid-range swim demand.
    double Rate = core::oracleRegionRate(R, Threads, Env, Machine);
    TotalWork += R.Work;
    TotalTime += R.Work / Rate;
  }
  double PredictedRate = TotalWork / TotalTime;

  // Region interleaving between the two programs makes the environment
  // breathe, so allow a generous band — the point is that the oracle is
  // the right model, not an unrelated formula.
  EXPECT_GT(MeasuredRate, 0.55 * PredictedRate)
      << Name << " at " << Threads << " threads";
  EXPECT_LT(MeasuredRate, 1.8 * PredictedRate)
      << Name << " at " << Threads << " threads";
}

INSTANTIATE_TEST_SUITE_P(ProgramsAndThreads, OracleConsistencyTest,
                         ::testing::ValuesIn(oracleCases()));

//===----------------------------------------------------------------------===//
// Fatal-error paths.
//===----------------------------------------------------------------------===//

TEST(FatalErrorTest, UnknownProgramAborts) {
  EXPECT_DEATH(workload::Catalog::byName("no-such-program"),
               "unknown program");
}

TEST(FatalErrorTest, UnknownWorkloadSizeAborts) {
  EXPECT_DEATH(workload::workloadsBySize("gigantic"),
               "unknown workload size");
}

TEST(FatalErrorTest, UnknownPolicyAborts) {
  EXPECT_DEATH(exp::PolicySet::instance().factory("clairvoyant"),
               "unknown policy");
}

TEST(FatalErrorTest, UnsupportedExpertCountAborts) {
  core::TrainingConfig Config;
  Config.Programs = {"cg", "ep"};
  Config.Platforms = {sim::MachineConfig::evaluationPlatform()};
  Config.SplitPlatformIndex = 0;
  Config.RunDuration = 5.0;
  core::ExpertBuilder Builder(Config);
  EXPECT_DEATH(Builder.build(3), "unsupported expert count");
}

TEST(FatalErrorTest, BadSubsampleFractionAborts) {
  core::TrainingConfig Config;
  Config.Programs = {"cg", "ep"};
  Config.Platforms = {sim::MachineConfig::evaluationPlatform()};
  Config.SplitPlatformIndex = 0;
  Config.RunDuration = 5.0;
  core::ExpertBuilder Builder(Config);
  EXPECT_DEATH(Builder.buildSubsampled(2, 0.0), "fraction");
}
