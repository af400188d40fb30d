//===-- tests/RuntimeTest.cpp - runtime/co-execution tests ---------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "policy/DefaultPolicy.h"
#include "policy/OnlinePolicy.h"
#include "runtime/CoExecution.h"
#include "runtime/PolicyBinding.h"
#include "support/Csv.h"
#include "support/StringUtils.h"
#include "workload/Catalog.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

using namespace medley;
using namespace medley::runtime;

namespace {

CoExecutionConfig staticConfig(double MaxTime = 600.0) {
  CoExecutionConfig Config;
  Config.Machine = sim::MachineConfig::evaluationPlatform();
  unsigned Cores = Config.Machine.TotalCores;
  Config.Availability = [Cores] {
    return std::make_unique<sim::StaticAvailability>(Cores);
  };
  Config.MaxTime = MaxTime;
  return Config;
}

/// Policy that always chooses a constant and records what it saw.
class RecordingPolicy : public policy::ThreadPolicy {
public:
  explicit RecordingPolicy(unsigned N) : N(N) {}
  unsigned select(const policy::FeatureVector &Features) override {
    Selections.push_back(Features);
    return N;
  }
  void observe(const workload::RegionOutcome &Outcome) override {
    Outcomes.push_back(Outcome);
  }
  void reset() override {
    Selections.clear();
    Outcomes.clear();
  }
  const std::string &name() const override {
    static const std::string Name = "recording";
    return Name;
  }

  std::vector<policy::FeatureVector> Selections;
  std::vector<workload::RegionOutcome> Outcomes;

private:
  unsigned N;
};

} // namespace

//===----------------------------------------------------------------------===//
// Policy binding
//===----------------------------------------------------------------------===//

TEST(PolicyBindingTest, ChooserAssemblesFeaturesAndTraces) {
  RecordingPolicy Policy(6);
  std::vector<Decision> Trace;
  workload::ThreadChooser Chooser = bindPolicy(Policy, 32, &Trace);

  const workload::ProgramSpec &Spec = workload::Catalog::byName("mg");
  workload::RegionContext Context;
  Context.Program = &Spec;
  Context.Region = &Spec.Regions[0];
  Context.Env.Processors = 24;
  Context.Env.RunQueue = 30;
  Context.Now = 4.5;
  Context.MaxThreads = 32;

  EXPECT_EQ(Chooser(Context), 6u);
  ASSERT_EQ(Policy.Selections.size(), 1u);
  EXPECT_DOUBLE_EQ(Policy.Selections[0].Values[4], 24.0);
  ASSERT_EQ(Trace.size(), 1u);
  EXPECT_DOUBLE_EQ(Trace[0].Time, 4.5);
  EXPECT_EQ(Trace[0].Threads, 6u);
  EXPECT_GT(Trace[0].EnvNorm, 0.0);
}

TEST(PolicyBindingTest, ObserverForwardsOutcomes) {
  RecordingPolicy Policy(4);
  workload::RegionObserver Observer = bindObserver(Policy);
  workload::RegionOutcome Outcome;
  Outcome.Threads = 4;
  Outcome.Work = 1.0;
  Outcome.Duration = 0.5;
  Observer(Outcome);
  ASSERT_EQ(Policy.Outcomes.size(), 1u);
  EXPECT_DOUBLE_EQ(Policy.Outcomes[0].rate(), 2.0);
}

//===----------------------------------------------------------------------===//
// Co-execution
//===----------------------------------------------------------------------===//

TEST(CoExecutionTest, IsolatedTargetFinishes) {
  policy::DefaultPolicy Policy;
  CoExecutionResult Result = runCoExecution(
      staticConfig(), workload::Catalog::byName("is"), Policy, {});
  EXPECT_TRUE(Result.TargetFinished);
  EXPECT_GT(Result.TargetTime, 0.0);
  EXPECT_GT(Result.TargetRegions, 100u);
  EXPECT_FALSE(Result.TargetDecisions.empty());
  EXPECT_DOUBLE_EQ(Result.WorkloadThroughput, 0.0);
}

TEST(CoExecutionTest, WorkloadRunsUntilTargetFinishes) {
  policy::DefaultPolicy Policy;
  CoExecutionResult Result =
      runCoExecution(staticConfig(), workload::Catalog::byName("is"), Policy,
                     patternWorkload({"cg", "lu"}));
  EXPECT_TRUE(Result.TargetFinished);
  EXPECT_GT(Result.WorkloadThroughput, 0.0);
}

TEST(CoExecutionTest, ContentionSlowsTheTarget) {
  policy::DefaultPolicy A, B;
  double Isolated =
      runCoExecution(staticConfig(), workload::Catalog::byName("is"), A, {})
          .TargetTime;
  double Loaded =
      runCoExecution(staticConfig(), workload::Catalog::byName("is"), B,
                     patternWorkload({"bt", "sp", "cg", "art"}))
          .TargetTime;
  EXPECT_GT(Loaded, Isolated * 1.2);
}

TEST(CoExecutionTest, DeterministicForIdenticalConfig) {
  policy::DefaultPolicy A, B;
  CoExecutionResult R1 =
      runCoExecution(staticConfig(), workload::Catalog::byName("cg"), A,
                     patternWorkload({"lu"}));
  CoExecutionResult R2 =
      runCoExecution(staticConfig(), workload::Catalog::byName("cg"), B,
                     patternWorkload({"lu"}));
  EXPECT_DOUBLE_EQ(R1.TargetTime, R2.TargetTime);
  EXPECT_DOUBLE_EQ(R1.WorkloadThroughput, R2.WorkloadThroughput);
  ASSERT_EQ(R1.TargetDecisions.size(), R2.TargetDecisions.size());
}

TEST(CoExecutionTest, WorkloadBehaviourIndependentOfTargetPolicy) {
  // The reproducibility requirement of Section 6.4: the same external
  // workload must be replayed for every policy under comparison. Workload
  // thread patterns are functions of time only, so the trace of workload
  // threads must match across different target policies at identical
  // timestamps.
  CoExecutionConfig Config = staticConfig();
  Config.RecordTraces = true;
  policy::DefaultPolicy Default;
  policy::OnlinePolicy Online;
  CoExecutionResult R1 = runCoExecution(
      Config, workload::Catalog::byName("cg"), Default,
      patternWorkload({"lu", "ft"}));
  CoExecutionResult R2 =
      runCoExecution(Config, workload::Catalog::byName("cg"), Online,
                     patternWorkload({"lu", "ft"}));
  size_t Common = std::min(R1.Trace.size(), R2.Trace.size());
  ASSERT_GT(Common, 50u);
  // Workload thread decisions are piecewise-constant in time with period
  // >= 5s; compare at coarse time points to avoid region-boundary skew.
  for (size_t I = 0; I + 60 < Common; I += 60)
    EXPECT_EQ(R1.Trace[I].WorkloadThreads, R2.Trace[I].WorkloadThreads)
        << "tick " << I;
}

TEST(CoExecutionTest, TimeoutReported) {
  CoExecutionConfig Config = staticConfig(/*MaxTime=*/1.0);
  policy::DefaultPolicy Policy;
  CoExecutionResult Result = runCoExecution(
      Config, workload::Catalog::byName("ep"), Policy, {});
  EXPECT_FALSE(Result.TargetFinished);
  EXPECT_DOUBLE_EQ(Result.TargetTime, 1.0);
}

TEST(CoExecutionTest, TracesRecordedOnRequest) {
  CoExecutionConfig Config = staticConfig();
  Config.RecordTraces = true;
  policy::DefaultPolicy Policy;
  CoExecutionResult Result =
      runCoExecution(Config, workload::Catalog::byName("is"), Policy,
                     patternWorkload({"cg"}));
  ASSERT_FALSE(Result.Trace.empty());
  for (size_t I = 0; I < Result.Trace.size(); I += 50) {
    EXPECT_EQ(Result.Trace[I].AvailableCores, 32u);
    EXPECT_GE(Result.Trace[I].EnvNorm, 0.0);
  }
  // Time advances monotonically.
  for (size_t I = 1; I < Result.Trace.size(); ++I)
    EXPECT_GT(Result.Trace[I].Time, Result.Trace[I - 1].Time);
}

TEST(ColumnarTrace, CsvExportMatchesCsvWriterByteForByte) {
  // Rows with fractions that need all six decimals.
  std::vector<TracePoint> Trace;
  for (size_t I = 0; I < 41; ++I) {
    TracePoint P;
    P.Time = 0.1 * static_cast<double>(I + 1) + 1.0 / 3.0;
    P.AvailableCores = static_cast<unsigned>(8 + (I * 7) % 25);
    P.WorkloadThreads = static_cast<unsigned>((I * 3) % 17);
    P.TargetThreads = static_cast<unsigned>(1 + (I * 5) % 31);
    P.EnvNorm = 1.0 + std::sin(static_cast<double>(I)) * 0.75;
    Trace.push_back(P);
  }

  std::ostringstream Exported;
  exportCsv(Trace, Exported);

  // The golden: the same rows emitted through an unbuffered CsvWriter.
  std::ostringstream Golden;
  {
    CsvWriter W(Golden);
    W.writeRow({"time", "available_cores", "workload_threads",
                "target_threads", "env_norm"});
    for (const TracePoint &P : Trace)
      W.writeRow({formatDouble(P.Time, 6), std::to_string(P.AvailableCores),
                  std::to_string(P.WorkloadThreads),
                  std::to_string(P.TargetThreads),
                  formatDouble(P.EnvNorm, 6)});
  }
  EXPECT_EQ(Exported.str(), Golden.str());
}

TEST(CoExecutionTest, PolicyDrivenWorkload) {
  CoExecutionConfig Config = staticConfig();
  policy::DefaultPolicy Target;
  std::vector<WorkloadProgramSetup> Workload;
  WorkloadProgramSetup Setup;
  Setup.Spec = workload::Catalog::byName("cg");
  Setup.Policy = std::make_shared<policy::OnlinePolicy>();
  Workload.push_back(std::move(Setup));
  CoExecutionResult Result = runCoExecution(
      Config, workload::Catalog::byName("is"), Target, std::move(Workload));
  EXPECT_TRUE(Result.TargetFinished);
  EXPECT_GT(Result.WorkloadThroughput, 0.0);
}

TEST(CoExecutionTest, ExplicitChooserWorkload) {
  CoExecutionConfig Config = staticConfig();
  policy::DefaultPolicy Target;
  std::vector<WorkloadProgramSetup> Workload;
  WorkloadProgramSetup Setup;
  Setup.Spec = workload::Catalog::byName("cg");
  Setup.Chooser = workload::fixedChooser(4);
  Workload.push_back(std::move(Setup));
  CoExecutionResult Result = runCoExecution(
      Config, workload::Catalog::byName("is"), Target, std::move(Workload));
  EXPECT_TRUE(Result.TargetFinished);
}

TEST(CoExecutionTest, PatternWorkloadResolvesAliases) {
  auto Setups = patternWorkload({"bscholes", "fmine"});
  ASSERT_EQ(Setups.size(), 2u);
  EXPECT_EQ(Setups[0].Spec.Name, "blackscholes");
  EXPECT_EQ(Setups[1].Spec.Name, "freqmine");
}

TEST(CoExecutionTest, DifferentSeedsChangeWorkloadBehaviour) {
  CoExecutionConfig C1 = staticConfig(), C2 = staticConfig();
  C1.WorkloadSeed = 1;
  C2.WorkloadSeed = 2;
  policy::DefaultPolicy A, B;
  double T1 = runCoExecution(C1, workload::Catalog::byName("cg"), A,
                             patternWorkload({"lu", "ft"}))
                  .TargetTime;
  double T2 = runCoExecution(C2, workload::Catalog::byName("cg"), B,
                             patternWorkload({"lu", "ft"}))
                  .TargetTime;
  EXPECT_NE(T1, T2);
}
