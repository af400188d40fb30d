//===-- tests/WorkloadTest.cpp - workload model tests --------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "workload/Catalog.h"
#include "workload/LiveTrace.h"
#include "workload/Program.h"
#include "workload/Region.h"
#include "workload/ThreadPattern.h"
#include "workload/WorkloadSets.h"
#include "sim/AvailabilityPattern.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace medley;
using namespace medley::workload;

namespace {

sim::CpuAllocation idleAllocation(unsigned Cores = 32) {
  sim::CpuAllocation A;
  A.CpuShare = 1.0;
  A.MemFactor = 1.0;
  A.BarrierFactor = 1.0;
  A.CoresPerSocket = 8;
  A.InterSocketSync = 0.0;
  A.AvailableCores = Cores;
  return A;
}

RegionSpec simpleRegion(double Phi = 0.95, double Sigma = 0.01,
                        double Mu = 0.3) {
  RegionSpec R;
  R.Name = "r";
  R.Work = 1.0;
  R.ParallelFraction = Phi;
  R.SyncCost = Sigma;
  R.MemIntensity = Mu;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Region rate model
//===----------------------------------------------------------------------===//

TEST(RegionRateTest, OneThreadFullShareIsUnitRate) {
  RegionSpec R = simpleRegion();
  EXPECT_NEAR(regionRate(R, 1, idleAllocation()), 1.0, 1e-12);
}

TEST(RegionRateTest, MonotoneInCpuShare) {
  RegionSpec R = simpleRegion();
  sim::CpuAllocation Full = idleAllocation();
  sim::CpuAllocation Half = idleAllocation();
  Half.CpuShare = 0.5;
  EXPECT_GT(regionRate(R, 8, Full), regionRate(R, 8, Half));
}

TEST(RegionRateTest, PerfectlyParallelScalesLinearly) {
  RegionSpec R = simpleRegion(1.0, 0.0, 0.0);
  sim::CpuAllocation A = idleAllocation();
  EXPECT_NEAR(regionRate(R, 8, A), 8.0, 1e-9);
  EXPECT_NEAR(regionRate(R, 4, A), 4.0, 1e-9);
}

TEST(RegionRateTest, AmdahlLimitsSerialFraction) {
  RegionSpec R = simpleRegion(0.5, 0.0, 0.0);
  // At phi = 0.5 the asymptotic speedup is 2.
  EXPECT_LT(regionRate(R, 32, idleAllocation()), 2.0);
  EXPECT_GT(regionRate(R, 32, idleAllocation()), 1.9);
}

TEST(RegionRateTest, SyncCostCreatesInteriorOptimum) {
  RegionSpec R = simpleRegion(0.99, 0.05, 0.0);
  sim::CpuAllocation A = idleAllocation();
  A.InterSocketSync = 0.5; // Socket-crossing barriers on.
  double Rate8 = regionRate(R, 8, A);
  double Rate32 = regionRate(R, 32, A);
  EXPECT_GT(Rate8, Rate32) << "sync-heavy region should prefer one socket";
}

TEST(RegionRateTest, BarrierConvoyAmplifiesSyncCost) {
  RegionSpec R = simpleRegion(0.99, 0.02, 0.0);
  sim::CpuAllocation Calm = idleAllocation();
  sim::CpuAllocation Convoyed = idleAllocation();
  Convoyed.BarrierFactor = 3.0;
  EXPECT_GT(regionRate(R, 16, Calm), regionRate(R, 16, Convoyed));
  // A single thread never pays synchronisation cost.
  EXPECT_NEAR(regionRate(R, 1, Calm), regionRate(R, 1, Convoyed), 1e-12);
}

TEST(RegionRateTest, MemFactorSlowsMemoryBoundWork) {
  RegionSpec MemoryBound = simpleRegion(0.99, 0.0, 0.9);
  RegionSpec ComputeBound = simpleRegion(0.99, 0.0, 0.0);
  sim::CpuAllocation Contended = idleAllocation();
  Contended.MemFactor = 2.0;
  double MemLoss = regionRate(MemoryBound, 8, idleAllocation()) /
                   regionRate(MemoryBound, 8, Contended);
  double ComputeLoss = regionRate(ComputeBound, 8, idleAllocation()) /
                       regionRate(ComputeBound, 8, Contended);
  EXPECT_GT(MemLoss, 1.5);
  EXPECT_NEAR(ComputeLoss, 1.0, 1e-12);
}

TEST(RegionRateTest, SocketStaircaseStepsAtSocketBoundary) {
  RegionSpec R = simpleRegion(0.999, 0.03, 0.0);
  sim::CpuAllocation A = idleAllocation();
  A.InterSocketSync = 0.8;
  // Crossing from 8 to 9 threads spans a second socket: the per-thread
  // marginal gain collapses.
  double Gain8 = regionRate(R, 8, A) / regionRate(R, 7, A);
  double Gain9 = regionRate(R, 9, A) / regionRate(R, 8, A);
  EXPECT_GT(Gain8, Gain9);
}

TEST(RegionRateTest, IsolatedSpeedupOfOneThreadIsOne) {
  RegionSpec R = simpleRegion();
  EXPECT_NEAR(
      isolatedRegionSpeedup(R, 1, sim::MachineConfig::evaluationPlatform()),
      1.0, 1e-12);
}

TEST(RegionRateTest, IsolatedSpeedupBoundedByThreads) {
  RegionSpec R = simpleRegion(0.999, 0.001, 0.1);
  sim::MachineConfig M = sim::MachineConfig::evaluationPlatform();
  for (unsigned N : {2u, 8u, 16u, 32u})
    EXPECT_LE(isolatedRegionSpeedup(R, N, M), double(N) + 1e-9);
}

//===----------------------------------------------------------------------===//
// Catalog
//===----------------------------------------------------------------------===//

TEST(CatalogTest, HasThreeSuites) {
  EXPECT_EQ(Catalog::bySuite("NAS").size(), 8u);
  EXPECT_GE(Catalog::bySuite("SpecOMP").size(), 8u);
  EXPECT_GE(Catalog::bySuite("Parsec").size(), 10u);
  EXPECT_GE(Catalog::allPrograms().size(), 28u);
}

TEST(CatalogTest, LookupAndAliases) {
  EXPECT_EQ(Catalog::byName("lu").Name, "lu");
  EXPECT_EQ(Catalog::byName("bscholes").Name, "blackscholes");
  EXPECT_EQ(Catalog::byName("btrack").Name, "bodytrack");
  EXPECT_EQ(Catalog::byName("fmine").Name, "freqmine");
  EXPECT_EQ(Catalog::byName("fft").Name, "ft");
  EXPECT_TRUE(Catalog::contains("cg"));
  EXPECT_FALSE(Catalog::contains("nonexistent"));
}

TEST(CatalogTest, EvaluationTargetsAndTrainingProgramsExist) {
  for (const std::string &Name : Catalog::evaluationTargets())
    EXPECT_TRUE(Catalog::contains(Name)) << Name;
  EXPECT_EQ(Catalog::trainingPrograms().size(), 8u);
  for (const std::string &Name : Catalog::trainingPrograms()) {
    EXPECT_TRUE(Catalog::contains(Name)) << Name;
    EXPECT_EQ(Catalog::byName(Name).Suite, "NAS") << Name;
  }
}

/// Structural invariants of every catalog program.
class CatalogProgramTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CatalogProgramTest, SpecIsWellFormed) {
  const ProgramSpec &Spec = Catalog::allPrograms()[GetParam()];
  EXPECT_FALSE(Spec.Name.empty());
  EXPECT_EQ(Spec.Regions.size(), 3u);
  EXPECT_GE(Spec.Iterations, 1u);
  EXPECT_GT(Spec.WorkingSetMb, 0.0);
  EXPECT_GT(Spec.totalWork(), 0.0);

  double ShareSum = 0.0;
  for (const RegionSpec &R : Spec.Regions) {
    EXPECT_GT(R.Work, 0.0);
    EXPECT_GT(R.ParallelFraction, 0.0);
    EXPECT_LE(R.ParallelFraction, 1.0);
    EXPECT_GE(R.SyncCost, 0.0);
    EXPECT_GE(R.MemIntensity, 0.0);
    EXPECT_LE(R.MemIntensity, 0.95);
    EXPECT_GT(R.Code.LoadStoreRatio, 0.0);
    EXPECT_LE(R.Code.LoadStoreRatio, 0.7);
    EXPECT_GE(R.Code.BranchRatio, 0.04);
    EXPECT_LE(R.Code.BranchRatio, 0.35);
    ShareSum += R.Code.InstructionWeight;
  }
  EXPECT_NEAR(ShareSum, 1.0, 1e-9);
}

TEST_P(CatalogProgramTest, IsolatedSpeedupSane) {
  const ProgramSpec &Spec = Catalog::allPrograms()[GetParam()];
  sim::MachineConfig M = sim::MachineConfig::evaluationPlatform();
  double S = Spec.isolatedSpeedup(32, M);
  EXPECT_GE(S, 1.0);
  EXPECT_LE(S, 32.0);
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, CatalogProgramTest,
                         ::testing::Range<size_t>(0, 30));

TEST(CatalogTest, ScalabilityStructureMatchesSuiteBehaviour) {
  sim::MachineConfig M = sim::MachineConfig::evaluationPlatform();
  auto Speedup = [&](const char *Name) {
    return Catalog::byName(Name).isolatedSpeedup(32, M);
  };
  // Embarrassingly parallel codes scale; irregular ones do not (P/4 = 8).
  EXPECT_GE(Speedup("ep"), 8.0);
  EXPECT_GE(Speedup("blackscholes"), 8.0);
  EXPECT_GE(Speedup("bt"), 8.0);
  EXPECT_LT(Speedup("cg"), 8.0);
  EXPECT_LT(Speedup("is"), 8.0);
  EXPECT_LT(Speedup("mg"), 8.0);
  EXPECT_LT(Speedup("art"), 8.0);
}

TEST(CatalogTest, HiddenMultipliersAffectBehaviourNotFeatures) {
  ProgramTraits Plain;
  Plain.Name = "plain";
  Plain.Suite = "NAS";
  ProgramTraits Irregular = Plain;
  Irregular.Name = "irregular";
  Irregular.SyncHidden = 2.0;
  Irregular.MemHidden = 1.5;

  ProgramSpec A = makeProgramSpec(Plain);
  ProgramSpec B = makeProgramSpec(Irregular);
  for (size_t R = 0; R < 3; ++R) {
    // Same observable features...
    EXPECT_DOUBLE_EQ(A.Regions[R].Code.LoadStoreRatio,
                     B.Regions[R].Code.LoadStoreRatio);
    EXPECT_DOUBLE_EQ(A.Regions[R].Code.BranchRatio,
                     B.Regions[R].Code.BranchRatio);
    // ...but worse executed behaviour.
    EXPECT_GT(B.Regions[R].SyncCost, A.Regions[R].SyncCost);
    EXPECT_GE(B.Regions[R].MemIntensity, A.Regions[R].MemIntensity);
  }
}

//===----------------------------------------------------------------------===//
// Program execution
//===----------------------------------------------------------------------===//

TEST(ProgramTest, CompletesWithExpectedSerialTime) {
  // One region, one iteration, fixed 1 thread on an idle machine: the
  // completion time must equal the serial work.
  ProgramSpec Spec;
  Spec.Name = "tiny";
  Spec.Suite = "test";
  Spec.Iterations = 1;
  RegionSpec R = simpleRegion(1.0, 0.0, 0.0);
  R.Work = 2.0;
  Spec.Regions = {R};

  Program P(Spec, fixedChooser(1), 32);
  sim::CpuAllocation A = idleAllocation();
  A.Now = 0.0;
  double T = 0.0;
  while (!P.finished()) {
    A.Now = T;
    P.step(0.1, A);
    T += 0.1;
  }
  EXPECT_NEAR(P.completionTime(), 2.0, 1e-9);
  EXPECT_NEAR(P.workCompleted(), 2.0, 1e-9);
}

TEST(ProgramTest, RegionSequencingAndObserver) {
  ProgramSpec Spec;
  Spec.Name = "seq";
  Spec.Suite = "test";
  Spec.Iterations = 2;
  RegionSpec R1 = simpleRegion(1.0, 0.0, 0.0);
  R1.Name = "first";
  R1.Work = 0.5;
  RegionSpec R2 = R1;
  R2.Name = "second";
  R2.Work = 0.25;
  Spec.Regions = {R1, R2};

  std::vector<std::string> Names;
  std::vector<unsigned> Threads;
  Program P(Spec, fixedChooser(2), 32);
  P.setRegionObserver([&](const RegionOutcome &O) {
    Names.push_back(O.Region->Name);
    Threads.push_back(O.Threads);
    EXPECT_GT(O.Duration, 0.0);
    EXPECT_GT(O.rate(), 0.0);
  });

  sim::CpuAllocation A = idleAllocation();
  double T = 0.0;
  while (!P.finished()) {
    A.Now = T;
    P.step(0.1, A);
    T += 0.1;
  }
  ASSERT_EQ(Names.size(), 4u);
  EXPECT_EQ(Names, (std::vector<std::string>{"first", "second", "first",
                                             "second"}));
  EXPECT_EQ(Threads, (std::vector<unsigned>{2, 2, 2, 2}));
  EXPECT_EQ(P.regionsExecuted(), 4u);
}

TEST(ProgramTest, ChooserClamped) {
  ProgramSpec Spec;
  Spec.Name = "clamp";
  Spec.Suite = "test";
  Spec.Iterations = 1;
  Spec.Regions = {simpleRegion()};

  unsigned Seen = 0;
  Program P(
      Spec,
      [&](const RegionContext &Context) {
        Seen = Context.MaxThreads;
        return 10000u; // Absurd request.
      },
      16);
  sim::CpuAllocation A = idleAllocation();
  P.step(0.01, A);
  EXPECT_EQ(Seen, 16u);
  EXPECT_EQ(P.activeThreads(), 16u);
}

TEST(ProgramTest, LoopingRestartsAndCounts) {
  ProgramSpec Spec;
  Spec.Name = "loop";
  Spec.Suite = "test";
  Spec.Iterations = 1;
  RegionSpec R = simpleRegion(1.0, 0.0, 0.0);
  R.Work = 0.3;
  Spec.Regions = {R};

  Program P(Spec, fixedChooser(1), 32, /*Looping=*/true);
  sim::CpuAllocation A = idleAllocation();
  double T = 0.0;
  for (int I = 0; I < 20; ++I) {
    A.Now = T;
    P.step(0.1, A);
    T += 0.1;
  }
  EXPECT_FALSE(P.finished());
  EXPECT_GE(P.completedRuns(), 6u);
  EXPECT_NEAR(P.completionTime(), 0.3, 1e-9); // First run's completion.
  EXPECT_NEAR(P.workCompleted(), 2.0, 1e-9);  // 20 ticks of unit rate.
}

TEST(ProgramTest, MultipleRegionsCanCompleteInOneTick) {
  ProgramSpec Spec;
  Spec.Name = "fast";
  Spec.Suite = "test";
  Spec.Iterations = 3;
  RegionSpec R = simpleRegion(1.0, 0.0, 0.0);
  R.Work = 0.01;
  Spec.Regions = {R, R};

  Program P(Spec, fixedChooser(1), 32);
  sim::CpuAllocation A = idleAllocation();
  P.step(0.1, A); // 0.1s of unit rate covers all 6 * 0.01 work units.
  EXPECT_TRUE(P.finished());
  EXPECT_EQ(P.regionsExecuted(), 6u);
  EXPECT_EQ(P.activeThreads(), 0u);
}

TEST(ProgramTest, MemoryDemandTracksCurrentRegionAndThreads) {
  ProgramSpec Spec;
  Spec.Name = "demand";
  Spec.Suite = "test";
  Spec.Iterations = 1;
  RegionSpec R = simpleRegion(0.99, 0.0, 0.5);
  Spec.Regions = {R};
  Program P(Spec, fixedChooser(4), 32);
  sim::CpuAllocation A = idleAllocation();
  P.step(0.01, A); // Starts the region with 4 threads.
  EXPECT_NEAR(P.memoryDemand(), 4 * 0.5, 1e-12);
}

TEST(ProgramTest, HandBuiltAllocationsAreNeverCached) {
  // Version 0 marks an allocation built outside the simulator. Two of them
  // that differ only in CpuShare must each give the program its own rate.
  ProgramSpec Spec;
  Spec.Name = "hand";
  Spec.Suite = "test";
  RegionSpec R = simpleRegion();
  R.Work = 1e9; // Never completes here: every tick after the first is steady.
  Spec.Regions = {R};
  Program P(Spec, fixedChooser(8), 32);
  sim::CpuAllocation Full = idleAllocation();
  sim::CpuAllocation Half = Full;
  Half.CpuShare = 0.5;
  ASSERT_EQ(Full.Version, 0u);
  const double Dt = 0.1;

  P.step(Dt, Full); // Starts the region.
  double Work = P.workCompleted();
  EXPECT_EQ(Work, regionRate(R, 8, Full) * Dt);
  ASSERT_TRUE(P.stepSteady(Dt, Half));
  EXPECT_EQ(P.workCompleted(), Work + regionRate(R, 8, Half) * Dt);
  Work = P.workCompleted();
  P.step(Dt, Full);
  EXPECT_EQ(P.workCompleted(), Work + regionRate(R, 8, Full) * Dt);
}

//===----------------------------------------------------------------------===//
// Thread patterns
//===----------------------------------------------------------------------===//

TEST(ThreadPatternTest, StaysInRange) {
  ThreadPattern P(123, 2, 16, 5.0);
  for (double T = 0.0; T < 500.0; T += 2.5) {
    unsigned N = P.threadsAt(T);
    EXPECT_GE(N, 2u);
    EXPECT_LE(N, 16u);
  }
}

TEST(ThreadPatternTest, DeterministicAndResettable) {
  ThreadPattern A(7, 2, 16, 5.0), B(7, 2, 16, 5.0);
  std::vector<unsigned> SeqA, SeqB;
  for (double T = 0.0; T < 100.0; T += 5.0) {
    SeqA.push_back(A.threadsAt(T));
    SeqB.push_back(B.threadsAt(T));
  }
  EXPECT_EQ(SeqA, SeqB);
  A.reset();
  for (size_t I = 0; I < SeqA.size(); ++I)
    EXPECT_EQ(A.threadsAt(5.0 * double(I)), SeqA[I]);
}

TEST(ThreadPatternTest, EventuallyVaries) {
  ThreadPattern P(99, 2, 16, 1.0);
  unsigned First = P.threadsAt(0.0);
  bool Varied = false;
  for (double T = 1.0; T < 100.0 && !Varied; T += 1.0)
    Varied = P.threadsAt(T) != First;
  EXPECT_TRUE(Varied);
}

TEST(ThreadPatternTest, ChooserUsesContextTime) {
  ThreadChooser C = ThreadPattern::makeChooser(5, 2, 16, 5.0);
  RegionContext Context;
  ProgramSpec Spec = Catalog::byName("cg");
  Context.Program = &Spec;
  Context.Region = &Spec.Regions[0];
  Context.MaxThreads = 32;
  Context.Now = 0.0;
  unsigned N0 = C(Context);
  EXPECT_GE(N0, 2u);
  EXPECT_LE(N0, 16u);
}

TEST(ThreadPatternTest, TraceChooserReplaysTrace) {
  ThreadChooser C = traceChooser({{0.0, 4}, {10.0, 12}});
  RegionContext Context;
  ProgramSpec Spec = Catalog::byName("cg");
  Context.Program = &Spec;
  Context.Region = &Spec.Regions[0];
  Context.MaxThreads = 32;
  Context.Now = 5.0;
  EXPECT_EQ(C(Context), 4u);
  Context.Now = 10.5;
  EXPECT_EQ(C(Context), 12u);
}

TEST(ThreadPatternTest, FixedChooser) {
  ThreadChooser C = fixedChooser(6);
  RegionContext Context;
  ProgramSpec Spec = Catalog::byName("cg");
  Context.Program = &Spec;
  Context.Region = &Spec.Regions[0];
  EXPECT_EQ(C(Context), 6u);
}

//===----------------------------------------------------------------------===//
// Workload sets (Table 3)
//===----------------------------------------------------------------------===//

TEST(WorkloadSetsTest, Table3Structure) {
  const auto &Small = smallWorkloads();
  ASSERT_EQ(Small.size(), 2u);
  EXPECT_EQ(Small[0].Programs, (std::vector<std::string>{"is", "cg"}));
  EXPECT_EQ(Small[1].Programs, (std::vector<std::string>{"ammp", "ft"}));

  const auto &Large = largeWorkloads();
  ASSERT_EQ(Large.size(), 2u);
  EXPECT_EQ(Large[0].Programs.size(), 6u);
  EXPECT_EQ(Large[1].Programs.size(), 7u);
  // Aliases are canonicalised.
  EXPECT_EQ(Large[1].Programs[0], "blackscholes");
  EXPECT_EQ(Large[1].Programs[4], "freqmine");
}

TEST(WorkloadSetsTest, AllWorkloadProgramsExist) {
  for (const auto &Sets : {smallWorkloads(), largeWorkloads()})
    for (const WorkloadSet &Set : Sets)
      for (const std::string &Name : Set.Programs)
        EXPECT_TRUE(Catalog::contains(Name)) << Name;
}

TEST(WorkloadSetsTest, BySizeLookup) {
  EXPECT_EQ(workloadsBySize("small").size(), 2u);
  EXPECT_EQ(workloadsBySize("large").size(), 2u);
}

//===----------------------------------------------------------------------===//
// Live trace
//===----------------------------------------------------------------------===//

TEST(LiveTraceTest, FailureWindowHalvesCapacity) {
  LiveTraceData Data = generateLiveTrace(7, 32);
  sim::TraceAvailability A(Data.Availability);
  double Mid = 0.5 * Data.Duration;
  EXPECT_EQ(A.coresAt(Mid), 16u);
  EXPECT_EQ(A.coresAt(0.0), 32u);
  EXPECT_EQ(A.coresAt(Data.Duration * 0.99), 32u);
}

TEST(LiveTraceTest, WorkloadDemandBoundedAndVarying) {
  LiveTraceData Data = generateLiveTrace(11, 32);
  ASSERT_GT(Data.WorkloadThreads.size(), 5u);
  unsigned MinSeen = 1e9, MaxSeen = 0;
  for (const auto &[T, N] : Data.WorkloadThreads) {
    EXPECT_GE(T, 0.0);
    EXPECT_LE(T, Data.Duration + 1e-9);
    EXPECT_GE(N, 1u);
    EXPECT_LE(N, 64u);
    MinSeen = std::min(MinSeen, N);
    MaxSeen = std::max(MaxSeen, N);
  }
  EXPECT_LT(MinSeen, MaxSeen) << "trace should not be flat";
}

TEST(LiveTraceTest, Deterministic) {
  LiveTraceData A = generateLiveTrace(3, 32), B = generateLiveTrace(3, 32);
  EXPECT_EQ(A.WorkloadThreads, B.WorkloadThreads);
  EXPECT_EQ(A.Availability, B.Availability);
}

TEST(LiveTraceTest, ActivityLogShapedLikeFigure1) {
  std::vector<unsigned> Log = generateActivityLog(5, 5824, 2000);
  ASSERT_EQ(Log.size(), 2000u);
  unsigned MaxSeen = 0, MinSeen = 1e9;
  for (unsigned V : Log) {
    EXPECT_LE(V, 5824u);
    MaxSeen = std::max(MaxSeen, V);
    MinSeen = std::min(MinSeen, V);
  }
  // Bursty and quiet phases both occur.
  EXPECT_GT(MaxSeen, 5824u / 2);
  EXPECT_LT(MinSeen, 5824u / 4);
}

//===----------------------------------------------------------------------===//
// Work-conservation properties (randomised)
//===----------------------------------------------------------------------===//

/// Property: under arbitrary (random) allocations, a program's accumulated
/// work equals the sum of its completed regions' work plus the in-flight
/// region's partial progress, and it never exceeds the spec total.
class WorkConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorkConservationTest, WorkedEqualsObservedPlusInFlight) {
  Rng R(GetParam());
  ProgramSpec Spec;
  Spec.Name = "fuzz";
  Spec.Suite = "test";
  Spec.Iterations = 1 + unsigned(R.uniformInt(1, 4));
  for (int I = 0; I < 3; ++I) {
    RegionSpec Region = simpleRegion(R.uniform(0.6, 1.0),
                                     R.uniform(0.0, 0.05),
                                     R.uniform(0.0, 0.9));
    Region.Name = "r" + std::to_string(I);
    Region.Work = R.uniform(0.05, 1.5);
    Spec.Regions.push_back(Region);
  }

  double ObservedWork = 0.0;
  Program P(
      Spec,
      [&R](const RegionContext &Context) {
        return unsigned(R.uniformInt(1, Context.MaxThreads));
      },
      32);
  P.setRegionObserver([&ObservedWork](const RegionOutcome &O) {
    ObservedWork += O.Work;
    EXPECT_GT(O.Duration, 0.0);
  });

  sim::CpuAllocation A = idleAllocation();
  double Now = 0.0;
  double LastWorked = 0.0;
  for (int Step = 0; Step < 400 && !P.finished(); ++Step) {
    A.CpuShare = R.uniform(0.05, 1.0);
    A.MemFactor = R.uniform(1.0, 3.0);
    A.BarrierFactor = R.uniform(1.0, 4.0);
    A.Now = Now;
    P.step(0.1, A);
    Now += 0.1;
    // Work accumulates monotonically and bounds hold each step.
    EXPECT_GE(P.workCompleted(), LastWorked - 1e-12);
    EXPECT_GE(P.workCompleted(), ObservedWork - 1e-9);
    EXPECT_LE(P.workCompleted(), Spec.totalWork() + 1e-9);
    LastWorked = P.workCompleted();
  }
  if (P.finished()) {
    EXPECT_NEAR(P.workCompleted(), Spec.totalWork(), 1e-9);
    EXPECT_NEAR(ObservedWork, Spec.totalWork(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkConservationTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));
