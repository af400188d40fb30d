//===-- tests/SimTest.cpp - simulator tests ------------------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/AvailabilityPattern.h"
#include "sim/EnvSample.h"
#include "sim/FaultInjector.h"
#include "sim/Machine.h"
#include "sim/Simulation.h"
#include "sim/SystemMonitor.h"
#include "workload/Catalog.h"
#include "workload/Program.h"
#include "workload/ThreadPattern.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

using namespace medley;
using namespace medley::sim;

namespace {

/// Minimal task: fixed thread count, accumulates received CPU time. It
/// publishes no region, so it takes the slow path every tick.
class StubTask : public Task {
public:
  StubTask(std::string Name, unsigned Threads, double Demand = 0.0,
           double WorkingSet = 100.0, double WorkNeeded = 1e18)
      : Name(std::move(Name)), Threads(Threads), WorkNeeded(WorkNeeded) {
    State.Threads = Threads;
    State.MemoryDemand = Demand;
    State.WorkingSetMb = WorkingSet;
  }

  const std::string &name() const override { return Name; }

  void step(double Dt, const CpuAllocation &Allocation) override {
    LastAllocation = Allocation;
    ++Steps;
    WorkDone += Dt * Allocation.CpuShare * Threads;
    if (WorkDone >= WorkNeeded) {
      State.Finished = true;
      State.Threads = 0;
    }
  }

  CpuAllocation LastAllocation;
  size_t Steps = 0;
  double WorkDone = 0.0;

protected:
  double activeRate(const CpuAllocation &) const override { return 0.0; }

private:
  std::string Name;
  unsigned Threads;
  double WorkNeeded;
};

/// A stub whose memory demand jumps to \p Later on its first step, with
/// its thread count, working set and finished flag unchanged.
class DemandJumpTask : public StubTask {
public:
  DemandJumpTask(unsigned Threads, double Later)
      : StubTask("jump", Threads), Later(Later) {}

  void step(double Dt, const CpuAllocation &Allocation) override {
    StubTask::step(Dt, Allocation);
    State.MemoryDemand = Later;
  }

private:
  double Later;
};

/// Forwards step() to a program and publishes the program's scheduling
/// quantities, but never an active region, so the simulator takes the
/// slow path for it on every tick.
class SlowPathTask : public Task {
public:
  explicit SlowPathTask(std::shared_ptr<workload::Program> Inner)
      : Inner(std::move(Inner)) {
    publish();
  }

  const std::string &name() const override { return Inner->name(); }

  void step(double Dt, const CpuAllocation &Allocation) override {
    Inner->step(Dt, Allocation);
    publish();
  }

protected:
  double activeRate(const CpuAllocation &) const override { return 0.0; }

private:
  void publish() {
    State.Threads = Inner->activeThreads();
    State.MemoryDemand = Inner->memoryDemand();
    State.WorkingSetMb = Inner->workingSetMb();
    State.Finished = Inner->finished();
  }

  std::shared_ptr<workload::Program> Inner;
};

/// A program whose single region never completes within a test, run with
/// \p Threads threads on a 32-core clamp.
std::shared_ptr<workload::Program> steadyProgram(unsigned Threads,
                                                 double MemIntensity) {
  workload::RegionSpec Region;
  Region.Name = "steady";
  Region.Work = 1e9;
  Region.MemIntensity = MemIntensity;
  workload::ProgramSpec Spec;
  Spec.Name = "steady";
  Spec.Regions = {Region};
  return std::make_shared<workload::Program>(
      Spec, [Threads](const workload::RegionContext &) { return Threads; },
      32);
}

} // namespace

//===----------------------------------------------------------------------===//
// EnvSample
//===----------------------------------------------------------------------===//

TEST(EnvSampleTest, ToVecOrderMatchesFeatureNames) {
  EnvSample E;
  E.WorkloadThreads = 1;
  E.Processors = 2;
  E.RunQueue = 3;
  E.LoadAvg1 = 4;
  E.LoadAvg5 = 5;
  E.CachedMemory = 6;
  E.PageFreeRate = 7;
  EXPECT_EQ(E.toVec(), (Vec{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(EnvSample::featureNames().size(), 7u);
}

TEST(EnvSampleTest, ScaledNormKnownValue) {
  EnvSample E;
  E.Processors = 32;
  E.CachedMemory = 1.0;
  // Only two non-zero components: (32/32)^2 + 1^2 = 2.
  EXPECT_NEAR(E.scaledNorm(32.0), std::sqrt(2.0), 1e-12);
}

TEST(EnvSampleTest, ScaledNormScalesWithMachine) {
  EnvSample E;
  E.RunQueue = 16;
  EXPECT_NEAR(E.scaledNorm(16.0), 1.0, 1e-12);
  EXPECT_NEAR(E.scaledNorm(32.0), 0.5, 1e-12);
}

//===----------------------------------------------------------------------===//
// Availability patterns
//===----------------------------------------------------------------------===//

TEST(AvailabilityTest, StaticIsConstant) {
  StaticAvailability A(16);
  EXPECT_EQ(A.coresAt(0.0), 16u);
  EXPECT_EQ(A.coresAt(1e6), 16u);
}

TEST(AvailabilityTest, PeriodicStaysOnLadder) {
  auto A = PeriodicAvailability::standardLadder(32, 10.0, 7);
  for (double T = 0.0; T < 500.0; T += 1.0) {
    unsigned C = A->coresAt(T);
    EXPECT_TRUE(C == 8 || C == 16 || C == 24 || C == 32) << "cores " << C;
  }
}

TEST(AvailabilityTest, PeriodicStartsFullyAvailable) {
  auto A = PeriodicAvailability::standardLadder(32, 20.0, 3);
  EXPECT_EQ(A->coresAt(0.0), 32u);
  EXPECT_EQ(A->coresAt(19.9), 32u);
}

TEST(AvailabilityTest, PeriodicChangesAtMostOneRungPerPeriod) {
  auto A = PeriodicAvailability::standardLadder(32, 10.0, 11);
  unsigned Prev = A->coresAt(0.0);
  for (double T = 10.0; T < 1000.0; T += 10.0) {
    unsigned Cur = A->coresAt(T);
    EXPECT_LE(std::abs(int(Cur) - int(Prev)), 8) << "jumped more than a rung";
    Prev = Cur;
  }
}

TEST(AvailabilityTest, PeriodicResetReplaysExactly) {
  auto A = PeriodicAvailability::standardLadder(32, 5.0, 99);
  std::vector<unsigned> First;
  for (double T = 0.0; T < 200.0; T += 5.0)
    First.push_back(A->coresAt(T));
  A->reset();
  for (size_t I = 0; I < First.size(); ++I)
    EXPECT_EQ(A->coresAt(5.0 * double(I)), First[I]);
}

TEST(AvailabilityTest, PeriodicEventuallyVaries) {
  auto A = PeriodicAvailability::standardLadder(32, 5.0, 42);
  bool Varied = false;
  unsigned First = A->coresAt(0.0);
  for (double T = 5.0; T < 500.0 && !Varied; T += 5.0)
    Varied = A->coresAt(T) != First;
  EXPECT_TRUE(Varied);
}

TEST(AvailabilityTest, TraceLookup) {
  TraceAvailability A({{0.0, 32}, {10.0, 16}, {20.0, 32}});
  EXPECT_EQ(A.coresAt(0.0), 32u);
  EXPECT_EQ(A.coresAt(9.99), 32u);
  EXPECT_EQ(A.coresAt(10.0), 16u);
  EXPECT_EQ(A.coresAt(15.0), 16u);
  EXPECT_EQ(A.coresAt(25.0), 32u);
}

TEST(AvailabilityTest, TraceBeforeFirstPoint) {
  TraceAvailability A({{5.0, 8}});
  EXPECT_EQ(A.coresAt(0.0), 8u);
}

//===----------------------------------------------------------------------===//
// MachineConfig
//===----------------------------------------------------------------------===//

TEST(MachineTest, EvaluationPlatformMatchesTable2) {
  MachineConfig M = MachineConfig::evaluationPlatform();
  EXPECT_EQ(M.TotalCores, 32u);
  EXPECT_EQ(M.SocketCount, 4u);
  EXPECT_EQ(M.coresPerSocket(), 8u);
  EXPECT_DOUBLE_EQ(M.TotalMemoryMb, 64.0 * 1024.0);
  EXPECT_TRUE(M.valid());
}

TEST(MachineTest, TrainingPlatform12) {
  MachineConfig M = MachineConfig::trainingPlatform12();
  EXPECT_EQ(M.TotalCores, 12u);
  EXPECT_EQ(M.coresPerSocket(), 6u);
  EXPECT_TRUE(M.valid());
}

TEST(MachineTest, WithAffinity) {
  MachineConfig M = MachineConfig::evaluationPlatform().withAffinity(0.4);
  EXPECT_DOUBLE_EQ(M.AffinityBenefit, 0.4);
  EXPECT_TRUE(M.valid());
}

TEST(MachineTest, InvalidConfigsDetected) {
  MachineConfig M = MachineConfig::evaluationPlatform();
  M.TotalCores = 0;
  EXPECT_FALSE(M.valid());
  M = MachineConfig::evaluationPlatform();
  M.MemoryBandwidth = 0.0;
  EXPECT_FALSE(M.valid());
  M = MachineConfig::evaluationPlatform();
  M.AffinityBenefit = 1.0;
  EXPECT_FALSE(M.valid());
}

//===----------------------------------------------------------------------===//
// SystemMonitor
//===----------------------------------------------------------------------===//

TEST(SystemMonitorTest, TracksRunQueueAndProcessors) {
  SystemMonitor Monitor(MachineConfig::evaluationPlatform());
  Monitor.update(40, 16, 1000.0, 0.1);
  EnvSample E = Monitor.sample();
  EXPECT_DOUBLE_EQ(E.RunQueue, 40.0);
  EXPECT_DOUBLE_EQ(E.Processors, 16.0);
  EXPECT_DOUBLE_EQ(E.WorkloadThreads, 40.0);
}

TEST(SystemMonitorTest, ObserverThreadsExcluded) {
  SystemMonitor Monitor(MachineConfig::evaluationPlatform());
  Monitor.update(40, 32, 0.0, 0.1);
  EXPECT_DOUBLE_EQ(Monitor.sample(12).WorkloadThreads, 28.0);
  // More observer threads than runnable clamps to zero.
  EXPECT_DOUBLE_EQ(Monitor.sample(100).WorkloadThreads, 0.0);
}

TEST(SystemMonitorTest, LoadAveragesWarmUpAtDifferentSpeeds) {
  SystemMonitor Monitor(MachineConfig::evaluationPlatform());
  Monitor.update(0, 32, 0.0, 0.1);
  for (int I = 0; I < 300; ++I) // 30 seconds at load 32.
    Monitor.update(32, 32, 0.0, 0.1);
  EnvSample E = Monitor.sample();
  EXPECT_GT(E.LoadAvg1, E.LoadAvg5); // 1-minute EMA reacts faster.
  EXPECT_GT(E.LoadAvg1, 5.0);
  EXPECT_LT(E.LoadAvg1, 32.0);
}

TEST(SystemMonitorTest, CachedMemoryFraction) {
  MachineConfig M = MachineConfig::evaluationPlatform();
  SystemMonitor Monitor(M);
  Monitor.update(1, 32, M.TotalMemoryMb / 4.0, 0.1);
  EXPECT_NEAR(Monitor.sample().CachedMemory, 0.75, 1e-9);
  Monitor.update(1, 32, 2.0 * M.TotalMemoryMb, 0.1); // Clamps at full.
  EXPECT_NEAR(Monitor.sample().CachedMemory, 0.0, 1e-9);
}

TEST(SystemMonitorTest, PageRateRespondsToChurn) {
  SystemMonitor Monitor(MachineConfig::evaluationPlatform());
  Monitor.update(1, 32, 0.0, 0.1);
  for (int I = 0; I < 20; ++I)
    Monitor.update(1, 32, (I % 2) * 8000.0, 0.1);
  EXPECT_GT(Monitor.sample().PageFreeRate, 0.0);
}

TEST(SystemMonitorTest, ResetClears) {
  SystemMonitor Monitor(MachineConfig::evaluationPlatform());
  Monitor.update(40, 16, 5000.0, 0.1);
  Monitor.reset();
  EnvSample E = Monitor.sample();
  EXPECT_DOUBLE_EQ(E.RunQueue, 0.0);
  EXPECT_DOUBLE_EQ(E.Processors, 32.0);
  EXPECT_DOUBLE_EQ(E.LoadAvg1, 0.0);
}

TEST(SystemMonitorTest, EnvNormUsesMachineScale) {
  SystemMonitor Monitor(MachineConfig::evaluationPlatform());
  Monitor.update(32, 32, 0.0, 0.1);
  EnvSample E = Monitor.sample();
  EXPECT_NEAR(Monitor.envNorm(), E.scaledNorm(32.0), 1e-12);
}

//===----------------------------------------------------------------------===//
// Simulation scheduling
//===----------------------------------------------------------------------===//

TEST(SimulationTest, UndersubscribedTasksRunFullSpeed) {
  Simulation Sim(MachineConfig::evaluationPlatform(),
                 std::make_unique<StaticAvailability>(32));
  auto T = std::make_shared<StubTask>("t", 8);
  Sim.addTask(T);
  Sim.step();
  EXPECT_DOUBLE_EQ(T->LastAllocation.CpuShare, 1.0);
  EXPECT_DOUBLE_EQ(T->LastAllocation.MemFactor, 1.0);
  EXPECT_DOUBLE_EQ(T->LastAllocation.BarrierFactor, 1.0);
  EXPECT_EQ(T->LastAllocation.AvailableCores, 32u);
}

TEST(SimulationTest, OversubscriptionReducesShareAndConvoysBarriers) {
  MachineConfig M = MachineConfig::evaluationPlatform();
  Simulation Sim(M, std::make_unique<StaticAvailability>(32));
  auto A = std::make_shared<StubTask>("a", 32);
  auto B = std::make_shared<StubTask>("b", 32);
  Sim.addTask(A);
  Sim.addTask(B);
  Sim.step();
  double Ratio = 64.0 / 32.0;
  double ExpectedShare =
      (1.0 / Ratio) / (1.0 + M.ContextSwitchOverhead * (Ratio - 1.0));
  EXPECT_NEAR(A->LastAllocation.CpuShare, ExpectedShare, 1e-12);
  EXPECT_NEAR(A->LastAllocation.BarrierFactor,
              1.0 + M.BarrierConvoy * (Ratio - 1.0), 1e-12);
  EXPECT_EQ(A->LastAllocation.RunnableThreads, 64u);
}

TEST(SimulationTest, MemoryContentionKicksInAboveBandwidth) {
  MachineConfig M = MachineConfig::evaluationPlatform();
  Simulation Sim(M, std::make_unique<StaticAvailability>(32));
  // Demand is scaled by share (1.0 here); 2x bandwidth demanded.
  auto T = std::make_shared<StubTask>("t", 8, 2.0 * M.MemoryBandwidth);
  Sim.addTask(T);
  Sim.step();
  EXPECT_NEAR(T->LastAllocation.MemFactor,
              std::min(std::pow(2.0, M.MemContentionExponent),
                       M.MemFactorCap),
              1e-9);
}

TEST(SimulationTest, MemoryBoundArrivalReachesSteadyProgram) {
  // A tick on which only MemFactor moves: every thread fits the cores, so
  // CpuShare and BarrierFactor hold at 1, and the arrival alone pushes the
  // demand past the bandwidth. The running program must progress at its
  // rate under the new allocation on that very tick.
  MachineConfig M = MachineConfig::evaluationPlatform();
  Simulation Sim(M, std::make_unique<StaticAvailability>(32));
  auto Prog = steadyProgram(8, 0.8); // Demand 6.4, below the bandwidth.
  Sim.addTask(Prog);
  for (int I = 0; I < 3; ++I)
    Sim.step(); // Region start, then steady ticks at MemFactor 1.

  auto Hog = std::make_shared<StubTask>("hog", 4, 2.0 * M.MemoryBandwidth);
  Sim.addTask(Hog);
  double Before = Prog->workCompleted();
  Sim.step();
  const CpuAllocation &Now = Hog->LastAllocation;
  ASSERT_DOUBLE_EQ(Now.CpuShare, 1.0);
  ASSERT_DOUBLE_EQ(Now.BarrierFactor, 1.0);
  ASSERT_GT(Now.MemFactor, 1.0);
  double Rate = workload::regionRate(Prog->spec().Regions[0], 8, Now);
  EXPECT_EQ(Prog->workCompleted(), Before + Rate * Sim.tick());
}

TEST(SimulationTest, MovedProgramTakesTheNewSimulationsRate) {
  // Neither simulation's rate fields leave their initial values, so both
  // have made the same number of rate changes: none. Only the machines'
  // inter-socket cost differs, and a 16-thread team spans two sockets. A
  // program moved from one to the other must run at the second one's rate
  // on its first tick there.
  MachineConfig First = MachineConfig::evaluationPlatform();
  MachineConfig Second = First;
  Second.InterSocketSync = 2.0 * First.InterSocketSync;
  auto Prog = steadyProgram(16, 0.1); // Demand 1.6, below the bandwidth.

  Simulation A(First, std::make_unique<StaticAvailability>(32));
  auto ProbeA = std::make_shared<StubTask>("probe", 0);
  A.addTask(ProbeA);
  A.addTask(Prog);
  for (int I = 0; I < 3; ++I)
    A.step();
  A.removeTask(Prog.get());

  Simulation B(Second, std::make_unique<StaticAvailability>(32));
  auto ProbeB = std::make_shared<StubTask>("probe", 0);
  B.addTask(ProbeB);
  B.addTask(Prog);
  double Before = Prog->workCompleted();
  B.step();

  const CpuAllocation &Here = ProbeA->LastAllocation;
  const CpuAllocation &There = ProbeB->LastAllocation;
  ASSERT_DOUBLE_EQ(Here.CpuShare, There.CpuShare);
  ASSERT_DOUBLE_EQ(Here.MemFactor, There.MemFactor);
  ASSERT_DOUBLE_EQ(Here.BarrierFactor, There.BarrierFactor);
  const workload::RegionSpec &Region = Prog->spec().Regions[0];
  double Rate = workload::regionRate(Region, 16, There);
  ASSERT_NE(Rate, workload::regionRate(Region, 16, Here));
  EXPECT_EQ(Prog->workCompleted(), Before + Rate * B.tick());
}

TEST(SimulationTest, SteadyPassMatchesTheSlowPathBitwise) {
  // The same three programs run twice: advanced in place by the steady
  // pass, and wrapped so that every tick takes the slow path through
  // Program::step. A target whose thread count follows the environment
  // and two pattern-driven looping workloads share a machine whose cores
  // change every 10 s, so rates move while regions are running.
  auto Programs = [] {
    workload::ThreadChooser FollowEnv = [](const workload::RegionContext &C) {
      return static_cast<unsigned>(
          std::max(1.0, C.Env.Processors - C.Env.WorkloadThreads));
    };
    return std::vector<std::shared_ptr<workload::Program>>{
        std::make_shared<workload::Program>(
            workload::Catalog::byName("cg"), FollowEnv, 32),
        std::make_shared<workload::Program>(
            workload::Catalog::byName("bt"),
            workload::ThreadPattern::makeChooser(7, 2, 24, 5.0), 32, true),
        std::make_shared<workload::Program>(
            workload::Catalog::byName("is"),
            workload::ThreadPattern::makeChooser(8, 2, 24, 5.0), 32, true)};
  };
  MachineConfig M = MachineConfig::evaluationPlatform();
  Simulation SteadySim(M, PeriodicAvailability::standardLadder(32, 10.0, 5));
  Simulation SlowSim(M, PeriodicAvailability::standardLadder(32, 10.0, 5));
  auto Steady = Programs();
  auto Slow = Programs();
  for (size_t I = 0; I < Steady.size(); ++I) {
    SteadySim.addTask(Steady[I]);
    SlowSim.addTask(std::make_shared<SlowPathTask>(Slow[I]));
  }
  for (int Tick = 0; Tick < 3000; ++Tick) {
    SteadySim.step();
    SlowSim.step();
  }

  ASSERT_TRUE(Steady[0]->finished());
  auto Bits = [](double V) { return std::bit_cast<uint64_t>(V); };
  for (size_t I = 0; I < Steady.size(); ++I) {
    SCOPED_TRACE(Steady[I]->name());
    EXPECT_GT(Steady[I]->regionsExecuted(), 0u);
    EXPECT_EQ(Bits(Steady[I]->workCompleted()), Bits(Slow[I]->workCompleted()));
    EXPECT_EQ(Steady[I]->regionsExecuted(), Slow[I]->regionsExecuted());
    EXPECT_EQ(Bits(Steady[I]->completionTime()),
              Bits(Slow[I]->completionTime()));
  }
  Vec SteadyEnv = SteadySim.monitor().sample().toVec();
  Vec SlowEnv = SlowSim.monitor().sample().toVec();
  ASSERT_EQ(SteadyEnv.size(), SlowEnv.size());
  for (size_t K = 0; K < SteadyEnv.size(); ++K)
    EXPECT_EQ(Bits(SteadyEnv[K]), Bits(SlowEnv[K])) << "env field " << K;
}

TEST(SimulationTest, DemandChangeAloneMovesTheNextMemFactor) {
  // A slow step that keeps the thread count but raises the memory demand
  // past the bandwidth: the next tick's allocation must carry the new
  // contention factor.
  MachineConfig M = MachineConfig::evaluationPlatform();
  Simulation Sim(M, std::make_unique<StaticAvailability>(32));
  auto T = std::make_shared<DemandJumpTask>(8, 2.0 * M.MemoryBandwidth);
  Sim.addTask(T);
  Sim.step();
  ASSERT_DOUBLE_EQ(T->LastAllocation.MemFactor, 1.0);
  ASSERT_EQ(T->activeThreads(), 8u);
  Sim.step();
  EXPECT_NEAR(T->LastAllocation.MemFactor,
              std::min(std::pow(2.0, M.MemContentionExponent),
                       M.MemFactorCap),
              1e-9);
}

TEST(SimulationTest, AffinityReducesMemoryPenalty) {
  MachineConfig Plain = MachineConfig::evaluationPlatform();
  MachineConfig Affine = Plain.withAffinity(0.5);

  auto runOnce = [](const MachineConfig &M) {
    Simulation Sim(M, std::make_unique<StaticAvailability>(32));
    auto T = std::make_shared<StubTask>("t", 8, 2.0 * M.MemoryBandwidth);
    Sim.addTask(T);
    Sim.step();
    return T->LastAllocation.MemFactor;
  };
  EXPECT_LT(runOnce(Affine), runOnce(Plain));
}

TEST(SimulationTest, TimeAdvancesByTicks) {
  Simulation Sim(MachineConfig::evaluationPlatform(),
                 std::make_unique<StaticAvailability>(32), 0.25);
  EXPECT_DOUBLE_EQ(Sim.now(), 0.0);
  Sim.step();
  Sim.step();
  EXPECT_DOUBLE_EQ(Sim.now(), 0.5);
  EXPECT_DOUBLE_EQ(Sim.tick(), 0.25);
}

TEST(SimulationTest, FinishedTasksLeaveTheRunQueue) {
  Simulation Sim(MachineConfig::evaluationPlatform(),
                 std::make_unique<StaticAvailability>(32));
  auto Short = std::make_shared<StubTask>("short", 8, 0.0, 100.0,
                                          /*WorkNeeded=*/0.4);
  auto Long = std::make_shared<StubTask>("long", 8);
  Sim.addTask(Short);
  Sim.addTask(Long);
  Sim.runUntil([&] { return Short->finished(); }, 10.0);
  EXPECT_TRUE(Short->finished());
  EXPECT_EQ(Sim.runnableThreads(), 8u);
}

TEST(SimulationTest, RemoveTask) {
  Simulation Sim(MachineConfig::evaluationPlatform(),
                 std::make_unique<StaticAvailability>(32));
  auto T = std::make_shared<StubTask>("t", 4);
  Sim.addTask(T);
  EXPECT_EQ(Sim.numTasks(), 1u);
  Sim.removeTask(T.get());
  EXPECT_EQ(Sim.numTasks(), 0u);
}

TEST(SimulationTest, TaskChurnPreservesOrderAndHidesTombstones) {
  // Workload-swap-heavy regression: bursts of removals interleaved with
  // additions and steps. The tombstoning removeTask must never expose a
  // null entry through tasks()/numTasks(), and the survivors must stay in
  // insertion order (the per-tick FP reductions depend on it).
  Simulation Sim(MachineConfig::evaluationPlatform(),
                 std::make_unique<StaticAvailability>(32));
  std::vector<std::shared_ptr<StubTask>> Live;
  unsigned NextId = 0;
  auto Spawn = [&] {
    auto T = std::make_shared<StubTask>("churn" + std::to_string(NextId++), 2);
    Live.push_back(T);
    Sim.addTask(T);
  };
  for (int I = 0; I < 8; ++I)
    Spawn();
  for (int Round = 0; Round < 16; ++Round) {
    // Remove every other task in one burst, then backfill.
    for (size_t I = Live.size(); I-- > 0;)
      if (I % 2 == 0) {
        Sim.removeTask(Live[I].get());
        Live.erase(Live.begin() + static_cast<long>(I));
      }
    for (int I = 0; I < 4; ++I)
      Spawn();
    Sim.step();
    const auto &Tasks = Sim.tasks();
    ASSERT_EQ(Tasks.size(), Live.size());
    for (size_t I = 0; I < Tasks.size(); ++I) {
      ASSERT_NE(Tasks[I], nullptr);
      // Insertion order survives compaction.
      EXPECT_EQ(Tasks[I].get(), Live[I].get());
    }
  }
  EXPECT_EQ(Sim.numTasks(), Live.size());
  // Every surviving task advanced on every tick it was present for.
  for (const auto &T : Live)
    EXPECT_GT(T->WorkDone, 0.0);
}

TEST(SimulationTest, RemoveTaskBurstThenAccessorNeverSeesNull) {
  Simulation Sim(MachineConfig::evaluationPlatform(),
                 std::make_unique<StaticAvailability>(32));
  std::vector<std::shared_ptr<StubTask>> All;
  for (int I = 0; I < 6; ++I) {
    All.push_back(std::make_shared<StubTask>("t" + std::to_string(I), 1));
    Sim.addTask(All.back());
  }
  // Burst-remove three without stepping in between; the first accessor
  // afterwards must already observe the compacted list.
  Sim.removeTask(All[1].get());
  Sim.removeTask(All[3].get());
  Sim.removeTask(All[5].get());
  EXPECT_EQ(Sim.runnableThreads(), 3u);
  const auto &Tasks = Sim.tasks();
  ASSERT_EQ(Tasks.size(), 3u);
  EXPECT_EQ(Tasks[0].get(), All[0].get());
  EXPECT_EQ(Tasks[1].get(), All[2].get());
  EXPECT_EQ(Tasks[2].get(), All[4].get());
  // Removing a pointer that is not in the list is a no-op.
  StubTask Foreign("foreign", 1);
  Sim.removeTask(&Foreign);
  EXPECT_EQ(Sim.numTasks(), 3u);
}

TEST(SimulationTest, TickHooksFireEveryStep) {
  Simulation Sim(MachineConfig::evaluationPlatform(),
                 std::make_unique<StaticAvailability>(32));
  int Calls = 0;
  Sim.addTickHook([&Calls](Simulation &) { ++Calls; });
  Sim.step();
  Sim.step();
  Sim.step();
  EXPECT_EQ(Calls, 3);
}

TEST(SimulationTest, RunUntilReportsTimeout) {
  Simulation Sim(MachineConfig::evaluationPlatform(),
                 std::make_unique<StaticAvailability>(32));
  EXPECT_FALSE(Sim.runUntil([] { return false; }, 1.0));
  EXPECT_GE(Sim.now(), 1.0);
  EXPECT_TRUE(Sim.runUntil([] { return true; }, 2.0));
}

TEST(SimulationTest, MonitorSeesTaskActivity) {
  Simulation Sim(MachineConfig::evaluationPlatform(),
                 std::make_unique<StaticAvailability>(32));
  auto T = std::make_shared<StubTask>("t", 10, 0.0, 4096.0);
  Sim.addTask(T);
  Sim.step();
  EnvSample E = Sim.monitor().sample();
  EXPECT_DOUBLE_EQ(E.RunQueue, 10.0);
  EXPECT_LT(E.CachedMemory, 1.0);
}

TEST(SimulationTest, AvailabilityChangeReachesTasks) {
  Simulation Sim(MachineConfig::evaluationPlatform(),
                 std::make_unique<TraceAvailability>(
                     std::vector<std::pair<double, unsigned>>{{0.0, 32},
                                                              {0.15, 8}}),
                 0.1);
  auto T = std::make_shared<StubTask>("t", 16);
  Sim.addTask(T);
  Sim.step(); // t in [0, 0.1): 32 cores.
  EXPECT_EQ(T->LastAllocation.AvailableCores, 32u);
  Sim.step();
  Sim.step(); // Beyond 0.15: 8 cores.
  EXPECT_EQ(T->LastAllocation.AvailableCores, 8u);
  EXPECT_LT(T->LastAllocation.CpuShare, 1.0);
}

//===----------------------------------------------------------------------===//
// EnvSample sanitization
//===----------------------------------------------------------------------===//

TEST(EnvSampleTest, SanitizeRepairsNonFiniteFields) {
  EnvSample E;
  E.WorkloadThreads = std::nan("");
  E.Processors = std::numeric_limits<double>::infinity();
  E.RunQueue = 5.0;
  E.CachedMemory = 3.5; // Fraction: must clamp to [0, 1].
  unsigned Repaired = E.sanitize();
  EXPECT_GE(Repaired, 3u);
  EXPECT_TRUE(E.isFinite());
  EXPECT_DOUBLE_EQ(E.WorkloadThreads, 0.0);
  EXPECT_DOUBLE_EQ(E.Processors, 0.0);
  EXPECT_DOUBLE_EQ(E.RunQueue, 5.0);
  EXPECT_DOUBLE_EQ(E.CachedMemory, 1.0);
}

TEST(EnvSampleTest, SanitizeLeavesCleanSamplesAlone) {
  EnvSample E;
  E.WorkloadThreads = 4;
  E.Processors = 16;
  E.CachedMemory = 0.5;
  EXPECT_EQ(E.sanitize(), 0u);
  EXPECT_TRUE(E.isFinite());
}

//===----------------------------------------------------------------------===//
// SystemMonitor under zero-available-processor windows
//===----------------------------------------------------------------------===//

TEST(SystemMonitorTest, ZeroAvailableWindowStaysFinite) {
  SystemMonitor Monitor(MachineConfig::evaluationPlatform());
  // A hot-unplug storm: runnable work but zero cores for many ticks.
  for (int I = 0; I < 50; ++I)
    Monitor.update(/*RunnableThreads=*/12, /*AvailableCores=*/0,
                   /*UsedMemoryMb=*/4096.0, /*Dt=*/0.1);
  EnvSample E = Monitor.sample(0);
  EXPECT_TRUE(E.isFinite());
  EXPECT_DOUBLE_EQ(E.Processors, 0.0);
  EXPECT_DOUBLE_EQ(E.RunQueue, 12.0);
  EXPECT_TRUE(std::isfinite(Monitor.envNorm(0)));
}

TEST(SystemMonitorTest, RecoversAfterZeroAvailableWindow) {
  SystemMonitor Monitor(MachineConfig::evaluationPlatform());
  for (int I = 0; I < 10; ++I)
    Monitor.update(8, 0, 1024.0, 0.1);
  for (int I = 0; I < 10; ++I)
    Monitor.update(8, 16, 1024.0, 0.1);
  EnvSample E = Monitor.sample(0);
  EXPECT_DOUBLE_EQ(E.Processors, 16.0);
  EXPECT_TRUE(E.isFinite());
}

TEST(SimulationTest, ZeroCoreWindowGivesZeroShare) {
  // A zero-core window is legal (a fault storm may unplug every core); a
  // zero-core static machine is not. So an unplug storm covering the
  // whole run opens the window.
  MachineConfig Machine = MachineConfig::evaluationPlatform();
  FaultPlan Plan;
  Plan.UnplugStorm.push_back({0.0, 10.0});
  Plan.StormCores = 0;
  Simulation Sim(Machine,
                 std::make_unique<StaticAvailability>(Machine.TotalCores),
                 0.1);
  Sim.setFaultInjector(std::make_unique<FaultInjector>(Plan, 1));
  auto Task = std::make_shared<StubTask>("stalled", 4);
  Sim.addTask(Task);
  for (int I = 0; I < 20; ++I)
    Sim.step();
  EXPECT_DOUBLE_EQ(Task->LastAllocation.CpuShare, 0.0);
  EXPECT_DOUBLE_EQ(Task->WorkDone, 0.0);
  EXPECT_TRUE(Sim.monitor().sample(0).isFinite());
  EXPECT_TRUE(std::isfinite(Sim.monitor().envNorm(0)));
}

//===----------------------------------------------------------------------===//
// FaultInjector
//===----------------------------------------------------------------------===//

TEST(FaultInjectorTest, EmptyPlanInjectsNothing) {
  FaultInjector Injector(FaultPlan{}, 1);
  EnvSample E;
  E.Processors = 16;
  for (double T = 0.0; T < 5.0; T += 0.1) {
    EXPECT_EQ(Injector.overrideCores(T, 8), 8u);
    EXPECT_FALSE(Injector.monitorStale(T));
    Injector.perturbEnv(T, E);
  }
  EXPECT_DOUBLE_EQ(E.Processors, 16.0);
  EXPECT_TRUE(Injector.stats().clean());
}

TEST(FaultInjectorTest, StormForcesCoreCount) {
  FaultPlan Plan;
  Plan.UnplugStorm.push_back({1.0, 2.0});
  Plan.StormCores = 0;
  FaultInjector Injector(Plan, 7);
  EXPECT_EQ(Injector.overrideCores(0.5, 8), 8u);
  EXPECT_EQ(Injector.overrideCores(1.5, 8), 0u);
  EXPECT_EQ(Injector.overrideCores(2.5, 8), 8u);
  EXPECT_EQ(Injector.stats().UnplugOverrides, 1u);
}

TEST(FaultInjectorTest, StormNeverRaisesCores) {
  FaultPlan Plan;
  Plan.UnplugStorm.push_back({0.0, 10.0});
  Plan.StormCores = 16;
  FaultInjector Injector(Plan, 7);
  // The pattern says 4; a "storm" of 16 must not add cores.
  EXPECT_EQ(Injector.overrideCores(5.0, 4), 4u);
}

TEST(FaultInjectorTest, DropoutZeroesTheSample) {
  FaultPlan Plan;
  Plan.SensorDropout.push_back({0.0, 1.0});
  Plan.DropoutRate = 1.0;
  FaultInjector Injector(Plan, 3);
  EnvSample E;
  E.WorkloadThreads = 6;
  E.Processors = 16;
  E.RunQueue = 9;
  Injector.perturbEnv(0.5, E);
  EXPECT_DOUBLE_EQ(E.WorkloadThreads, 0.0);
  EXPECT_DOUBLE_EQ(E.Processors, 0.0);
  EXPECT_DOUBLE_EQ(E.RunQueue, 0.0);
  EXPECT_EQ(Injector.stats().SensorDropouts, 1u);
}

TEST(FaultInjectorTest, CorruptionNeedsSanitizing) {
  FaultPlan Plan;
  Plan.SensorCorruption.push_back({0.0, 1.0});
  Plan.CorruptionRate = 1.0;
  FaultInjector Injector(Plan, 11);
  EnvSample E;
  E.Processors = 16;
  Injector.perturbEnv(0.5, E);
  EXPECT_GE(Injector.stats().SensorCorruptions, 1u);
  // Whatever garbage was injected (NaN, Inf, +-1e18), the sanitizer must
  // have something to repair.
  EXPECT_GE(E.sanitize(), 1u);
  EXPECT_TRUE(E.isFinite());
}

TEST(FaultInjectorTest, StaleWindowSuppressesMonitorUpdates) {
  FaultPlan Plan;
  Plan.StaleMonitor.push_back({2.0, 3.0});
  FaultInjector Injector(Plan, 5);
  EXPECT_FALSE(Injector.monitorStale(1.0));
  EXPECT_TRUE(Injector.monitorStale(2.5));
  EXPECT_FALSE(Injector.monitorStale(3.5));
  EXPECT_EQ(Injector.stats().StaleTicks, 1u);
}

TEST(FaultInjectorTest, ReplayIsDeterministic) {
  FaultPlan Plan = FaultPlan::chaosSchedule(30.0);
  auto Run = [&Plan](uint64_t Seed) {
    FaultInjector Injector(Plan, Seed);
    std::vector<double> Observed;
    for (double T = 0.0; T < 30.0; T += 0.1) {
      EnvSample E;
      E.WorkloadThreads = 4;
      E.Processors = 16;
      E.RunQueue = 6;
      Injector.perturbEnv(T, E);
      E.sanitize(); // Compare post-repair: NaN != NaN would break EQ.
      for (double V : E.toVec())
        Observed.push_back(V);
      Observed.push_back(Injector.overrideCores(T, 8));
      Observed.push_back(Injector.monitorStale(T) ? 1.0 : 0.0);
    }
    return Observed;
  };
  EXPECT_EQ(Run(42), Run(42));
  EXPECT_NE(Run(42), Run(43));
}

TEST(FaultInjectorTest, ResetReplaysTheSameFaults) {
  FaultPlan Plan = FaultPlan::chaosSchedule(10.0);
  FaultInjector Injector(Plan, 9);
  auto Sweep = [&Injector] {
    std::vector<double> Observed;
    for (double T = 0.0; T < 10.0; T += 0.1) {
      EnvSample E;
      E.Processors = 16;
      Injector.perturbEnv(T, E);
      E.sanitize();
      for (double V : E.toVec())
        Observed.push_back(V);
    }
    return Observed;
  };
  std::vector<double> First = Sweep();
  Injector.reset();
  EXPECT_EQ(First, Sweep());
}

TEST(FaultInjectorTest, ChaosScheduleCoversEveryFaultClass) {
  FaultPlan Plan = FaultPlan::chaosSchedule(100.0);
  EXPECT_FALSE(Plan.empty());
  EXPECT_GE(Plan.SensorDropout.size(), 2u);
  EXPECT_GE(Plan.SensorCorruption.size(), 2u);
  EXPECT_GE(Plan.UnplugStorm.size(), 2u);
  EXPECT_GE(Plan.StaleMonitor.size(), 2u);
  for (const auto *Windows :
       {&Plan.SensorDropout, &Plan.SensorCorruption, &Plan.UnplugStorm,
        &Plan.StaleMonitor})
    for (const FaultWindow &W : *Windows) {
      EXPECT_LT(W.Begin, W.End);
      EXPECT_LE(W.End, 100.0);
    }
}

TEST(SimulationTest, FaultInjectorStormReachesAvailability) {
  MachineConfig Machine = MachineConfig::evaluationPlatform();
  FaultPlan Plan;
  Plan.UnplugStorm.push_back({0.5, 1.5});
  Plan.StormCores = 0;
  Simulation Sim(Machine,
                 std::make_unique<StaticAvailability>(Machine.TotalCores),
                 0.1);
  Sim.setFaultInjector(std::make_unique<FaultInjector>(Plan, 1));
  auto Task = std::make_shared<StubTask>("victim", 4);
  Sim.addTask(Task);
  std::vector<unsigned> Cores;
  Sim.addTickHook([&Cores](Simulation &S) {
    Cores.push_back(S.availableCores());
  });
  for (int I = 0; I < 20; ++I)
    Sim.step();
  ASSERT_EQ(Cores.size(), 20u);
  // Ticks inside [0.5, 1.5) must observe the outage; the rest must not.
  EXPECT_EQ(Cores.front(), Machine.TotalCores);
  EXPECT_EQ(Cores[10], 0u);
  EXPECT_EQ(Cores.back(), Machine.TotalCores);
  EXPECT_TRUE(Sim.monitor().sample(0).isFinite());
}
