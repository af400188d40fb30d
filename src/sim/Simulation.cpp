//===-- sim/Simulation.cpp - Discrete-time machine simulation --------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulation.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

using namespace medley;
using namespace medley::sim;

namespace {

/// Low bits of CpuAllocation::Version counting one simulation's rate
/// changes; the bits above hold a serial no other simulation shares.
constexpr unsigned VersionCountBits = 24;

/// The first version of a block no simulation in this process has used.
uint64_t freshVersionBlock() {
  static std::atomic<uint64_t> NextSerial{1};
  return NextSerial.fetch_add(1, std::memory_order_relaxed)
         << VersionCountBits;
}

bool bitsDiffer(double A, double B) {
  return std::bit_cast<uint64_t>(A) != std::bit_cast<uint64_t>(B);
}

} // namespace

Task::~Task() = default;

Simulation::Simulation(MachineConfig Config,
                       std::unique_ptr<AvailabilityPattern> Availability,
                       double Tick)
    : Config(Config), Availability(std::move(Availability)), Tick(Tick),
      Monitor(Config),
      NextCoresChange(-std::numeric_limits<double>::infinity()) {
  assert(Config.valid() && "invalid machine configuration");
  assert(this->Availability && "availability pattern required");
  // Program::step advances nothing on a tick this short; the steady pass
  // would, so such ticks are not supported.
  assert(Tick > 1e-12 && "tick below the 1e-12 s step resolution");
  BaseAlloc.CoresPerSocket = Config.coresPerSocket();
  BaseAlloc.InterSocketSync = Config.InterSocketSync;
  BaseAlloc.Version = freshVersionBlock();
}

void Simulation::addTask(std::shared_ptr<Task> T) {
  assert(T && "null task");
  Table.adopt(std::move(T));
}

void Simulation::removeTask(const Task *T) { Table.remove(T); }

unsigned Simulation::availableCores() {
  unsigned Cores = Availability->coresAt(Time);
  return Faults ? Faults->overrideCores(Time, Cores) : Cores;
}

void Simulation::setFaultInjector(std::unique_ptr<FaultInjector> Injector) {
  Faults = std::move(Injector);
}

unsigned Simulation::runnableThreads() const {
  Table.compact();
  unsigned Total = 0;
  for (size_t I = 0, N = Table.slots(); I < N; ++I) {
    const TaskState &S = Table.ptr(I)->State;
    if (!S.Finished)
      Total += S.Threads;
  }
  return Total;
}

void Simulation::recomputeTickState(unsigned Cores) {
  // One pass over the task states gathers every per-task quantity this
  // tick needs. The accumulation is in insertion order, so reusing the
  // cached results on later ticks with an unchanged generation is
  // bit-identical to recomputing them.
  unsigned Runnable = 0;
  double UsedMemory = 0.0;
  const size_t N = Table.slots();
  for (size_t I = 0; I < N; ++I) {
    const Task *T = Table.ptr(I);
    if (!T || T->State.Finished)
      continue;
    Runnable += T->State.Threads;
    UsedMemory += T->State.WorkingSetMb;
  }

  // Fair time slicing with a context-switch penalty once the machine is
  // oversubscribed: each thread gets share = min(1, P/R), further scaled by
  // 1 / (1 + kappa * (R/P - 1)) when R > P. A zero-core window (hot-unplug
  // to 0 during a fault storm) parks every thread: share 0, no penalties.
  double Share = 1.0;
  double BarrierFactor = 1.0;
  if (Cores == 0) {
    Share = 0.0;
  } else if (Runnable > 0) {
    double Ratio = static_cast<double>(Runnable) / Cores;
    Share = std::min(1.0, 1.0 / Ratio);
    if (Ratio > 1.0) {
      Share /= 1.0 + Config.ContextSwitchOverhead * (Ratio - 1.0);
      // Pinning threads to cores keeps barrier convoys shorter: a pinned
      // straggler is rescheduled on its own core instead of migrating.
      BarrierFactor = 1.0 + Config.BarrierConvoy * (Ratio - 1.0) *
                                (1.0 - Config.AffinityBenefit);
    }
  }

  // Memory contention: bandwidth demand scales with the CPU time each task
  // actually receives; factor > 1 slows the memory-bound portion of work.
  double TotalDemand = 0.0;
  for (size_t I = 0; I < N; ++I) {
    const Task *T = Table.ptr(I);
    if (!T || T->State.Finished)
      continue;
    TotalDemand += T->State.MemoryDemand * Share;
  }
  double DemandRatio = TotalDemand / Config.MemoryBandwidth;
  double MemFactor =
      DemandRatio <= 1.0
          ? 1.0
          : std::min(std::pow(DemandRatio, Config.MemContentionExponent),
                     Config.MemFactorCap);
  if (Config.AffinityBenefit > 0.0)
    MemFactor = 1.0 + (MemFactor - 1.0) * (1.0 - Config.AffinityBenefit);

  // The rate fields CoresPerSocket and InterSocketSync are fixed for the
  // simulation, so these three decide whether the version moves. Should
  // the count run into the serial bits, the next version comes from a
  // fresh block instead.
  if (bitsDiffer(Share, BaseAlloc.CpuShare) ||
      bitsDiffer(MemFactor, BaseAlloc.MemFactor) ||
      bitsDiffer(BarrierFactor, BaseAlloc.BarrierFactor)) {
    ++BaseAlloc.Version;
    if ((BaseAlloc.Version & ((uint64_t{1} << VersionCountBits) - 1)) == 0)
      BaseAlloc.Version = freshVersionBlock();
  }
  BaseAlloc.CpuShare = Share;
  BaseAlloc.MemFactor = MemFactor;
  BaseAlloc.BarrierFactor = BarrierFactor;
  BaseAlloc.AvailableCores = Cores;
  BaseAlloc.RunnableThreads = Runnable;
  CachedRunnable = Runnable;
  CachedUsedMemory = UsedMemory;
  CacheGeneration = Table.generation();
  CacheCores = Cores;
  TickCacheValid = true;
}

void Simulation::step() {
  Table.compact();

  unsigned Cores;
  if (Faults) {
    // Injectors draw seeded randomness once per tick in monotonic time
    // order; the storm override therefore cannot be cached.
    Cores = Faults->overrideCores(Time, Availability->coresAt(Time));
  } else {
    if (Time >= NextCoresChange) {
      CachedCores = Availability->coresAt(Time);
      NextCoresChange = Availability->nextChangeAt(Time);
    }
    Cores = CachedCores;
  }

  if (!TickCacheValid || Cores != CacheCores ||
      Table.generation() != CacheGeneration)
    recomputeTickState(Cores);

  BaseAlloc.Now = Time;

  // Phase 1, the steady pass: every unfinished task with an active region
  // that does not end this tick is advanced in place, with the same
  // operations in the same order as the slow path's step() would apply,
  // so the results are bit-identical. The rest are staged in SlowTasks and
  // take the slow path below, in insertion order, so observer and decision
  // callbacks fire in the same order as a loop that stepped every task
  // the slow way.
  const size_t N = Table.slots();
  if (SlowTasks.size() < N)
    SlowTasks.resize(N);
  uint32_t *Slow = SlowTasks.data();
  size_t NumSlow = 0;
  for (size_t I = 0; I < N; ++I) {
    Task *T = Table.ptr(I);
    if (!T)
      continue;
    TaskState &S = T->State;
    if (S.Finished)
      continue;
    if (S.RegionActive) {
      double Rate = T->refreshRate(BaseAlloc);
      assert(Rate > 0.0 && "region cannot make progress");
      if ((S.RegionWork - S.RegionProgress) / Rate > Tick) {
        S.RegionProgress += Rate * Tick;
        S.WorkCompleted += Rate * Tick;
        continue;
      }
    }
    Slow[NumSlow++] = static_cast<uint32_t>(I);
  }

  // Phase 2: sample the environment once — only needed when some task
  // takes the slow path, except under faults, where the injector must be
  // consulted every tick to keep its random stream aligned. The env
  // sample is per-observer (a task does not count its own threads as
  // external workload), but only its WorkloadThreads field depends on the
  // observer — sample once and rewrite that field per task. A step that
  // changes any of the four quantities the reductions read bumps the
  // table generation, so the next tick recomputes them.
  if (NumSlow > 0 || Faults) {
    EnvSample SharedEnv = Monitor.sample(0);
    unsigned MonitorRunnable = Monitor.runnable();
    if (Faults)
      Faults->perturbEnv(Time, SharedEnv);
    for (size_t K = 0; K < NumSlow; ++K) {
      Task *T = Table.ptr(Slow[K]);
      const TaskState &S = T->State;
      const unsigned Threads = S.Threads;
      const double Demand = S.MemoryDemand;
      const double WorkingSet = S.WorkingSetMb;
      const bool Finished = S.Finished;
      BaseAlloc.Env = SharedEnv;
      BaseAlloc.Env.WorkloadThreads = static_cast<double>(
          MonitorRunnable > Threads ? MonitorRunnable - Threads : 0);
      T->step(Tick, BaseAlloc);
      if (S.Threads != Threads || S.MemoryDemand != Demand ||
          S.WorkingSetMb != WorkingSet || S.Finished != Finished)
        Table.bumpGeneration();
    }
  }

  // A stale-monitor fault suppresses the update: observers keep reading
  // the aging snapshot until the window passes.
  if (!Faults || !Faults->monitorStale(Time))
    Monitor.update(CachedRunnable, Cores, CachedUsedMemory, Tick);
  Time += Tick;

  for (const auto &Hook : TickHooks)
    Hook(*this);
}

bool Simulation::runUntil(const std::function<bool()> &Done, double MaxTime) {
  while (Time < MaxTime) {
    if (Done())
      return true;
    step();
  }
  return Done();
}

void Simulation::addTickHook(std::function<void(Simulation &)> Hook) {
  TickHooks.push_back(std::move(Hook));
}
