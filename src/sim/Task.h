//===-- sim/Task.h - Schedulable task interface -----------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface between the simulator's scheduler and anything that runs on
/// the machine. Program models (src/workload) implement Task; the scheduler
/// hands each task its per-tick CPU allocation and contention state, and
/// reads and advances the task's scheduling state in place (TaskState).
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SIM_TASK_H
#define MEDLEY_SIM_TASK_H

#include "sim/EnvSample.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace medley::sim {

/// Per-tick resource allocation handed to a task by the scheduler.
struct CpuAllocation {
  /// Fraction of a core each of the task's threads receives this tick
  /// (fair-share time slicing, including the context-switch penalty).
  double CpuShare = 1.0;

  /// Memory-contention slowdown factor (>= 1) for fully memory-bound work.
  double MemFactor = 1.0;

  /// Barrier-convoy multiplier (>= 1) applied to synchronisation costs;
  /// grows with machine-wide oversubscription.
  double BarrierFactor = 1.0;

  /// Socket topology for the inter-socket synchronisation penalty.
  unsigned CoresPerSocket = 8;
  double InterSocketSync = 0.0;

  /// Cores available machine-wide this tick.
  unsigned AvailableCores = 0;

  /// Runnable threads machine-wide this tick (including this task's).
  unsigned RunnableThreads = 0;

  /// Environment as seen by this task (its own threads excluded from
  /// WorkloadThreads), sampled at the start of the tick.
  EnvSample Env;

  /// Current simulated time at the start of the tick.
  double Now = 0.0;

  /// Rate version: equal nonzero versions guarantee bit-identical
  /// CpuShare, MemFactor, BarrierFactor, CoresPerSocket and
  /// InterSocketSync, the fields a region's progress rate reads, so a
  /// task may key a cached rate on it (DESIGN.md §13.1). The simulator
  /// never repeats a version, not even across simulations; 0 marks a
  /// hand-built allocation, whose rate is never cached.
  uint64_t Version = 0;
};

/// A task's scheduling state as plain data, read and advanced in place by
/// the simulator (DESIGN.md §13.1).
///
/// Who writes what: the task writes every field, but only in its
/// constructor and inside step(). The simulator writes RegionProgress,
/// WorkCompleted, Rate and RateVersion, and only in its steady pass, on a
/// tick where the active region neither starts nor finishes.
struct TaskState {
  /// Threads the task keeps runnable.
  unsigned Threads = 0;
  /// True once the task has completed all its work.
  bool Finished = false;
  /// A region is running: the steady pass may advance it without step().
  bool RegionActive = false;
  /// Memory bandwidth demand, in normalised units, if the task ran at full
  /// speed this tick (the scheduler scales it by the granted CPU share).
  double MemoryDemand = 0.0;
  /// Resident working set in MB.
  double WorkingSetMb = 0.0;
  /// Serial work of the active region, and how much of it is done.
  double RegionWork = 0.0;
  double RegionProgress = 0.0;
  /// Serial work completed over the task's lifetime.
  double WorkCompleted = 0.0;
  /// The active region's progress rate under allocation version
  /// RateVersion. No simulator allocation has version 0, so zeroing
  /// RateVersion forces the next refresh.
  double Rate = 0.0;
  uint64_t RateVersion = 0;
};

/// Anything the simulated machine can run.
class Task {
public:
  virtual ~Task();

  /// Stable display name.
  virtual const std::string &name() const = 0;

  /// Threads this task currently keeps runnable.
  unsigned activeThreads() const { return State.Threads; }

  /// Memory bandwidth demand at full speed (see TaskState::MemoryDemand).
  double memoryDemand() const { return State.MemoryDemand; }

  /// Resident working set in MB.
  double workingSetMb() const { return State.WorkingSetMb; }

  /// True once the task has completed all its work.
  bool finished() const { return State.Finished; }

  /// Advances the task by \p Dt seconds under \p Allocation: the slow
  /// path, taken on every tick the simulator's steady pass cannot advance
  /// the task itself (no active region, or the region ends this tick).
  virtual void step(double Dt, const CpuAllocation &Allocation) = 0;

protected:
  /// The active region's progress rate under \p Allocation: a pure
  /// function of the allocation's rate fields and the task's region and
  /// threads. Called only while State.RegionActive.
  virtual double activeRate(const CpuAllocation &Allocation) const = 0;

  /// State.Rate, recomputed first unless State.RateVersion matches the
  /// nonzero \p Allocation.Version. Equal nonzero versions carry
  /// bit-identical rate fields and activeRate is pure, so a hit returns
  /// exactly the bits a recomputation would.
  double refreshRate(const CpuAllocation &Allocation) {
    if (Allocation.Version == 0 || State.RateVersion != Allocation.Version) {
      State.Rate = activeRate(Allocation);
      State.RateVersion = Allocation.Version;
    }
    return State.Rate;
  }

  TaskState State;
  friend class Simulation;

private:
  /// Insertion sequence number the holding TaskTable assigned in adopt(),
  /// or NoSeq. It never changes while the task is held, so compaction
  /// leaves the task untouched; removal binary-searches the table's
  /// sorted sequence column for it.
  static constexpr uint64_t NoSeq = UINT64_MAX;
  uint64_t TableSeq = NoSeq;
  friend class TaskTable;
};

} // namespace medley::sim

#endif // MEDLEY_SIM_TASK_H
