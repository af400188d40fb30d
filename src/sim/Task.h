//===-- sim/Task.h - Schedulable task interface -----------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface between the simulator's scheduler and anything that runs on
/// the machine. Program models (src/workload) implement Task; the scheduler
/// hands each task its per-tick CPU allocation and contention state.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SIM_TASK_H
#define MEDLEY_SIM_TASK_H

#include "sim/EnvSample.h"

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

/// Anything the simulated machine can run.
///
/// Scheduler contract: the four observable scheduling quantities —
/// activeThreads(), memoryDemand(), workingSetMb() and finished() — may
/// change only inside step() / stepSteady(). The simulator mirrors them
/// into struct-of-arrays columns (sim::TaskTable) at add time and after
/// every slow-path step, and its per-tick reductions read the columns, not
/// the accessors; a task mutating them out of band desynchronises the
/// mirror.
class Task {
public:
  virtual ~Task();

  /// Stable display name.
  virtual const std::string &name() const = 0;

  /// Threads this task currently keeps runnable.
  virtual unsigned activeThreads() const = 0;

  /// Memory bandwidth demand, in normalised units, if the task ran at full
  /// speed this tick (the scheduler scales it by the granted CPU share).
  virtual double memoryDemand() const = 0;

  /// Resident working set in MB.
  virtual double workingSetMb() const = 0;

  /// Advances the task by \p Dt seconds under \p Allocation.
  virtual void step(double Dt, const CpuAllocation &Allocation) = 0;

  /// Steady-tick fast path. \p Allocation carries the same scalar fields
  /// as step()'s would, but its Env member is STALE — a task that would
  /// consult the environment this tick (e.g. to start a new region) must
  /// return false. Returning true means the task fully advanced itself by
  /// \p Dt, bit-identically to what step() would have done, without
  /// changing any of the four observable scheduling quantities. Returning
  /// false means "take the slow path": the scheduler then samples the
  /// environment and calls step() with a complete allocation; the task
  /// must not have mutated anything. The default opts every tick out, so
  /// existing Task implementations keep their exact behaviour.
  virtual bool stepSteady(double Dt, const CpuAllocation &Allocation) {
    (void)Dt;
    (void)Allocation;
    return false;
  }

  /// True once the task has completed all its work.
  virtual bool finished() const = 0;
};

} // namespace medley::sim

#endif // MEDLEY_SIM_TASK_H
