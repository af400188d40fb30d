//===-- sim/Simulation.h - Discrete-time machine simulation -----*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-time simulation loop: each tick it reads processor
/// availability, computes the fair CPU share and memory-contention factor
/// for the current task mix, advances every task, and refreshes the system
/// monitor. This substitutes for the paper's physical 32-core testbed (see
/// DESIGN.md §5).
///
/// The tick loop is structured around three caches that are all
/// bit-identity-preserving (DESIGN.md §13): each task's scheduling state
/// is plain data (TaskState) that the loop reads in place and, on a steady
/// tick, advances in place with no virtual call; the task table's
/// generation counter lets the per-tick FP reductions (runnable threads,
/// used memory, bandwidth demand — and the share/contention factors
/// derived from them, including the pow()) be reused verbatim across
/// ticks where no task's scheduling quantities changed, and a
/// recomputation that moves a rate field gives the allocation a new
/// version, on which tasks key their cached region rates; processor
/// availability is queried only at pattern-declared change points; and
/// the environment sample is taken lazily, only on ticks where some task
/// takes the slow path (a steady task never reads its Env). With a fault
/// injector installed the loop reverts to the always-query, always-sample
/// schedule, because injectors draw seeded randomness once per tick and
/// skipping a call would shift the fault stream.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SIM_SIMULATION_H
#define MEDLEY_SIM_SIMULATION_H

#include "sim/AvailabilityPattern.h"
#include "sim/FaultInjector.h"
#include "sim/Machine.h"
#include "sim/SystemMonitor.h"
#include "sim/Task.h"
#include "sim/TaskTable.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace medley::sim {

/// Owns the machine state and task set, and advances simulated time.
class Simulation {
public:
  /// \p Tick is the scheduling quantum in seconds.
  Simulation(MachineConfig Config,
             std::unique_ptr<AvailabilityPattern> Availability,
             double Tick = 0.1);

  /// Adds \p T to the machine; tasks may be added mid-simulation.
  void addTask(std::shared_ptr<Task> T);

  /// Removes a task (e.g. a finished workload program being replaced).
  void removeTask(const Task *T);

  /// Advances the simulation by one tick.
  void step();

  /// Steps until \p Done returns true or \p MaxTime is reached. Returns
  /// true if \p Done fired (false = timed out).
  bool runUntil(const std::function<bool()> &Done, double MaxTime);

  /// Registers a hook invoked after every tick (monitoring, logging).
  void addTickHook(std::function<void(Simulation &)> Hook);

  /// Installs a fault injector perturbing this simulation (null = none).
  /// Storm windows override the availability pattern, stale windows
  /// suppress monitor updates, and sensor faults corrupt the EnvSamples
  /// that tasks observe.
  void setFaultInjector(std::unique_ptr<FaultInjector> Injector);

  /// The installed injector, or null.
  const FaultInjector *faultInjector() const { return Faults.get(); }

  double now() const { return Time; }
  double tick() const { return Tick; }
  const MachineConfig &machine() const { return Config; }
  const SystemMonitor &monitor() const { return Monitor; }

  /// Cores available at the current time (always a live pattern query,
  /// with any fault override applied — never the step loop's cache).
  unsigned availableCores();

  /// Total runnable threads across unfinished tasks.
  unsigned runnableThreads() const;

  size_t numTasks() const { return Table.owners().size(); }
  const std::vector<std::shared_ptr<Task>> &tasks() const {
    return Table.owners();
  }

private:
  /// Recomputes the per-tick reductions and allocation scalars for
  /// \p Cores and the current table contents, caching them under the
  /// table generation. The accumulation order is insertion order, exactly
  /// as an uncached tick would compute it. Bumps BaseAlloc.Version when a
  /// rate field changed bitwise.
  void recomputeTickState(unsigned Cores);

  MachineConfig Config;
  std::unique_ptr<AvailabilityPattern> Availability;
  std::unique_ptr<FaultInjector> Faults;
  double Tick;
  double Time = 0.0;
  SystemMonitor Monitor;
  /// The task set; iteration order is insertion order.
  TaskTable Table;
  std::vector<std::function<void(Simulation &)>> TickHooks;

  /// Slot indices of the tasks taking this tick's slow path. Its size
  /// only grows, to the table's slot high-water mark, so steady ticks
  /// never allocate.
  std::vector<uint32_t> SlowTasks;

  /// Availability cache: coresAt() is constant on [Time, NextCoresChange),
  /// per AvailabilityPattern::nextChangeAt. Unused while faults are
  /// installed (storm overrides are drawn per tick).
  unsigned CachedCores = 0;
  double NextCoresChange = 0.0; ///< Sentinel set in ctor to force a query.

  /// Reduction cache, valid for (CacheGeneration, CacheCores).
  bool TickCacheValid = false;
  uint64_t CacheGeneration = 0;
  unsigned CacheCores = 0;
  unsigned CachedRunnable = 0;
  double CachedUsedMemory = 0.0;
  /// Allocation handed to tasks; scalar fields and Version refreshed with
  /// the reduction cache, Now per tick, Env only on the slow path.
  CpuAllocation BaseAlloc;
};

} // namespace medley::sim

#endif // MEDLEY_SIM_SIMULATION_H
