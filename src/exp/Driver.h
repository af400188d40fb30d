//===-- exp/Driver.h - Experiment driver ------------------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs targets under policies in scenarios and turns completion times into
/// the paper's metrics: speedup over the OpenMP default (per benchmark,
/// averaged over the workload sets of a size class, repeats averaged, and
/// harmonic means for aggregates) and external-workload impact. Workload
/// behaviour and availability are seeded by (scenario, set, target, repeat)
/// only, so every policy faces the identical environment — the paper's
/// fair-comparison requirement.
///
/// Execution is organised as an explicit cell plan (see exp/Cell.h): every
/// entry point enumerates its (cell, repeat) runs up front, constructs the
/// policy instances sequentially in plan order, executes the independent
/// runs across a support::ThreadPool, and reduces in deterministic cell
/// order. Results are therefore bit-identical at every job count; baseline
/// cells are shared process-wide through exp::BaselineCache.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_EXP_DRIVER_H
#define MEDLEY_EXP_DRIVER_H

#include "exp/BaselineCache.h"
#include "exp/Cell.h"
#include "exp/Scenario.h"
#include "runtime/CoExecution.h"

#include <memory>

namespace medley::support {
class ThreadPool;
} // namespace medley::support

namespace medley::exp {

/// Driver-wide options.
struct DriverOptions {
  sim::MachineConfig Machine = sim::MachineConfig::evaluationPlatform();
  unsigned Repeats = 3; ///< "Each experiment was repeated 3 times."
  uint64_t Seed = 0xD01;
  double Tick = 0.1;
  double MaxTime = 900.0;
  /// Worker threads for cell execution. 0 = auto (the MEDLEY_JOBS
  /// environment variable, else the hardware concurrency); 1 = inline
  /// sequential execution. Results are identical at every value.
  unsigned Jobs = 0;

  /// Fault-injection plan applied to every run (empty = no injection).
  /// Each run derives its injector seed from the cell seed, so the fault
  /// streams obey the same determinism contract as everything else.
  sim::FaultPlan Faults;

  /// Retries a failed repeat gets before it is recorded as a CellFailure
  /// with a MaxTime penalty. A failing cell never aborts the plan.
  unsigned CellRetries = 1;
};

/// Executes experiment cells and computes speedups with baseline caching.
class Driver {
public:
  explicit Driver(DriverOptions Options = {});
  ~Driver();

  Driver(const Driver &) = delete;
  Driver &operator=(const Driver &) = delete;

  /// Runs \p Target under \p Factory against \p Set (null = isolated) in
  /// \p Scen, averaged over repeats. If \p WorkloadPolicy is non-null the
  /// workload programs adapt with fresh instances from it instead of the
  /// reproducible thread pattern (Section 7.4's smart workloads).
  Measurement measure(const std::string &Target,
                      const policy::PolicyFactory &Factory,
                      const Scenario &Scen, const workload::WorkloadSet *Set,
                      const policy::PolicyFactory *WorkloadPolicy = nullptr);

  /// Executes a batch of cells as one plan: baseline cells (null Factory)
  /// are served from the process-wide cache where possible and
  /// deduplicated within the batch, the remaining runs execute across the
  /// pool, and results are reduced in cell order. Returns one measurement
  /// per input cell, in order.
  std::vector<std::shared_ptr<const Measurement>>
  measureCells(const std::vector<CellSpec> &Cells);

  /// Speedup of \p Factory over the OpenMP default for \p Target in
  /// \p Scen: per-set time ratios, harmonically averaged over the
  /// scenario's workload sets (one ratio for isolated scenarios).
  double speedup(const std::string &Target,
                 const policy::PolicyFactory &Factory, const Scenario &Scen);

  /// Ratio of external-workload throughput under \p Factory to the
  /// throughput under the default policy (> 1 = the policy *helps* the
  /// workload; Fig 13a).
  double workloadImpact(const std::string &Target,
                        const policy::PolicyFactory &Factory,
                        const Scenario &Scen);

  /// The cached default-policy measurement for a cell. The returned entry
  /// is immutable and remains valid for the caller's lifetime, across
  /// further measurements and cache clears.
  std::shared_ptr<const Measurement>
  defaultMeasurement(const std::string &Target, const Scenario &Scen,
                     const workload::WorkloadSet *Set);

  const DriverOptions &options() const { return Options; }

  /// The resolved worker count this driver executes plans with.
  unsigned jobs() const;

  /// Clears the process-wide baseline cache (entries held by callers stay
  /// valid; only needed to force recomputation, e.g. in benchmarks).
  void clearCache() { BaselineCache::instance().clear(); }

private:
  struct PlannedRun;

  runtime::CoExecutionConfig makeConfig(const Scenario &Scen,
                                        const std::string &SetName,
                                        const std::string &Target,
                                        unsigned Repeat) const;

  std::vector<runtime::WorkloadProgramSetup>
  makeWorkload(const Scenario &Scen, const workload::WorkloadSet *Set,
               const policy::PolicyFactory *WorkloadPolicy,
               uint64_t RepeatSeed) const;

  /// Cache key of a baseline cell under this driver's options.
  std::string baselineKey(const std::string &Target, const Scenario &Scen,
                          const workload::WorkloadSet *Set) const;

  /// Runs every planned run, across the pool when jobs() > 1.
  void executeRuns(std::vector<PlannedRun> &Runs);

  DriverOptions Options;
  std::string OptionsFingerprint;
  std::unique_ptr<support::ThreadPool> Pool; ///< Created on first use.
};

} // namespace medley::exp

#endif // MEDLEY_EXP_DRIVER_H
