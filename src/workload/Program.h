//===-- workload/Program.h - Executable program model -----------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A program is a sequence of parallel regions executed for a number of
/// outer iterations (NAS-style time stepping). Before every region
/// execution the program consults a ThreadChooser — the hook every mapping
/// policy plugs into, mirroring the per-parallel-loop decision point of the
/// paper. Program implements sim::Task so the simulator schedules it.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_WORKLOAD_PROGRAM_H
#define MEDLEY_WORKLOAD_PROGRAM_H

#include "workload/Region.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace medley::workload {

/// Static description of a whole program.
struct ProgramSpec {
  std::string Name;
  std::string Suite; ///< "NAS", "SpecOMP" or "Parsec".
  std::vector<RegionSpec> Regions;
  unsigned Iterations = 1; ///< Outer repetitions of the region sequence.
  double WorkingSetMb = 256.0;

  /// Total serial work across all iterations.
  double totalWork() const;

  /// Isolated whole-program speedup at \p Threads threads (work-weighted
  /// harmonic combination of region speedups); drives the Section-5.1
  /// scalability split.
  double isolatedSpeedup(unsigned Threads,
                         const sim::MachineConfig &Machine) const;
};

/// Everything a policy may look at when choosing a thread count.
struct RegionContext {
  const ProgramSpec *Program = nullptr;
  const RegionSpec *Region = nullptr;
  size_t RegionIndex = 0;
  size_t Iteration = 0;
  sim::EnvSample Env;    ///< Environment as seen by this program.
  double Now = 0.0;      ///< Simulated time.
  unsigned MaxThreads = 1; ///< Upper clamp (machine core count).
};

/// Result of one completed region execution, fed back to policies.
struct RegionOutcome {
  const RegionSpec *Region = nullptr;
  unsigned Threads = 0;
  double Work = 0.0;     ///< Serial-work units completed.
  double Duration = 0.0; ///< Wall-clock seconds taken.
  double EndTime = 0.0;

  /// Observed progress rate (work per second).
  double rate() const { return Duration > 0.0 ? Work / Duration : 0.0; }
};

/// Decides the thread count for the upcoming region execution.
using ThreadChooser = std::function<unsigned(const RegionContext &)>;

/// Observes completed region executions (policy feedback, tracing).
using RegionObserver = std::function<void(const RegionOutcome &)>;

/// A running instance of a ProgramSpec.
class Program : public sim::Task {
public:
  /// \p MaxThreads clamps chooser decisions (normally the machine's total
  /// core count). If \p Looping, the program restarts upon completion and
  /// finished() never becomes true (external-workload behaviour: "each
  /// program runs until the other finishes").
  Program(ProgramSpec Spec, ThreadChooser Chooser, unsigned MaxThreads,
          bool Looping = false);

  /// Shared-spec constructor: tenant fleets instantiate the same catalog
  /// program tens of thousands of times, so instances share one immutable
  /// spec instead of copying its region vector per tenant.
  Program(std::shared_ptr<const ProgramSpec> Spec, ThreadChooser Chooser,
          unsigned MaxThreads, bool Looping = false);

  void setRegionObserver(RegionObserver Observer);

  // sim::Task interface.
  const std::string &name() const override { return Spec->Name; }
  unsigned activeThreads() const override { return CurrentThreads; }
  double memoryDemand() const override;
  double workingSetMb() const override { return Spec->WorkingSetMb; }
  void step(double Dt, const sim::CpuAllocation &Allocation) override;
  bool stepSteady(double Dt, const sim::CpuAllocation &Allocation) override;
  bool finished() const override;

  const ProgramSpec &spec() const { return *Spec; }

  /// The shared spec instance (alive as long as any instance uses it).
  const std::shared_ptr<const ProgramSpec> &sharedSpec() const { return Spec; }

  /// Wall-clock completion time of the (first) full run; meaningful once
  /// finished() or completedRuns() > 0.
  double completionTime() const { return CompletionTime; }

  /// Number of full runs completed (only > 1 when looping).
  size_t completedRuns() const { return CompletedRuns; }

  /// Region executions completed so far.
  size_t regionsExecuted() const { return RegionsExecuted; }

  /// Total serial-work units completed so far (across restarts when
  /// looping); the basis of workload-throughput measurements (Fig 13a).
  double workCompleted() const { return TotalWorkDone; }

private:
  void startNextRegion(const sim::CpuAllocation &Allocation, double Now);

  /// regionRate for the active region and current thread count under
  /// \p Allocation, cached on (Allocation.Version, region, threads). Equal
  /// nonzero versions carry bit-identical rate fields and regionRate is
  /// pure, so a hit returns exactly the bits a recomputation would. A
  /// version-0 allocation is always recomputed.
  double cachedRegionRate(const sim::CpuAllocation &Allocation);

  std::shared_ptr<const ProgramSpec> Spec;
  ThreadChooser Chooser;
  unsigned MaxThreads;
  bool Looping;
  RegionObserver Observer;

  size_t RegionIndex = 0;
  size_t Iteration = 0;
  bool RegionActive = false;
  unsigned CurrentThreads = 1;
  double RegionWork = 0.0; ///< Work of the active region, set at its start.
  double RegionProgress = 0.0;
  double RegionStart = 0.0;
  bool Done = false;
  double CompletionTime = 0.0;
  size_t CompletedRuns = 0;
  size_t RegionsExecuted = 0;
  double TotalWorkDone = 0.0;

  /// cachedRegionRate's single entry: key + value. RateVersion 0 never
  /// matches, so the entry starts empty.
  uint64_t RateVersion = 0;
  size_t RateRegionIndex = 0;
  unsigned RateThreads = 0;
  double CachedRate = 0.0;
};

} // namespace medley::workload

#endif // MEDLEY_WORKLOAD_PROGRAM_H
