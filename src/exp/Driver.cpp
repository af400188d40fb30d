//===-- exp/Driver.cpp - Experiment driver -----------------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exp/Driver.h"

#include "policy/DefaultPolicy.h"
#include "support/Fnv.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "workload/Catalog.h"
#include "workload/LiveTrace.h"

#include <cassert>
#include <map>
#include <sstream>

using namespace medley;
using namespace medley::exp;

namespace {

/// FNV-1a over a string mixed with a seed; drives per-cell determinism.
uint64_t hashCell(uint64_t Seed, const std::string &Key) {
  return support::fnv1aUpdate(support::fnv1aInit() ^ Seed, Key.data(),
                              Key.size());
}

/// Everything per-driver that shapes a measurement, folded into the
/// process-wide baseline-cache key so differently configured drivers
/// never share entries.
std::string fingerprintOptions(const DriverOptions &Options) {
  const sim::MachineConfig &M = Options.Machine;
  std::ostringstream OS;
  OS << "n" << Options.Repeats << "|t" << Options.Tick << "|m"
     << Options.MaxTime << "|mc"
     << M.TotalCores << ";" << M.MemoryBandwidth << ";" << M.TotalMemoryMb
     << ";" << M.AffinityBenefit << ";" << M.ContextSwitchOverhead << ";"
     << M.BarrierConvoy << ";" << M.MemContentionExponent << ";"
     << M.MemFactorCap << ";" << M.SocketCount << ";" << M.InterSocketSync;
  if (!Options.Faults.empty()) {
    // Fault plans change every measurement; stream the full plan so
    // differently perturbed drivers never share baseline-cache entries.
    const sim::FaultPlan &P = Options.Faults;
    OS << "|fp" << P.CorruptionRate << ";" << P.DropoutRate << ";"
       << P.StormCores;
    auto Stream = [&OS](char Tag, const std::vector<sim::FaultWindow> &Ws) {
      OS << ";" << Tag;
      for (const sim::FaultWindow &W : Ws)
        OS << W.Begin << "," << W.End << ",";
    };
    Stream('d', P.SensorDropout);
    Stream('c', P.SensorCorruption);
    Stream('u', P.UnplugStorm);
    Stream('s', P.StaleMonitor);
  }
  return OS.str();
}

} // namespace

/// One repeat of one cell, fully prepared on the planning thread: the
/// config and workload are pure functions of the cell key, and the policy
/// instance is constructed in plan order so stateful factories (e.g. the
/// analytic policy's seed counter) see the sequential call sequence.
/// Workers only run the simulation.
struct Driver::PlannedRun {
  size_t Cell = 0; ///< Owning cell index in the plan.
  const workload::ProgramSpec *Spec = nullptr;
  runtime::CoExecutionConfig Config;
  std::unique_ptr<policy::ThreadPolicy> Policy;
  std::vector<runtime::WorkloadProgramSetup> Workload;
  runtime::CoExecutionResult Result;

  /// Failure-isolation bookkeeping (see DriverOptions::CellRetries).
  bool Failed = false;
  unsigned Attempts = 0;
  std::string Error;
};

Driver::Driver(DriverOptions Options)
    : Options(Options), OptionsFingerprint(fingerprintOptions(Options)) {
  assert(Options.Repeats >= 1 && "need at least one repeat");
}

Driver::~Driver() = default;

unsigned Driver::jobs() const {
  return Options.Jobs > 0 ? Options.Jobs : support::ThreadPool::defaultJobs();
}

runtime::CoExecutionConfig Driver::makeConfig(const Scenario &Scen,
                                              const std::string &SetName,
                                              const std::string &Target,
                                              unsigned Repeat) const {
  runtime::CoExecutionConfig Config;
  Config.Machine = Scen.Affinity ? Options.Machine.withAffinity()
                                 : Options.Machine;
  Config.Tick = Options.Tick;
  Config.MaxTime = Options.MaxTime;

  std::string CellKey = Scen.Name + "|" + SetName + "|" + Target + "|r" +
                        std::to_string(Repeat);
  uint64_t CellSeed = hashCell(Options.Seed, CellKey);
  Config.WorkloadSeed = CellSeed;
  // Per-program workload threads stay modest (the contention comes from
  // the *number* of co-running programs); this also keeps the runtime
  // features inside the regime the offline models were trained on.
  Config.WorkloadMaxThreads = std::max(2u, Options.Machine.TotalCores * 5 / 16);

  unsigned Cores = Config.Machine.TotalCores;
  switch (Scen.Hardware) {
  case HardwareChange::Static:
    Config.Availability = [Cores] {
      return std::make_unique<sim::StaticAvailability>(Cores);
    };
    break;
  case HardwareChange::Low:
  case HardwareChange::High: {
    double Period = Scen.availabilityPeriod();
    Config.Availability = [Cores, Period, CellSeed] {
      return sim::PeriodicAvailability::standardLadder(Cores, Period,
                                                       CellSeed ^ 0xCAFE);
    };
    break;
  }
  case HardwareChange::LiveTrace: {
    workload::LiveTraceData Trace =
        workload::generateLiveTrace(CellSeed ^ 0x11FE, Cores);
    auto Points = Trace.Availability;
    Config.Availability = [Points] {
      return std::make_unique<sim::TraceAvailability>(Points);
    };
    break;
  }
  }

  if (!Options.Faults.empty()) {
    sim::FaultPlan Plan = Options.Faults;
    uint64_t FaultSeed = CellSeed ^ 0xFA17FA17ULL;
    Config.Faults = [Plan, FaultSeed] {
      return std::make_unique<sim::FaultInjector>(Plan, FaultSeed);
    };
  }
  return Config;
}

std::vector<runtime::WorkloadProgramSetup>
Driver::makeWorkload(const Scenario &Scen, const workload::WorkloadSet *Set,
                     const policy::PolicyFactory *WorkloadPolicy,
                     uint64_t RepeatSeed) const {
  std::vector<runtime::WorkloadProgramSetup> Setups;
  if (!Set)
    return Setups;

  if (Scen.Hardware == HardwareChange::LiveTrace) {
    // Trace-driven demand carriers: the traced workload thread count is
    // split evenly across the carrier programs.
    workload::LiveTraceData Trace =
        workload::generateLiveTrace(RepeatSeed ^ 0x11FE,
                                    Options.Machine.TotalCores);
    size_t NumCarriers = Set->Programs.size();
    for (size_t I = 0; I < NumCarriers; ++I) {
      std::vector<std::pair<double, unsigned>> Share;
      Share.reserve(Trace.WorkloadThreads.size());
      for (const auto &[Time, Threads] : Trace.WorkloadThreads) {
        unsigned Part = Threads / NumCarriers;
        if (I < Threads % NumCarriers)
          ++Part;
        Share.emplace_back(Time, std::max(1u, Part));
      }
      runtime::WorkloadProgramSetup Setup;
      Setup.Spec = workload::Catalog::byName(Set->Programs[I]);
      Setup.Chooser = workload::traceChooser(std::move(Share));
      Setups.push_back(std::move(Setup));
    }
    return Setups;
  }

  for (const std::string &Name : Set->Programs) {
    runtime::WorkloadProgramSetup Setup;
    Setup.Spec = workload::Catalog::byName(Name);
    if (WorkloadPolicy)
      Setup.Policy = std::shared_ptr<policy::ThreadPolicy>(
          (*WorkloadPolicy)());
    Setups.push_back(std::move(Setup));
  }
  return Setups;
}

std::string Driver::baselineKey(const std::string &Target,
                                const Scenario &Scen,
                                const workload::WorkloadSet *Set) const {
  std::string SetName = Set ? Set->Name : "none";
  std::string CellKey = Scen.Name + "|" + SetName + "|" + Target;
  // The repeat-0 seed folds Options.Seed into the key; the fingerprint
  // covers everything else the measurement depends on.
  std::ostringstream OS;
  OS << CellKey << "|s" << std::hex << hashCell(Options.Seed, CellKey + "|r0")
     << "|" << OptionsFingerprint;
  return OS.str();
}

void Driver::executeRuns(std::vector<PlannedRun> &Runs) {
  // Cell isolation: a run that throws is retried from a clean policy
  // state; a run that exhausts the retry budget is recorded as failed
  // with a MaxTime penalty instead of aborting the whole plan. The
  // workload setups are copied per attempt because runCoExecution
  // consumes them.
  unsigned MaxAttempts = 1 + Options.CellRetries;
  auto Execute = [MaxAttempts](PlannedRun &Run) {
    for (unsigned A = 0; A < MaxAttempts; ++A) {
      try {
        if (A > 0) {
          Run.Policy->reset();
          for (runtime::WorkloadProgramSetup &Setup : Run.Workload)
            if (Setup.Policy)
              Setup.Policy->reset();
        }
        std::vector<runtime::WorkloadProgramSetup> Workload = Run.Workload;
        Run.Result = runCoExecution(Run.Config, *Run.Spec, *Run.Policy,
                                    std::move(Workload));
        Run.Attempts = A + 1;
        return;
      } catch (const std::exception &E) {
        Run.Error = E.what();
      } catch (...) {
        Run.Error = "non-standard exception";
      }
    }
    Run.Failed = true;
    Run.Attempts = MaxAttempts;
    Run.Result = runtime::CoExecutionResult();
    Run.Result.TargetFinished = false;
    Run.Result.TargetTime = Run.Config.MaxTime;
  };
  unsigned Jobs = jobs();
  if (Jobs <= 1 || Runs.size() <= 1) {
    for (PlannedRun &Run : Runs)
      Execute(Run);
    return;
  }
  if (!Pool)
    Pool = std::make_unique<support::ThreadPool>(Jobs);
  Pool->parallelFor(Runs.size(), [&](size_t I) { Execute(Runs[I]); });
}

std::vector<std::shared_ptr<const Measurement>>
Driver::measureCells(const std::vector<CellSpec> &Cells) {
  std::vector<std::shared_ptr<const Measurement>> Results(Cells.size());

  policy::PolicyFactory Default = [] {
    return std::make_unique<policy::DefaultPolicy>();
  };

  // Plan: enumerate every (cell, repeat) run up front. Baseline cells are
  // served from the process-wide cache when possible and deduplicated
  // within the batch; everything else becomes planned runs. Policies are
  // instantiated here, sequentially in plan order — see PlannedRun.
  std::vector<PlannedRun> Runs;
  std::vector<std::string> BaselineKeys(Cells.size());
  std::vector<size_t> AliasOf(Cells.size(), SIZE_MAX);
  std::map<std::string, size_t> BaselineOwner;

  for (size_t C = 0; C < Cells.size(); ++C) {
    const CellSpec &Cell = Cells[C];
    assert(Cell.Scen && "cell without a scenario");
    const policy::PolicyFactory *Factory = Cell.Factory;
    if (!Factory) {
      std::string Key = baselineKey(Cell.Target, *Cell.Scen, Cell.Set);
      auto Owner = BaselineOwner.find(Key);
      if (Owner != BaselineOwner.end()) {
        AliasOf[C] = Owner->second; // Same baseline planned earlier this batch.
        continue;
      }
      if (auto Cached = BaselineCache::instance().lookup(Key)) {
        Results[C] = std::move(Cached);
        continue;
      }
      BaselineOwner.emplace(Key, C);
      BaselineKeys[C] = std::move(Key);
      Factory = &Default;
    }

    const workload::ProgramSpec &Spec = workload::Catalog::byName(Cell.Target);
    std::string SetName = Cell.Set ? Cell.Set->Name : "none";
    for (unsigned R = 0; R < Options.Repeats; ++R) {
      PlannedRun Run;
      Run.Cell = C;
      Run.Spec = &Spec;
      Run.Config = makeConfig(*Cell.Scen, SetName, Cell.Target, R);
      Run.Policy = (*Factory)();
      Run.Workload = makeWorkload(*Cell.Scen, Cell.Set, Cell.WorkloadPolicy,
                                  Run.Config.WorkloadSeed);
      Runs.push_back(std::move(Run));
    }
  }

  executeRuns(Runs);

  // Reduce in cell order, repeats in order — the exact arithmetic of the
  // sequential path, regardless of the execution interleaving above.
  for (size_t First = 0; First < Runs.size();) {
    size_t C = Runs[First].Cell;
    Measurement M;
    std::vector<double> Times, Throughputs;
    size_t Last = First;
    for (; Last < Runs.size() && Runs[Last].Cell == C; ++Last) {
      PlannedRun &Planned = Runs[Last];
      runtime::CoExecutionResult &Run = Planned.Result;
      Times.push_back(Run.TargetTime);
      Throughputs.push_back(Run.WorkloadThroughput);
      M.Faults.merge(Run.Faults);
      if (Planned.Attempts > 1)
        M.Faults.CellRetries += Planned.Attempts - 1;
      if (Planned.Failed) {
        ++M.Faults.CellFailures;
        CellFailure F;
        F.Repeat = static_cast<unsigned>(Last - First);
        F.Attempts = Planned.Attempts;
        F.Error = std::move(Planned.Error);
        M.Failures.push_back(std::move(F));
      }
      M.Runs.push_back(std::move(Run));
    }
    M.MeanTargetTime = mean(Times);
    M.MeanWorkloadThroughput = mean(Throughputs);
    if (!BaselineKeys[C].empty())
      Results[C] = BaselineCache::instance().insert(BaselineKeys[C],
                                                    std::move(M));
    else
      Results[C] = std::make_shared<const Measurement>(std::move(M));
    First = Last;
  }

  // Resolve within-batch baseline duplicates.
  for (size_t C = 0; C < Cells.size(); ++C)
    if (AliasOf[C] != SIZE_MAX)
      Results[C] = Results[AliasOf[C]];

  return Results;
}

Measurement Driver::measure(const std::string &Target,
                            const policy::PolicyFactory &Factory,
                            const Scenario &Scen,
                            const workload::WorkloadSet *Set,
                            const policy::PolicyFactory *WorkloadPolicy) {
  CellSpec Cell;
  Cell.Target = Target;
  Cell.Factory = &Factory;
  Cell.Scen = &Scen;
  Cell.Set = Set;
  Cell.WorkloadPolicy = WorkloadPolicy;
  return *measureCells({Cell}).front();
}

std::shared_ptr<const Measurement>
Driver::defaultMeasurement(const std::string &Target, const Scenario &Scen,
                           const workload::WorkloadSet *Set) {
  CellSpec Cell;
  Cell.Target = Target;
  Cell.Scen = &Scen;
  Cell.Set = Set;
  return measureCells({Cell}).front();
}

double Driver::speedup(const std::string &Target,
                       const policy::PolicyFactory &Factory,
                       const Scenario &Scen) {
  const std::vector<workload::WorkloadSet> &Sets = Scen.workloadSets();

  // One plan per speedup: baseline and policy cells for every set execute
  // together across the pool.
  std::vector<CellSpec> Cells;
  auto AddPair = [&](const workload::WorkloadSet *Set) {
    CellSpec Base;
    Base.Target = Target;
    Base.Scen = &Scen;
    Base.Set = Set;
    Cells.push_back(Base);
    CellSpec Policy = Base;
    Policy.Factory = &Factory;
    Cells.push_back(Policy);
  };
  if (Sets.empty())
    AddPair(nullptr);
  else
    for (const workload::WorkloadSet &Set : Sets)
      AddPair(&Set);

  auto Results = measureCells(Cells);
  std::vector<double> PerSet;
  for (size_t I = 0; I + 1 < Results.size(); I += 2)
    PerSet.push_back(Results[I]->MeanTargetTime /
                     Results[I + 1]->MeanTargetTime);
  return harmonicMean(PerSet);
}

double Driver::workloadImpact(const std::string &Target,
                              const policy::PolicyFactory &Factory,
                              const Scenario &Scen) {
  const std::vector<workload::WorkloadSet> &Sets = Scen.workloadSets();
  assert(!Sets.empty() && "workload impact needs an external workload");

  std::vector<CellSpec> Cells;
  for (const workload::WorkloadSet &Set : Sets) {
    CellSpec Base;
    Base.Target = Target;
    Base.Scen = &Scen;
    Base.Set = &Set;
    Cells.push_back(Base);
    CellSpec Policy = Base;
    Policy.Factory = &Factory;
    Cells.push_back(Policy);
  }

  auto Results = measureCells(Cells);
  std::vector<double> PerSet;
  for (size_t I = 0; I + 1 < Results.size(); I += 2)
    PerSet.push_back(Results[I + 1]->MeanWorkloadThroughput /
                     Results[I]->MeanWorkloadThroughput);
  return harmonicMean(PerSet);
}
