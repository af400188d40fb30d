//===-- workload/Program.cpp - Executable program model ---------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "workload/Program.h"

#include <algorithm>
#include <cassert>

using namespace medley;
using namespace medley::workload;

double ProgramSpec::totalWork() const {
  double Sum = 0.0;
  for (const RegionSpec &Region : Regions)
    Sum += Region.Work;
  return Sum * static_cast<double>(Iterations);
}

double ProgramSpec::isolatedSpeedup(unsigned Threads,
                                    const sim::MachineConfig &Machine) const {
  assert(!Regions.empty() && "program without regions");
  // Work-weighted harmonic combination: total time is the sum of per-region
  // times, each scaled by its own speedup.
  double TotalWork = 0.0, TotalTime = 0.0;
  for (const RegionSpec &Region : Regions) {
    double S = isolatedRegionSpeedup(Region, Threads, Machine);
    TotalWork += Region.Work;
    TotalTime += Region.Work / S;
  }
  return TotalWork / TotalTime;
}

Program::Program(ProgramSpec Spec, ThreadChooser Chooser, unsigned MaxThreads,
                 bool Looping)
    : Program(std::make_shared<const ProgramSpec>(std::move(Spec)),
              std::move(Chooser), MaxThreads, Looping) {}

Program::Program(std::shared_ptr<const ProgramSpec> Spec, ThreadChooser Chooser,
                 unsigned MaxThreads, bool Looping)
    : Spec(std::move(Spec)), Chooser(std::move(Chooser)),
      MaxThreads(MaxThreads), Looping(Looping) {
  assert(this->Spec && "program needs a spec");
  assert(!this->Spec->Regions.empty() && "program needs at least one region");
  assert(this->Spec->Iterations >= 1 &&
         "program needs at least one iteration");
  assert(MaxThreads >= 1 && "invalid thread clamp");
  assert(this->Chooser && "a thread chooser is required");
}

void Program::setRegionObserver(RegionObserver NewObserver) {
  Observer = std::move(NewObserver);
}

double Program::memoryDemand() const {
  if (Done || Spec->Regions.empty())
    return 0.0;
  const RegionSpec &Region = Spec->Regions[RegionIndex];
  return static_cast<double>(CurrentThreads) * Region.MemIntensity;
}

bool Program::finished() const { return Done; }

void Program::startNextRegion(const sim::CpuAllocation &Allocation,
                              double Now) {
  RegionContext Context;
  Context.Program = Spec.get();
  Context.Region = &Spec->Regions[RegionIndex];
  Context.RegionIndex = RegionIndex;
  Context.Iteration = Iteration;
  Context.Env = Allocation.Env;
  Context.Now = Now;
  Context.MaxThreads = MaxThreads;

  unsigned Chosen = Chooser(Context);
  CurrentThreads = std::clamp(Chosen, 1u, MaxThreads);
  RegionWork = Context.Region->Work;
  RegionProgress = 0.0;
  RegionStart = Now;
  RegionActive = true;
}

double Program::cachedRegionRate(const sim::CpuAllocation &Allocation) {
  if (Allocation.Version == 0 || RateVersion != Allocation.Version ||
      RateRegionIndex != RegionIndex || RateThreads != CurrentThreads) {
    CachedRate =
        regionRate(Spec->Regions[RegionIndex], CurrentThreads, Allocation);
    RateVersion = Allocation.Version;
    RateRegionIndex = RegionIndex;
    RateThreads = CurrentThreads;
  }
  return CachedRate;
}

bool Program::stepSteady(double Dt, const sim::CpuAllocation &Allocation) {
  // The fast path replicates exactly one arithmetic scenario of step():
  // an already-active region that does NOT complete within this tick. It
  // performs the same operations in the same order on the same values, so
  // its results are bit-identical; every other scenario (region start —
  // which reads Allocation.Env, completion, Done, degenerate Dt) declines
  // and lets the scheduler run the full step().
  if (Done || !RegionActive || !(Dt > 1e-12))
    return false;
  double Rate = cachedRegionRate(Allocation);
  assert(Rate > 0.0 && "region cannot make progress");
  double WorkLeft = RegionWork - RegionProgress;
  double TimeNeeded = WorkLeft / Rate;
  if (!(TimeNeeded > Dt))
    return false; // Region completes this tick: slow path.
  RegionProgress += Rate * Dt;
  TotalWorkDone += Rate * Dt;
  return true;
}

void Program::step(double Dt, const sim::CpuAllocation &Allocation) {
  if (Done)
    return;
  double Remaining = Dt;
  while (Remaining > 1e-12 && !Done) {
    double LocalNow = Allocation.Now + (Dt - Remaining);
    if (!RegionActive)
      startNextRegion(Allocation, LocalNow);

    const RegionSpec &Region = Spec->Regions[RegionIndex];
    double Rate = cachedRegionRate(Allocation);
    assert(Rate > 0.0 && "region cannot make progress");

    double WorkLeft = RegionWork - RegionProgress;
    double TimeNeeded = WorkLeft / Rate;
    if (TimeNeeded > Remaining) {
      RegionProgress += Rate * Remaining;
      TotalWorkDone += Rate * Remaining;
      Remaining = 0.0;
      break;
    }

    // Region completes within this tick.
    Remaining -= TimeNeeded;
    TotalWorkDone += WorkLeft;
    double EndTime = Allocation.Now + (Dt - Remaining);
    ++RegionsExecuted;
    RegionActive = false;
    if (Observer) {
      RegionOutcome Outcome;
      Outcome.Region = &Region;
      Outcome.Threads = CurrentThreads;
      Outcome.Work = Region.Work;
      Outcome.Duration = EndTime - RegionStart;
      Outcome.EndTime = EndTime;
      Observer(Outcome);
    }

    // Advance to the next region / iteration / run.
    ++RegionIndex;
    if (RegionIndex == Spec->Regions.size()) {
      RegionIndex = 0;
      ++Iteration;
      if (Iteration == Spec->Iterations) {
        Iteration = 0;
        ++CompletedRuns;
        if (CompletedRuns == 1)
          CompletionTime = EndTime;
        if (!Looping) {
          Done = true;
          CurrentThreads = 0;
        }
      }
    }
  }
}
