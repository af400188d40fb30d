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
  State.Threads = 1;
  State.WorkingSetMb = this->Spec->WorkingSetMb;
  publishDemand();
}

void Program::setRegionObserver(RegionObserver NewObserver) {
  Observer = std::move(NewObserver);
}

void Program::publishDemand() {
  State.MemoryDemand =
      State.Finished ? 0.0
                     : static_cast<double>(State.Threads) *
                           Spec->Regions[RegionIndex].MemIntensity;
}

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
  State.Threads = std::clamp(Chosen, 1u, MaxThreads);
  publishDemand();
  State.RegionWork = Context.Region->Work;
  State.RegionProgress = 0.0;
  // The cached rate was for the previous region or thread count.
  State.RateVersion = 0;
  RegionStart = Now;
  State.RegionActive = true;
}

double Program::activeRate(const sim::CpuAllocation &Allocation) const {
  return regionRate(Spec->Regions[RegionIndex], State.Threads, Allocation);
}

void Program::step(double Dt, const sim::CpuAllocation &Allocation) {
  if (State.Finished)
    return;
  double Remaining = Dt;
  while (Remaining > 1e-12 && !State.Finished) {
    double LocalNow = Allocation.Now + (Dt - Remaining);
    if (!State.RegionActive)
      startNextRegion(Allocation, LocalNow);

    const RegionSpec &Region = Spec->Regions[RegionIndex];
    double Rate = refreshRate(Allocation);
    assert(Rate > 0.0 && "region cannot make progress");

    double WorkLeft = State.RegionWork - State.RegionProgress;
    double TimeNeeded = WorkLeft / Rate;
    if (TimeNeeded > Remaining) {
      State.RegionProgress += Rate * Remaining;
      State.WorkCompleted += Rate * Remaining;
      Remaining = 0.0;
      break;
    }

    // Region completes within this tick.
    Remaining -= TimeNeeded;
    State.WorkCompleted += WorkLeft;
    double EndTime = Allocation.Now + (Dt - Remaining);
    ++RegionsExecuted;
    State.RegionActive = false;
    if (Observer) {
      RegionOutcome Outcome;
      Outcome.Region = &Region;
      Outcome.Threads = State.Threads;
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
          State.Finished = true;
          State.Threads = 0;
        }
      }
    }
    publishDemand();
  }
}
