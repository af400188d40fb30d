//===-- runtime/PolicyBinding.cpp - Bind policies to programs -----------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "runtime/PolicyBinding.h"

#include <algorithm>
#include <memory>

using namespace medley;
using namespace medley::runtime;

unsigned medley::runtime::threadCeiling(const policy::FeatureVector &Features) {
  // f5 is the observed available-processor count; buildFeatures guarantees
  // it is finite and non-negative. During a zero-available window the
  // ceiling is 1: a program cannot run with no threads, but it must not
  // pile more onto a machine that has none.
  double Processors = Features.Values[4];
  return policy::roundThreads(
      std::min(Processors, static_cast<double>(Features.MaxThreads)),
      std::max(1u, Features.MaxThreads));
}

workload::ThreadChooser
medley::runtime::bindPolicy(policy::ThreadPolicy &Policy, unsigned TotalCores,
                            std::vector<Decision> *Trace) {
  // One feature buffer per binding: the chooser is called once per region
  // decision on a single worker, so it is reused allocation-free across
  // decisions without any synchronisation.
  auto Scratch = std::make_shared<policy::DecisionScratch>();
  return [&Policy, TotalCores, Trace,
          Scratch](const workload::RegionContext &Context) {
    policy::FeatureVector &Features = Scratch->Features;
    // Epoch boundary first: a registry-backed policy swaps to the latest
    // published snapshot here, so the decision below runs entirely
    // against one consistent expert set.
    Policy.beginDecisionEpoch();
    policy::buildFeatures(Context, TotalCores, Features);
    unsigned Raw = Policy.select(Features);
    unsigned Ceiling = threadCeiling(Features);
    unsigned Threads = std::clamp(Raw, 1u, Ceiling);

    if (Trace) {
      Decision D;
      D.Time = Context.Now;
      D.Threads = Threads;
      D.EnvNorm = Features.EnvNorm;
      D.AvailableProcessors = Ceiling;
      D.Clamped = Threads != Raw;
      Trace->push_back(D);
    }
    return Threads;
  };
}

workload::RegionObserver
medley::runtime::bindObserver(policy::ThreadPolicy &Policy) {
  return [&Policy](const workload::RegionOutcome &Outcome) {
    Policy.observe(Outcome);
  };
}
