//===-- runtime/PolicyBinding.h - Bind policies to programs -----*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue turning a ThreadPolicy into the ThreadChooser/RegionObserver hooks
/// a Program expects: features are assembled from the region context at
/// every parallel-loop start, and region completions are fed back.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_RUNTIME_POLICYBINDING_H
#define MEDLEY_RUNTIME_POLICYBINDING_H

#include "policy/ThreadPolicy.h"
#include "workload/Program.h"

namespace medley::runtime {

/// Record of one policy decision (for the Figure-2 timelines and the
/// Figure-17 thread distributions).
struct Decision {
  double Time = 0.0;
  unsigned Threads = 0;
  double EnvNorm = 0.0;
  /// Processors observed available at the decision (the clamp ceiling).
  unsigned AvailableProcessors = 0;
  /// True when the policy's raw prediction had to be clamped.
  bool Clamped = false;
};

/// The binding-site clamp: the largest thread count any policy may emit
/// given \p Features — min(MaxThreads, observed available processors),
/// never below 1. No policy can oversubscribe an unplugged machine.
unsigned threadCeiling(const policy::FeatureVector &Features);

/// Builds a chooser that assembles the 10-feature vector and delegates to
/// \p Policy; the result is clamped to [1, threadCeiling()]. If \p Trace
/// is non-null, each decision is appended to it. \p Policy (and \p Trace)
/// must outlive the returned chooser.
workload::ThreadChooser bindPolicy(policy::ThreadPolicy &Policy,
                                   unsigned TotalCores,
                                   std::vector<Decision> *Trace = nullptr);

/// Builds a region observer that forwards completions to \p Policy.
workload::RegionObserver bindObserver(policy::ThreadPolicy &Policy);

} // namespace medley::runtime

#endif // MEDLEY_RUNTIME_POLICYBINDING_H
