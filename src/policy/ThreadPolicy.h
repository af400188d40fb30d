//===-- policy/ThreadPolicy.h - Mapping policy interface --------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface every thread-selection policy implements: select() is
/// invoked at every parallel region start with the 10-feature vector, and
/// observe() reports each completed region so adaptive policies can react.
/// One policy instance drives one program for one run; reset() rewinds any
/// adaptation state between runs.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_POLICY_THREADPOLICY_H
#define MEDLEY_POLICY_THREADPOLICY_H

#include "policy/Features.h"

#include <memory>

namespace medley::policy {

/// Abstract thread-selection policy.
class ThreadPolicy {
public:
  virtual ~ThreadPolicy();

  /// Chooses a thread count for the upcoming region execution. The result
  /// is clamped by the runtime to [1, Features.MaxThreads].
  virtual unsigned select(const FeatureVector &Features) = 0;

  /// Decision-epoch boundary: invoked by the runtime binding immediately
  /// before each decision's features are assembled. Policies backed by a
  /// versioned store (the expert registry) use this to pick up a freshly
  /// published snapshot — mid-decision state never changes under a policy.
  /// Default: no-op. Must be cheap; it runs on every decision.
  virtual void beginDecisionEpoch();

  /// Reports a completed region execution. Default: ignore.
  virtual void observe(const workload::RegionOutcome &Outcome);

  /// True when select() is a pure function of the feature vector: no
  /// adaptation state read or written, no randomness, no external snapshot
  /// swaps at epoch boundaries, so a caller may reuse an earlier decision
  /// for bit-identical features. Default: false (the conservative answer
  /// is always correct).
  virtual bool decisionsArePure() const { return false; }

  /// Rewinds adaptation state for a fresh run.
  virtual void reset() = 0;

  /// Short policy name ("default", "online", "offline", "analytic", ...).
  virtual const std::string &name() const = 0;
};

/// Factory type used by the experiment driver: each run gets fresh policy
/// instances.
using PolicyFactory = std::function<std::unique_ptr<ThreadPolicy>()>;

} // namespace medley::policy

#endif // MEDLEY_POLICY_THREADPOLICY_H
