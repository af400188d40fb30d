//===-- policy/AnalyticPolicy.h - Interval-sampling analytic model -*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "analytic" baseline (Section 6.3, after Sridharan et al. PLDI'14):
/// "an analytical model determines the degree of parallelism at runtime
/// based on observed speedups at fixed time-intervals and estimated using
/// regression techniques". The policy alternates between an exploration
/// phase — running parallel sections with two randomly chosen thread
/// numbers to observe their rates — and a hold phase running the regressed
/// optimum for a fixed interval. The exploration and the hold lag are the
/// overheads the mixture approach avoids (Figure 2's delayed reaction
/// at t0).
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_POLICY_ANALYTICPOLICY_H
#define MEDLEY_POLICY_ANALYTICPOLICY_H

#include "policy/ThreadPolicy.h"
#include "support/Random.h"

#include <utility>
#include <vector>

namespace medley::policy {

/// Two-point exploration + Amdahl-curve regression + fixed-interval hold.
class AnalyticPolicy : public ThreadPolicy {
public:
  struct Options {
    /// Region executions measured per sampled thread count.
    unsigned SampleWindow = 1;
    /// Seconds to keep the regressed optimum before re-exploring.
    double HoldInterval = 8.0;
    /// Efficiency knee: choose the smallest n reaching this fraction of
    /// the model's asymptotic rate.
    double KneeFraction = 0.9;
    /// Passive monitoring: if a region's observed rate drifts from its
    /// rate at the start of the hold by more than this relative amount,
    /// the environment has shifted and exploration restarts early.
    double DriftThreshold = 0.4;
    uint64_t Seed = 0x5eedu;
  };

  AnalyticPolicy();
  explicit AnalyticPolicy(Options Opts);

  unsigned select(const FeatureVector &Features) override;
  void observe(const workload::RegionOutcome &Outcome) override;
  void reset() override;
  const std::string &name() const override;

  /// True while the policy is running exploration samples.
  bool exploring() const { return Phase != PhaseKind::Hold; }

private:
  enum class PhaseKind { SampleFirst, SampleSecond, Hold };

  void startExploration(unsigned MaxThreads);
  void fitAndHold();

  Options Opts;
  Rng Generator;

  PhaseKind Phase = PhaseKind::SampleFirst;
  unsigned SampleThreads[2] = {1, 1};
  double SampleRate[2] = {0.0, 0.0};
  unsigned SampleSeen = 0;
  double SampleRateSum = 0.0;

  unsigned HeldThreads = 1;
  double HoldStart = 0.0;
  double LastNow = 0.0;
  unsigned MaxThreadsSeen = 1;
  bool Primed = false;

  /// Reference rate per region, the first one each region reports in a
  /// hold; used for drift detection. A program has a handful of regions,
  /// so a flat list searched linearly serves, and clearing it keeps its
  /// capacity: no hold after the first allocates.
  std::vector<std::pair<const workload::RegionSpec *, double>>
      HoldReferenceRates;
  bool DriftDetected = false;
};

} // namespace medley::policy

#endif // MEDLEY_POLICY_ANALYTICPOLICY_H
