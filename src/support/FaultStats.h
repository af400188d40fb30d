//===-- support/FaultStats.h - Degradation-ladder counters ------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters for every rung of the runtime's graceful-degradation ladder
/// (DESIGN.md §9): faults injected by sim::FaultInjector, feature values
/// repaired by the sanitizers, expert quarantines and re-admissions in the
/// selector, default-policy fallbacks of the mixture, thread predictions
/// clamped at the binding site, and cell retries/failures in the experiment
/// driver. Each component owns its instance (no shared mutable state);
/// merge() folds per-run instances into an aggregate on the caller's
/// thread.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SUPPORT_FAULTSTATS_H
#define MEDLEY_SUPPORT_FAULTSTATS_H

#include <cstdint>
#include <string>

namespace medley::support {

/// Tallies of injected faults and of the degradation responses they drew.
struct FaultStats {
  // Injected by sim::FaultInjector.
  uint64_t SensorDropouts = 0;    ///< EnvSample fields zeroed by a dropout.
  uint64_t SensorCorruptions = 0; ///< EnvSample fields set to NaN/garbage.
  uint64_t UnplugOverrides = 0;   ///< Ticks with storm-forced core counts.
  uint64_t StaleTicks = 0;        ///< Monitor updates suppressed.

  // Degradation responses.
  uint64_t SanitizedValues = 0;   ///< Non-finite feature values repaired.
  uint64_t Quarantines = 0;       ///< Experts placed in quarantine.
  uint64_t Readmissions = 0;      ///< Experts re-admitted after backoff.
  uint64_t DefaultFallbacks = 0;  ///< Mixture decisions under full quarantine.
  uint64_t ClampedPredictions = 0;///< Thread counts clamped at the binding.

  // Experiment-driver cell isolation.
  uint64_t CellRetries = 0;       ///< Re-executions of a faulted run.
  uint64_t CellFailures = 0;      ///< Runs recorded failed after retries.

  /// Folds \p Other into this instance.
  void merge(const FaultStats &Other);

  /// True when every counter is zero.
  bool clean() const;

  /// One-line "key=value" rendering of the non-zero counters (empty when
  /// clean), for logs and failure messages.
  std::string summary() const;
};

} // namespace medley::support

#endif // MEDLEY_SUPPORT_FAULTSTATS_H
