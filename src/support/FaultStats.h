//===-- support/FaultStats.h - Fault and retry counters ---------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters of the faults sim::FaultInjector injected into a run and of
/// the experiment driver's cell retries and failures (DESIGN.md §9). The
/// other rungs of the degradation ladder record what they do elsewhere:
/// the sanitizers repair inputs in place, and the binding clamp marks
/// each Decision it bit. Each component owns its instance (no shared
/// mutable state); merge() folds per-run instances into an aggregate on
/// the caller's thread.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SUPPORT_FAULTSTATS_H
#define MEDLEY_SUPPORT_FAULTSTATS_H

#include <cstdint>

namespace medley::support {

/// Tallies of injected faults and of the driver's responses to failed runs.
struct FaultStats {
  // Injected by sim::FaultInjector.
  uint64_t SensorDropouts = 0;    ///< EnvSample fields zeroed by a dropout.
  uint64_t SensorCorruptions = 0; ///< EnvSample fields set to NaN/garbage.
  uint64_t UnplugOverrides = 0;   ///< Ticks with storm-forced core counts.
  uint64_t StaleTicks = 0;        ///< Monitor updates suppressed.

  // Experiment-driver cell isolation.
  uint64_t CellRetries = 0;       ///< Re-executions of a faulted run.
  uint64_t CellFailures = 0;      ///< Runs recorded failed after retries.

  /// Folds \p Other into this instance.
  void merge(const FaultStats &Other);

  /// True when every counter is zero.
  bool clean() const;
};

} // namespace medley::support

#endif // MEDLEY_SUPPORT_FAULTSTATS_H
