//===-- sim/SystemMonitor.h - /proc-style system monitor --------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maintains the machine-wide counters that back the runtime features:
/// run-queue length, 1-/5-minute load averages (EMA like the kernel's),
/// cached-memory fraction, and page free-list turnover. The simulation
/// updates the monitor once per tick; tasks read per-observer EnvSamples.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SIM_SYSTEMMONITOR_H
#define MEDLEY_SIM_SYSTEMMONITOR_H

#include "sim/EnvSample.h"
#include "sim/Machine.h"
#include "support/Statistics.h"

namespace medley::sim {

/// Rolls machine activity into the sar-style counters of EnvSample.
class SystemMonitor {
public:
  explicit SystemMonitor(const MachineConfig &Config);

  /// Folds in one tick of activity.
  ///
  /// \param RunnableThreads machine-wide runnable thread count.
  /// \param AvailableCores cores usable this tick.
  /// \param UsedMemoryMb sum of resident working sets.
  /// \param Dt tick length in seconds.
  void update(unsigned RunnableThreads, unsigned AvailableCores,
              double UsedMemoryMb, double Dt);

  /// Environment as observed by a task that itself keeps
  /// \p ObserverThreads threads runnable (excluded from WorkloadThreads).
  EnvSample sample(unsigned ObserverThreads = 0) const;

  /// Machine-wide runnable thread count as of the last update. Only the
  /// WorkloadThreads field of sample() depends on the observer, so a
  /// caller sampling for many observers can take sample(0) once and
  /// rewrite that one field from this count (the simulator's tick loop
  /// does exactly that).
  unsigned runnable() const { return RunnableThreads; }

  /// The paper's scalar environment value for \p ObserverThreads' view.
  double envNorm(unsigned ObserverThreads = 0) const;

  /// Clears all counters back to their initial state.
  void reset();

private:
  MachineConfig Config;
  Ema Load1;
  Ema Load5;
  unsigned RunnableThreads = 0;
  unsigned AvailableCores = 0;
  double UsedMemoryMb = 0.0;
  double PageRate = 0.0;
  bool HasMemorySample = false;
};

} // namespace medley::sim

#endif // MEDLEY_SIM_SYSTEMMONITOR_H
