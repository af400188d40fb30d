//===-- sim/FaultInjector.h - Deterministic fault injection -----*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seed-driven fault injection for the simulated environment (DESIGN.md
/// §9). A FaultPlan schedules windows of four fault classes against a run:
///
///   * sensor dropout  — sampled EnvSample fields read as zero, as if the
///     /proc counter briefly vanished;
///   * sensor corruption — sampled fields replaced by NaN, infinities or
///     wildly out-of-range garbage;
///   * unplug storm    — the available core count is forced below the
///     scenario's availability pattern, possibly to zero (hot-unplug
///     beyond anything the patterns model);
///   * stale monitor   — SystemMonitor updates are suppressed, so every
///     observer keeps reading an aging snapshot.
///
/// A FaultInjector executes a plan for one run. All randomness flows from
/// the constructor seed through a private Rng queried once per tick in
/// monotonic time order, so a run under faults is exactly as deterministic
/// as a run without: same (plan, seed) => same faults, tick for tick.
/// On-disk expert-model corruption, the fifth fault class, is a static
/// helper (corruptFile) since it acts before a run starts.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SIM_FAULTINJECTOR_H
#define MEDLEY_SIM_FAULTINJECTOR_H

#include "sim/EnvSample.h"
#include "support/FaultStats.h"
#include "support/Random.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace medley::sim {

/// A closed-open time window [Begin, End) during which a fault class is
/// active.
struct FaultWindow {
  double Begin = 0.0;
  double End = 0.0;

  bool contains(double Time) const { return Time >= Begin && Time < End; }
};

/// The schedule of faults for a run. An empty plan injects nothing.
struct FaultPlan {
  std::vector<FaultWindow> SensorDropout;   ///< Fields read as zero.
  std::vector<FaultWindow> SensorCorruption;///< Fields read as NaN/garbage.
  std::vector<FaultWindow> UnplugStorm;     ///< Cores forced to StormCores.
  std::vector<FaultWindow> StaleMonitor;    ///< Monitor updates suppressed.

  /// Per-tick probability that an active corruption window actually
  /// corrupts this tick's sample (1.0 = every tick).
  double CorruptionRate = 0.5;

  /// Per-tick probability that an active dropout window zeroes this
  /// tick's sample.
  double DropoutRate = 0.5;

  /// Core count forced during an unplug storm (0 = total outage).
  unsigned StormCores = 0;

  /// True when no window of any class is scheduled.
  bool empty() const;

  /// The canonical full-ladder schedule used by the chaos suite: repeating
  /// dropout, corruption, storm and stale windows staggered across
  /// [0, Horizon) so every fault class strikes several times.
  static FaultPlan chaosSchedule(double Horizon);
};

/// Executes a FaultPlan for one run; owns all fault randomness.
class FaultInjector {
public:
  /// \p Seed drives which fields are corrupted and with what garbage;
  /// runs with equal (plan, seed) inject identical faults.
  FaultInjector(FaultPlan Plan, uint64_t Seed);

  /// The core count the machine actually exposes at \p Time given the
  /// pattern said \p PatternCores. Storm windows force FaultPlan::StormCores
  /// (never above the pattern's value).
  unsigned overrideCores(double Time, unsigned PatternCores);

  /// True when the system monitor must skip its update this tick.
  bool monitorStale(double Time);

  /// Applies any scheduled sensor dropout/corruption to \p Env in place.
  void perturbEnv(double Time, EnvSample &Env);

  /// Counters of every fault injected so far.
  const support::FaultStats &stats() const { return Stats; }

  /// Rewinds to the initial state (same faults on replay).
  void reset();

  /// Deterministically corrupts the file at \p Path in place — truncation
  /// or byte garbage depending on \p Seed — for on-disk expert-model
  /// fault tests. Returns false when the file cannot be read or written.
  [[nodiscard]] static bool corruptFile(const std::string &Path,
                                        uint64_t Seed);

private:
  /// Writes seeded garbage (NaN, infinities, huge magnitudes, negative
  /// counters) over one uniformly chosen field of \p Env.
  void corruptOneField(EnvSample &Env);

  FaultPlan Plan;
  uint64_t Seed;
  Rng Generator;
  support::FaultStats Stats;
};

/// Factory type: each run constructs a fresh injector so plans replay
/// identically (mirrors runtime::AvailabilityFactory).
using FaultInjectorFactory = std::function<std::unique_ptr<FaultInjector>()>;

} // namespace medley::sim

#endif // MEDLEY_SIM_FAULTINJECTOR_H
