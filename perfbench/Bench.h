//===-- perfbench/Bench.h - Shared benchmark plumbing -----------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every perfbench workload shares: the run options, the outcome a
/// workload hands back (counts, named metrics, output digest, errors), a
/// steady-clock stopwatch and the order statistics the metrics use. The
/// workloads only call Medley's public entry points; spans are recorded
/// here, around those calls, never inside the program.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_PERFBENCH_BENCH_H
#define MEDLEY_PERFBENCH_BENCH_H

#include "exp/PolicySet.h"
#include "exp/Scenario.h"
#include "support/Fnv.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <sched.h>

namespace medley::perfbench {

/// Command-line options shared by the workloads.
struct RunOptions {
  uint64_t Seed = 0;
  double Seconds = 10.0; ///< Measuring window of the run.
  bool Trace = false;    ///< Also run the traced pass (per-layer metrics).
  bool Tiny = false;     ///< Self-test sizes: seconds of work, not minutes.
};

/// One named measurement with its unit.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What a workload reports back to main().
struct Outcome {
  uint64_t Attempted = 0; ///< Operations attempted (runs, ticks, decisions).
  uint64_t Failed = 0;    ///< Operations that failed or mismatched.
  std::vector<std::string> Errors; ///< One line per detected mismatch.
  /// Hash of the deterministic outputs of one repetition; identical for
  /// every repetition, for the traced pass, and across processes that use
  /// the same seed and build.
  uint64_t Digest = 0;
  std::vector<Metric> Metrics;
  /// Named metrics this workload cannot measure from outside the program,
  /// with the reason.
  std::vector<std::pair<std::string, std::string>> Unmeasured;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Records a mismatch that makes \p Ops operations count as failed.
  void fail(uint64_t Ops, std::string What) {
    Failed += Ops;
    Errors.push_back(std::move(What));
  }
};

/// Steady-clock stopwatch.
class Stopwatch {
public:
  Stopwatch() : Begin(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Begin)
        .count();
  }
  void restart() { Begin = std::chrono::steady_clock::now(); }

private:
  std::chrono::steady_clock::time_point Begin;
};

/// Nearest-rank quantile \p Q in [0, 1] of \p Samples (sorted in place):
/// always an observed sample, never a bucket edge or an interpolation.
double quantile(std::vector<double> &Samples, double Q);

/// The best of repeated host timings of one thing: their minimum. Shared
/// hosts switch between speed states for seconds to tens of seconds at a
/// time, the slow one 40% slower and more for the memory-bound fleet; the
/// minimum stays in the fast state as long as one sample does, where a
/// quantile needs a share of the run to and a mean or a median follows
/// the mix of states a run happened to see.
double fastest(const std::vector<double> &Samples);

/// Host times of a fixed sequence of operations (the rows of a grid sweep,
/// the ticks of a fleet run, the runs of a replay pass) over repeated
/// passes, kept per position in the sequence.
class RepeatedTimes {
public:
  void record(size_t Position, double Seconds);

  /// The duration of the fastest pass: the sum over positions of each
  /// position's fastest time.
  double fastestPass() const;

  /// Each position's fastest time, in milliseconds: the latency
  /// distribution of the fastest pass, for percentiles.
  std::vector<double> fastestMs() const;

private:
  std::vector<std::vector<double>> ByPosition;
};

/// Moves the calling thread round the CPUs of its affinity mask, one CPU
/// per pass but at most one move a second, and restores the mask when
/// destroyed. On shared hosts each virtual CPU has its own speed state at
/// any moment: grid runs pinned to each of four vCPUs in turn ran up to 45%
/// slower on one or two of them while the others stayed fast, and which
/// ones were slow changed within a minute. A thread left on one CPU sees
/// that CPU's state for the whole run; rotated, each position's fastest
/// sample comes from a CPU that was fast while it held the thread.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  /// Called before each pass: moves to the next CPU unless the last move
  /// was under a second ago.
  void beforePass();

private:
  Stopwatch Clock;
  double LastMoveS = 0.0;
  size_t Moves = 0;
  std::vector<int> Cpus; ///< The original mask, empty if unreadable.
  cpu_set_t Original;
};

/// Process high-water resident set, in MiB.
double peakRssMb();

/// Folds \p Value's bytes into an output digest (for a double: its exact
/// bit pattern, all 17 digits).
template <typename T> uint64_t digest(uint64_t Hash, const T &Value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return support::fnv1aUpdate(Hash, &Value, sizeof(T));
}

/// Set-up repetitions per run: setup_s is the fastest of (at least) this
/// many samples.
inline constexpr unsigned SetupSamples = 12;

/// Whether the next set-up sample is due \p Elapsed seconds into a
/// measuring window of \p Window seconds, \p Taken samples in. Samples
/// are spread evenly over the window, so they see the host in the same
/// speed states the passes do, not just in the run's first second.
inline bool setupDue(size_t Taken, double Elapsed, double Window) {
  return Taken < SetupSamples &&
         Elapsed >= Window * static_cast<double>(Taken) / SetupSamples;
}

/// Fig 8's cells: the four dynamic scenarios x the 14 evaluation targets
/// (one scenario x three targets under --tiny).
struct GridShape {
  std::vector<exp::Scenario> Scenarios;
  std::vector<std::string> Targets;

  explicit GridShape(bool Tiny);
};

/// The workload sets of \p Scen, or one null set for an isolated scenario.
std::vector<const workload::WorkloadSet *> setsOf(const exp::Scenario &Scen);

/// A freshly trained policy set with the models of the \p Names policies
/// built: the expert-training part of a setup sample.
std::unique_ptr<exp::PolicySet>
trainPolicies(const std::vector<std::string> &Names);

Outcome runGrid(const RunOptions &Options);
Outcome runFleet(const RunOptions &Options);
Outcome runDecide(const RunOptions &Options);

} // namespace medley::perfbench

#endif // MEDLEY_PERFBENCH_BENCH_H
