//===-- core/MoeStats.h - Mixture bookkeeping -------------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Accumulated statistics of mixture-of-experts runs, backing the analysis
/// figures: per-expert environment-prediction accuracy (Fig 15a), expert
/// selection frequency (Fig 15b) and thread-number distributions (Fig 17).
/// A MoeStats instance can be shared across all policy instances of a
/// scenario to aggregate over runs, also while exp::Driver runs them on
/// its pool: a mixture records under the instance's mutex, and every field
/// is a count, so the totals do not depend on the order of the runs.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_CORE_MOESTATS_H
#define MEDLEY_CORE_MOESTATS_H

#include "support/Histogram.h"

#include <cstddef>
#include <mutex>
#include <vector>

namespace medley::core {

/// Aggregated mixture behaviour over any number of runs.
struct MoeStats {
  explicit MoeStats(size_t NumExperts);

  size_t numExperts() const { return SelectionCounts.size(); }

  /// How often each expert was chosen by the selector.
  std::vector<size_t> SelectionCounts;

  /// Per-expert environment predictions judged one step later:
  /// within-tolerance counts over totals.
  std::vector<size_t> EnvAccurate;
  std::vector<size_t> EnvTotal;

  /// Same bookkeeping for the expert the mixture actually chose.
  size_t MixtureEnvAccurate = 0;
  size_t MixtureEnvTotal = 0;

  /// Thread numbers each expert *would* have chosen at every decision, and
  /// what the mixture chose (Fig 17).
  std::vector<Histogram> ExpertThreads;
  Histogram MixtureThreads;

  /// Held by a mixture while it records a decision. Readers take the
  /// figures after the runs have joined.
  std::mutex Mutex;

  /// Selection frequency of expert \p K in [0, 1].
  double selectionFrequency(size_t K) const;

  /// Environment-prediction accuracy of expert \p K in [0, 1].
  double envAccuracy(size_t K) const;

  /// Accuracy of the mixture's chosen expert in [0, 1].
  double mixtureEnvAccuracy() const;

  void clear();
};

} // namespace medley::core

#endif // MEDLEY_CORE_MOESTATS_H
