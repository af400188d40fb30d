//===-- core/ExpertSelector.h - Online expert selection ---------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online gating model M of Section 5.3. It partitions the
/// 10-dimensional feature space into regions, one per expert, and adapts
/// the partition from one signal only: which expert's environment
/// prediction from the previous decision came closest to the realised
/// environment ("we only use data from the last timestep to update the
/// model"). Among the implementations:
///   * HyperplaneSelector — the paper's formulation: ordered boundaries
///     S^1 < ... < S^{K-1} over the feature space, each moved toward
///     misclassified points;
///   * PerceptronSelector — K linear scoring functions updated with the
///     multiclass perceptron rule (same signal, more robust in 10
///     dimensions);
///   * RegimeSelector — the default: the machine regime picks the
///     candidate experts, recent environment accuracy ranks them.
/// A seeded RandomSelector serves as an ablation control.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_CORE_EXPERTSELECTOR_H
#define MEDLEY_CORE_EXPERTSELECTOR_H

#include "ml/FeatureScaler.h"
#include "support/FaultStats.h"
#include "support/Random.h"

#include <memory>
#include <string>

namespace medley::core {

/// Online gating model: maps a feature vector to an expert index and
/// learns from last-timestep supervision.
class ExpertSelector {
public:
  virtual ~ExpertSelector();

  /// Chooses the expert for raw feature vector \p Features.
  virtual size_t select(const Vec &Features) = 0;

  /// Reports the per-expert environment-prediction errors
  /// |‖ê_t^k‖ − ‖e_t‖| of the decision made at \p Features, evaluated one
  /// timestep later. The winning expert is argmin of \p Errors.
  virtual void update(const Vec &Features, const Vec &Errors) = 0;

  /// Index of the expert with the smallest error (ties to the lowest
  /// index).
  static size_t winnerOf(const Vec &Errors);

  /// winnerOf over a raw span (flat per-bin error rows).
  static size_t winnerOfSpan(const double *Errors, size_t N);

  /// Soft gating (Jacobs et al.'s original formulation): fills \p Weights
  /// with a distribution over experts for \p Features and returns true, or
  /// returns false when the selector only supports hard selection.
  virtual bool blendWeights(const Vec &Features, Vec &Weights);

  /// Softmax of negative errors with a temperature relative to their mean;
  /// shared by the accuracy-based selectors.
  static Vec softmaxOfErrors(const Vec &Errors);

  /// softmaxOfErrors into a caller-owned buffer (allocation-free once
  /// \p Weights has capacity); bit-identical to the value-returning form.
  static void softmaxOfErrorsInto(const double *Errors, size_t N,
                                  Vec &Weights);

  /// Rewinds online adaptation.
  virtual void reset() = 0;

  /// Fresh copy in the initial state (each run adapts independently).
  virtual std::unique_ptr<ExpertSelector> clone() const = 0;

  virtual const std::string &name() const = 0;

  /// Quarantine queries (the degradation ladder's second rung). The base
  /// selectors never quarantine; QuarantineSelector overrides these.
  virtual bool isQuarantined(size_t Expert) const;
  virtual bool allQuarantined() const;

  size_t numExperts() const { return NumExperts; }

protected:
  explicit ExpertSelector(size_t NumExperts);
  size_t NumExperts;
};

/// Paper-faithful ordered-boundary selector: experts occupy consecutive
/// intervals of a scalar projection (the norm of the standardised feature
/// vector); boundaries move toward misclassified points.
class HyperplaneSelector : public ExpertSelector {
public:
  /// \p Scaler standardises features before projection; \p LearningRate
  /// controls boundary movement per misprediction.
  HyperplaneSelector(size_t NumExperts, FeatureScaler Scaler,
                     double LearningRate = 0.25);

  size_t select(const Vec &Features) override;
  void update(const Vec &Features, const Vec &Errors) override;
  void reset() override;
  std::unique_ptr<ExpertSelector> clone() const override;
  const std::string &name() const override;

  /// Current boundary values (size NumExperts - 1), for inspection.
  const Vec &boundaries() const { return Boundaries; }

private:
  double project(const Vec &Features);
  void initBoundaries();

  FeatureScaler Scaler;
  double LearningRate;
  Vec Boundaries;
  Vec ScratchStd; ///< Reused standardised copy (hot path, never shared).
};

/// Multiclass-perceptron gating network over standardised features.
class PerceptronSelector : public ExpertSelector {
public:
  PerceptronSelector(size_t NumExperts, FeatureScaler Scaler,
                     double LearningRate = 0.5);

  size_t select(const Vec &Features) override;
  void update(const Vec &Features, const Vec &Errors) override;
  void reset() override;
  std::unique_ptr<ExpertSelector> clone() const override;
  const std::string &name() const override;

private:
  /// Writes the standardised, bias-augmented feature vector into \p X.
  void augmentedInto(const Vec &Features, Vec &X) const;

  FeatureScaler Scaler;
  double LearningRate;
  /// All K scoring vectors in one contiguous row-major buffer
  /// (NumExperts x (dim + 1)), so scoring every expert is a single gemv
  /// over the standardised features instead of K pointer-chased dots.
  Vec FlatWeights;
  std::vector<double> RecentWins; ///< EMA of supervision wins (tie-break).
  Vec ScratchX;      ///< Reused augmented feature buffer.
  Vec ScratchScores; ///< Reused per-expert score buffer.
  bool Trained = false;
};

/// Tracks an exponential moving average of each expert's recent
/// environment error and selects the lowest. Context-free but very quick
/// to re-rank the experts after a regime change.
class AccuracySelector : public ExpertSelector {
public:
  /// \p Alpha is the EMA step per update.
  AccuracySelector(size_t NumExperts, double Alpha = 0.25);

  size_t select(const Vec &Features) override;
  void update(const Vec &Features, const Vec &Errors) override;
  bool blendWeights(const Vec &Features, Vec &Weights) override;
  void reset() override;
  std::unique_ptr<ExpertSelector> clone() const override;
  const std::string &name() const override;

private:
  double Alpha;
  Vec ErrorEma;
  bool Trained = false;
};

/// The paper's piecewise partition made contextual: feature space is
/// bucketed by the norm of the standardised feature vector, and each
/// bucket keeps its own recent-accuracy ranking of the experts. Buckets
/// start evenly (no preference) and adapt from the last timestep only.
class BinnedAccuracySelector : public ExpertSelector {
public:
  BinnedAccuracySelector(size_t NumExperts, FeatureScaler Scaler,
                         size_t NumBins = 8, double Alpha = 0.3);

  size_t select(const Vec &Features) override;
  void update(const Vec &Features, const Vec &Errors) override;
  bool blendWeights(const Vec &Features, Vec &Weights) override;
  void reset() override;
  std::unique_ptr<ExpertSelector> clone() const override;
  const std::string &name() const override;

private:
  size_t binOf(const Vec &Features);

  FeatureScaler Scaler;
  size_t NumBins;
  double Alpha;
  /// Per-bin EMA errors as one flat pre-sized buffer (NumBins x
  /// NumExperts, row-major); a bin untouched so far falls back to the
  /// global EMA.
  Vec FlatBinErrors;
  std::vector<bool> BinTouched;
  Vec GlobalErrors;
  Vec ScratchStd; ///< Reused standardised copy for binOf.
  bool Trained = false;
};

/// Two-level gate: experts are tagged with the machine regime their
/// training data came from (uncontended / contended / any); the observable
/// instantaneous state (runq-sz vs processors, features f6 and f5) picks
/// the regime, and recent environment accuracy ranks the experts inside
/// it. This is the converged form of the learned partition: the regime
/// boundary is exactly where the scheduler's oversubscription kinks are.
class RegimeSelector : public ExpertSelector {
public:
  /// Regime tag per expert: 0 = uncontended, 1 = contended, -1 = any.
  RegimeSelector(std::vector<int> RegimeTags, double Alpha = 0.25);

  size_t select(const Vec &Features) override;
  void update(const Vec &Features, const Vec &Errors) override;
  bool blendWeights(const Vec &Features, Vec &Weights) override;
  void reset() override;
  std::unique_ptr<ExpertSelector> clone() const override;
  const std::string &name() const override;

private:
  /// True when the current state is oversubscribed.
  static bool contended(const Vec &Features);

  std::vector<int> RegimeTags;
  double Alpha;
  /// Experts whose tag fits each regime (index contended()), all of them
  /// if no tag does; fixed at construction.
  std::vector<size_t> Candidates[2];
  Vec ErrorEma;
  Vec ScratchInner; ///< Reused blend softmax buffer.
  bool Trained = false;
};

/// Uniformly random expert choice (ablation control).
class RandomSelector : public ExpertSelector {
public:
  RandomSelector(size_t NumExperts, uint64_t Seed);

  size_t select(const Vec &Features) override;
  void update(const Vec &Features, const Vec &Errors) override;
  void reset() override;
  std::unique_ptr<ExpertSelector> clone() const override;
  const std::string &name() const override;

private:
  uint64_t Seed;
  Rng Generator;
};

/// Tuning of the quarantine ladder rung.
struct QuarantineOptions {
  /// An update counts as a strike against expert k when its environment
  /// error exceeds DivergenceFactor x the median error of that update
  /// (and the absolute floor); non-finite errors always strike.
  double DivergenceFactor = 6.0;
  double AbsoluteErrorFloor = 0.5;

  /// Consecutive strikes before the expert is quarantined.
  unsigned Strikes = 3;

  /// Updates an expert sits out after its first quarantine; doubles on
  /// every re-quarantine (timed re-admission with exponential backoff).
  unsigned BackoffUpdates = 16;
  unsigned MaxBackoffUpdates = 512;
};

/// Decorator that quarantines experts whose environment-predictor error
/// diverges from the pack. Healthy experts are selected by the wrapped
/// (inner) selector; a quarantined choice is redirected to the healthy
/// expert with the best recent error. Quarantined experts are re-admitted
/// after a timed backoff that doubles on every relapse. When every expert
/// is quarantined the mixture falls back to DefaultPolicy behaviour
/// (MixtureOfExperts checks allQuarantined()).
class QuarantineSelector : public ExpertSelector {
public:
  /// \p Stats (optional, non-owning) receives quarantine counters; it must
  /// outlive the selector. Clones do not inherit the stats sink.
  QuarantineSelector(std::unique_ptr<ExpertSelector> Inner,
                     QuarantineOptions Options = {},
                     support::FaultStats *Stats = nullptr);

  size_t select(const Vec &Features) override;
  void update(const Vec &Features, const Vec &Errors) override;
  bool blendWeights(const Vec &Features, Vec &Weights) override;
  void reset() override;
  std::unique_ptr<ExpertSelector> clone() const override;
  const std::string &name() const override;

  bool isQuarantined(size_t Expert) const override;
  bool allQuarantined() const override;

  /// Number of experts currently selectable.
  size_t healthyCount() const;

  const ExpertSelector &inner() const { return *Inner; }

private:
  /// Healthy expert with the lowest recent error (SIZE_MAX when none).
  size_t bestHealthy() const;

  std::unique_ptr<ExpertSelector> Inner;
  QuarantineOptions Options;
  support::FaultStats *Stats;
  std::string Name;

  /// Per-expert ladder state.
  struct ExpertState {
    unsigned ConsecutiveStrikes = 0;
    unsigned QuarantineRemaining = 0; ///< Updates left; 0 = healthy.
    unsigned NextBackoff = 0;         ///< Doubles on every relapse.
    double ErrorEma = 0.0;
    bool Seen = false;
  };
  std::vector<ExpertState> States;
  Vec ScratchFinite;    ///< Reused finite-error buffer (update()).
  Vec ScratchSanitized; ///< Reused sanitised-error buffer (update()).
};

/// Always selects a fixed expert (used to evaluate single experts E^k).
class FixedSelector : public ExpertSelector {
public:
  FixedSelector(size_t NumExperts, size_t Index);

  size_t select(const Vec &Features) override;
  void update(const Vec &Features, const Vec &Errors) override;
  void reset() override {}
  std::unique_ptr<ExpertSelector> clone() const override;
  const std::string &name() const override;

private:
  size_t Index;
};

} // namespace medley::core

#endif // MEDLEY_CORE_EXPERTSELECTOR_H
