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
#include "support/Random.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <memory>
#include <string>

namespace medley::core {

/// What one gate() call decided.
enum class GateResult {
  Blend, ///< The weights hold a distribution over the experts.
  Single ///< One expert is chosen.
};

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

  /// One mixture decision's whole gate. First folds the previous
  /// decision's numExperts() errors \p Errors, judged at
  /// \p PendingFeatures, exactly as update() does (\p Errors is null when
  /// no decision is pending). Then fills the numExperts() \p Weights as
  /// blendWeights() does (only when \p Soft), or sets \p Chosen as
  /// select() does. The default runs those stages in that order; a
  /// selector may fuse them as long as every bit agrees.
  virtual GateResult gate(const Vec &PendingFeatures, const double *Errors,
                          const Vec &Features, bool Soft, double *Weights,
                          size_t &Chosen);

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

  /// The softmax itself, \p N errors to \p N weights (distinct buffers).
  /// Inline so the regime gate's fused pass compiles it in place.
  static void softmaxOfErrorsSpan(const double *Errors, size_t N,
                                  double *Weights) {
    // Mean and minimum in one pass: the sum accumulates in index order,
    // and the running minimum is comparison-only, so the fusion cannot
    // change any result bit. The mean is divided by N, never multiplied
    // by its reciprocal, which would move bits.
    double Mean = Errors[0];
    double MinError = Errors[0];
    for (size_t K = 1; K < N; ++K) {
      Mean += Errors[K];
      if (Errors[K] < MinError)
        MinError = Errors[K];
    }
    Mean /= static_cast<double>(N);
    double Tau = std::max(1e-9, 0.3 * Mean);

    double Sum = 0.0;
    for (size_t K = 0; K < N; ++K) {
      const double Gap = Errors[K] - MinError;
      // An error equal to the minimum gives exp(-0.0 / Tau) == 1.0
      // exactly, so the call is skipped. The test must be exact: a
      // tolerance would change bits, and testing the minimum's index
      // instead would turn a NaN gap (a NaN first error) into 1.0 rather
      // than NaN.
      // medley-lint: allow(float-equality) exact zero gap, see above
      Weights[K] = Gap == 0.0 ? 1.0 : std::exp(-Gap / Tau);
      Sum += Weights[K];
    }
    for (size_t K = 0; K < N; ++K)
      Weights[K] /= Sum;
  }

  /// Rewinds online adaptation.
  virtual void reset() = 0;

  /// Fresh copy in the initial state (each run adapts independently).
  virtual std::unique_ptr<ExpertSelector> clone() const = 0;

  virtual const std::string &name() const = 0;

  size_t numExperts() const { return NumExperts; }

protected:
  explicit ExpertSelector(size_t NumExperts);
  size_t NumExperts;

private:
  /// The default gate()'s errors and weights in the Vec form update()
  /// and blendWeights() take; sized at construction, so it never
  /// allocates.
  Vec GateErrors;
  Vec GateWeights;
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
///
/// The deployed gate. Its state is fixed-size, and gate() is one fused
/// pass defined here, so MixtureOfExperts calls it directly and inlines it
/// (DESIGN.md §11). update(), blendWeights() and select() run the same
/// pieces, so each piece of arithmetic exists once.
class RegimeSelector final : public ExpertSelector {
public:
  /// Most experts one regime gate takes (the scoring bank's lanes).
  static constexpr size_t MaxExperts = 8;

  /// Regime tag per expert: 0 = uncontended, 1 = contended, -1 = any.
  /// Takes 1 to MaxExperts experts.
  RegimeSelector(std::vector<int> RegimeTags, double Alpha = 0.25);

  size_t select(const Vec &Features) override;
  void update(const Vec &Features, const Vec &Errors) override;
  bool blendWeights(const Vec &Features, Vec &Weights) override;
  void reset() override;
  std::unique_ptr<ExpertSelector> clone() const override;
  const std::string &name() const override;

  GateResult gate(const Vec &, const double *Errors, const Vec &Features,
                  bool Soft, double *Weights, size_t &Chosen) override {
    if (Errors)
      fold(Errors);
    // An untrained gate has no accuracy to weigh by: it chooses.
    if (!Soft || !Trained) {
      Chosen = select(Features);
      return GateResult::Single;
    }
    blendInto(Features, Weights);
    return GateResult::Blend;
  }

private:
  /// True when the current state is oversubscribed.
  static bool contended(const Vec &Features) {
    // f6 (runq-sz) vs f5 (processors); see policy::featureNames().
    assert(Features.size() >= 6 && "feature vector too short");
    return Features[5] > Features[4];
  }

  /// The EMA step over every expert's error; the first copies them.
  void fold(const double *Errors) {
    if (!Trained) {
      std::copy(Errors, Errors + NumExperts, ErrorEma.begin());
      Trained = true;
      return;
    }
    for (size_t K = 0; K < NumExperts; ++K)
      ErrorEma[K] += Alpha * (Errors[K] - ErrorEma[K]);
  }

  /// Softmax over the current regime's candidates, scattered into
  /// \p Weights (numExperts() of them, zero outside the regime). Each
  /// weight is written once, with no fill before the scatter: the blend
  /// reads them straight back.
  void blendInto(const Vec &Features, double *Weights) const {
    const Regime &R = Regimes[contended(Features)];
    // Not zeroed: only the first R.Count of each are written and read.
    std::array<double, MaxExperts> Gathered, Inner;
    for (size_t I = 0; I < R.Count; ++I)
      Gathered[I] = ErrorEma[R.Experts[I]];
    softmaxOfErrorsSpan(Gathered.data(), R.Count, Inner.data());
    for (size_t K = 0; K < NumExperts; ++K)
      Weights[K] = R.Slot[K] < 0 ? 0.0 : Inner[R.Slot[K]];
  }

  /// The experts whose tag fits one regime, in index order, or all of them
  /// if no tag does; fixed at construction. Slot[k] is expert k's place in
  /// that list, or -1 outside it.
  struct Regime {
    std::array<size_t, MaxExperts> Experts{};
    std::array<int, MaxExperts> Slot{};
    size_t Count = 0;
  };

  std::vector<int> RegimeTags;
  double Alpha;
  Regime Regimes[2]; ///< Indexed by contended().
  std::array<double, MaxExperts> ErrorEma{};
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
