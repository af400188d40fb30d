//===-- core/Expert.h - A (w, m) expert pair --------------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An expert in the paper's sense (Section 4.1): two offline-trained models
/// over the same training data —
///   * the thread predictor  w : f -> n        (how many threads to use)
///   * the environment predictor m : f_t -> ||ê_{t+1}||  (what the world
///     will look like next)
/// The environment predictor exists purely to let the online selector judge
/// this expert's quality: w's accuracy cannot be observed at runtime, m's
/// can, and the two are correlated because they share training data.
///
/// The standard experts are linear (Section 5.2.3), but the paper allows
/// "any (potentially external) expert that determines these two parameters,
/// via whatever means" — so an Expert can also be built from arbitrary
/// prediction functions (k-NN models, hand-written heuristics, ...), and an
/// expert without an offline environment model can learn one online from
/// the observations each mixture instance feeds back (Section 4.1's
/// retrofit path).
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_CORE_EXPERT_H
#define MEDLEY_CORE_EXPERT_H

#include "ml/LinearModel.h"
#include "policy/Features.h"

#include <functional>
#include <memory>
#include <optional>

namespace medley::core {

/// An environment predictor learned online: an exponentially-weighted
/// running estimate of the environment norm, optionally conditioned on the
/// observable machine regime (contended / uncontended). Starts from a
/// prior and converges as observations arrive. A plain value: an expert
/// holds the untrained model, and every mixture instance trains its own
/// copy.
class OnlineEnvModel {
public:
  /// \p Prior seeds both regimes' estimates; \p Alpha is the EMA step.
  explicit OnlineEnvModel(double Prior, double Alpha = 0.1);

  /// Predicted ||e_{t+1}|| for the 10-feature vector \p Features.
  double predict(const Vec &Features) const;

  /// Folds in a realised observation for a past decision at \p Features.
  void observe(const Vec &Features, double ObservedEnvNorm);

  /// Observations folded in so far.
  size_t observations() const { return Count; }

private:
  static bool contended(const Vec &Features);

  double Alpha;
  double Estimate[2]; ///< Per regime: [uncontended, contended].
  size_t Count = 0;
};

/// One offline-trained mapping policy with its quality proxy.
class Expert {
public:
  /// Raw prediction function over the 10-feature vector.
  using PredictFn = std::function<double(const Vec &)>;

  Expert() = default;

  /// The standard construction: two linear models (Table 1).
  Expert(std::string Name, std::string Description, LinearModel ThreadModel,
         LinearModel EnvModel, double MeanTrainingEnv);

  /// External-expert construction: arbitrary thread / environment
  /// predictors.
  Expert(std::string Name, std::string Description, PredictFn ThreadFn,
         PredictFn EnvFn, double MeanTrainingEnv);

  /// Construction for an expert that ships without an environment
  /// predictor (Section 4.1's retrofit path): each mixture instance trains
  /// its own copy of \p EnvPrior from the observations it feeds back.
  Expert(std::string Name, std::string Description, PredictFn ThreadFn,
         OnlineEnvModel EnvPrior, double MeanTrainingEnv);

  /// Thread prediction n = clamp(round(w . f + beta), 1, MaxThreads).
  unsigned predictThreads(const policy::FeatureVector &Features) const;

  /// Environment prediction ||ê_{t+1}|| = m . f_t + beta; the untrained
  /// prior for an expert that learns its environment model online.
  double predictEnvNorm(const policy::FeatureVector &Features) const;

  const std::string &name() const { return Name; }
  const std::string &description() const { return Description; }

  /// The linear thread/environment models, or nullptr for an external
  /// (non-linear) expert. Used for Table-1 style introspection only.
  const LinearModel *threadModel() const;
  const LinearModel *envModel() const;

  /// Mean environment norm of the expert's training data; used to order
  /// experts along the hyperplane selector's axis.
  double meanTrainingEnv() const { return MeanTrainingEnv; }

  /// The untrained environment model of an expert that learns it online,
  /// or nullptr. The expert never trains it: a mixture instance copies it.
  const OnlineEnvModel *onlineEnvPrior() const {
    return EnvPrior ? &*EnvPrior : nullptr;
  }

private:
  std::string Name;
  std::string Description;
  /// Set for standard linear experts; introspection only.
  std::shared_ptr<const LinearModel> LinearThread;
  std::shared_ptr<const LinearModel> LinearEnv;
  PredictFn ThreadFn;
  PredictFn EnvFn;
  std::optional<OnlineEnvModel> EnvPrior;
  double MeanTrainingEnv = 0.0;
};

} // namespace medley::core

#endif // MEDLEY_CORE_EXPERT_H
