//===-- ml/LinearModel.h - Deployable linear predictor ----------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deployable linear model: feature scaler + least-squares fit. Both of an
/// expert's models (thread predictor w and environment predictor m, paper
/// Section 4.1) are instances of this class, trained on the same data.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_ML_LINEARMODEL_H
#define MEDLEY_ML_LINEARMODEL_H

#include "linalg/LeastSquares.h"
#include "ml/Dataset.h"
#include "ml/FeatureScaler.h"

#include <optional>
#include <string>

namespace medley {

/// Options for trainLinearModel.
struct LinearModelOptions {
  double Ridge = 0.0;
  bool Standardize = true;
  /// When non-null, use this scaler instead of fitting one on the training
  /// data. Experts trained on subsets of a corpus share the corpus-wide
  /// scaler so their predictions are comparable under the same inputs.
  const FeatureScaler *SharedScaler = nullptr;
};

/// Scaler + linear fit, applied as predict(x) = w . scale(x) + β.
class LinearModel {
public:
  LinearModel() = default;
  LinearModel(FeatureScaler Scaler, LinearFit Fit, std::string Name);

  /// Predicts the target for raw (unscaled) features \p X.
  double predict(const Vec &X) const;

  /// Predicts from already-standardised features \p Z (as produced by
  /// scaler().transformInto). Bit-identical to predict(X) when Z holds the
  /// standardised values of X; callers scoring many models that share one
  /// scaler use this to standardise once per decision.
  double predictStandardized(const Vec &Z) const;

  /// Scores \p NumModels models over the same raw features into \p Out.
  /// Each model's accumulation runs in its own register chain in the exact
  /// index order of predict(), so every Out[K] is bit-identical to
  /// Models[K]->predict(X) — the interleaving only buys instruction-level
  /// parallelism across the independent chains. RolloutController calls
  /// this for the shadow comparison's environment predictions.
  static void predictMany(const LinearModel *const *Models, size_t NumModels,
                          const Vec &X, double *Out);

  /// Batch form of predictStandardized; same bit-identity guarantee.
  static void predictStandardizedMany(const LinearModel *const *Models,
                                      size_t NumModels, const Vec &Z,
                                      double *Out);

  /// Weights in standardised feature space (the paper's Table-1 entries).
  const Vec &weights() const { return Fit.Weights; }
  double intercept() const { return Fit.Intercept; }
  double trainingR2() const { return Fit.R2; }
  const std::string &name() const { return Name; }
  size_t dimension() const { return Scaler.dimension(); }
  const FeatureScaler &scaler() const { return Scaler; }

private:
  FeatureScaler Scaler;
  LinearFit Fit;
  std::string Name;
};

/// Fits a LinearModel over \p Rows, read in place: the scaler's moments
/// and the least-squares sums are taken one row at a time, standardising
/// each row on the fly. Returns std::nullopt for an empty or degenerate
/// training set.
std::optional<LinearModel> trainLinearModel(const RowStream &Rows,
                                            const std::string &Name,
                                            LinearModelOptions Options = {});

/// Fits a LinearModel over the samples of \p Data.
std::optional<LinearModel> trainLinearModel(const Dataset &Data,
                                            const std::string &Name,
                                            LinearModelOptions Options = {});

} // namespace medley

#endif // MEDLEY_ML_LINEARMODEL_H
