//===-- ml/KnnModel.h - Instance-based (k-NN) regression --------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A k-nearest-neighbour regressor, the instance-based learning technique
/// of Long & O'Boyle (paper reference [21]) and one of the "other modeling
/// techniques" the paper's Section 9 asks to be plugged into the mixture.
/// Distances are computed in standardised feature space; the prediction is
/// the inverse-distance-weighted mean of the k nearest training targets.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_ML_KNNMODEL_H
#define MEDLEY_ML_KNNMODEL_H

#include "ml/Dataset.h"
#include "ml/FeatureScaler.h"

#include <optional>

namespace medley {

/// Options for trainKnnModel.
struct KnnOptions {
  size_t K = 15;
  /// Cap on the stored training set; larger datasets are subsampled
  /// deterministically (every size/cap-th sample) to bound query cost.
  size_t MaxStoredSamples = 2000;
};

/// Instance-based regressor: keeps (standardised) training points and
/// predicts by inverse-distance-weighted k-NN averaging. A trained model
/// is immutable: every mixture instance shares one, and predict() may run
/// on several threads at once.
class KnnModel {
public:
  KnnModel() = default;

  double predict(const Vec &X) const;

  size_t storedSamples() const { return Points.size(); }
  size_t k() const { return Options.K; }
  const std::string &name() const { return Name; }
  size_t dimension() const { return Scaler.dimension(); }

private:
  friend std::optional<KnnModel> trainKnnModel(const Dataset &Data,
                                               const std::string &Name,
                                               KnnOptions Options);

  FeatureScaler Scaler;
  std::vector<Vec> Points; ///< Standardised feature vectors.
  Vec Targets;
  KnnOptions Options;
  std::string Name;
};

/// Builds a KnnModel over \p Data (std::nullopt when empty).
std::optional<KnnModel> trainKnnModel(const Dataset &Data,
                                      const std::string &Name,
                                      KnnOptions Options = {});

} // namespace medley

#endif // MEDLEY_ML_KNNMODEL_H
