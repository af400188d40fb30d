//===-- ml/FeatureScaler.h - Feature standardisation ------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-feature standardisation (zero mean, unit variance). Runtime features
/// span wildly different scales (thread counts vs. load averages vs. memory
/// ratios), so models are trained in standardised space; the scaler is part
/// of the deployed model.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_ML_FEATURESCALER_H
#define MEDLEY_ML_FEATURESCALER_H

#include "linalg/LeastSquares.h"

namespace medley {

/// Z-score scaler fit on training data and applied at inference time.
class FeatureScaler {
public:
  /// Builds an identity scaler of dimension \p N (transform is a no-op).
  static FeatureScaler identity(size_t N);

  /// Rebuilds a scaler from stored moments (deserialisation).
  static FeatureScaler fromMoments(Vec Means, Vec Scales);

  /// Fits per-feature mean and stddev over \p Rows in two passes, reading
  /// the rows in place. Features with (near) zero variance are given unit
  /// scale so they pass through centred.
  static FeatureScaler fit(const RowStream &Rows);
  static FeatureScaler fit(const std::vector<Vec> &Rows);

  /// Standardises \p X.
  Vec transform(const Vec &X) const;

  /// Standardises \p X into \p Out without allocating (capacity reused
  /// across calls); bit-identical to transform(). Out must not alias X.
  void transformInto(const Vec &X, Vec &Out) const;

  size_t dimension() const { return Means.size(); }
  const Vec &means() const { return Means; }
  const Vec &scales() const { return Scales; }

private:
  Vec Means;
  Vec Scales;
};

} // namespace medley

#endif // MEDLEY_ML_FEATURESCALER_H
