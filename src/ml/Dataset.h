//===-- ml/Dataset.h - Supervised training data -----------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A labelled dataset of feature vectors. Each sample carries a group tag
/// (the training program's name) so that leave-one-out cross-validation can
/// hold out whole programs, exactly as Section 5.2.3 prescribes ("if we are
/// trying to predict the number of threads for program bt, we ensure that
/// bt is not part of the training set").
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_ML_DATASET_H
#define MEDLEY_ML_DATASET_H

#include "linalg/LeastSquares.h"

#include <functional>
#include <string>
#include <vector>

namespace medley {

/// One labelled observation.
struct Sample {
  Vec X;             ///< Feature vector.
  double Y = 0.0;    ///< Regression target.
  std::string Group; ///< Origin program (cross-validation unit).
};

/// A named-column collection of samples.
class Dataset {
public:
  Dataset() = default;
  explicit Dataset(std::vector<std::string> FeatureNames);

  const std::vector<std::string> &featureNames() const { return Names; }
  size_t numFeatures() const { return Names.size(); }
  size_t size() const { return Samples.size(); }
  bool empty() const { return Samples.empty(); }

  const Sample &sample(size_t I) const { return Samples[I]; }
  const std::vector<Sample> &samples() const { return Samples; }

  /// Appends a sample; X must have numFeatures() entries.
  void add(Vec X, double Y, std::string Group = "");

  /// Returns the distinct group tags in first-seen order.
  std::vector<std::string> groups() const;

  /// Returns the subset whose samples satisfy \p Keep.
  Dataset filter(const std::function<bool(const Sample &)> &Keep) const;

  /// Returns a copy with feature column \p Index removed (feature-impact
  /// analysis retrains the model with one feature dropped).
  Dataset withoutFeature(size_t Index) const;

  /// Splits into (samples whose group == \p Group, the rest).
  std::pair<Dataset, Dataset> splitByGroup(const std::string &Group) const;

  /// The samples as (features, target) rows, read in place; the dataset
  /// must outlive the stream.
  RowStream rows() const;

  /// All targets.
  Vec targets() const;

  /// Merges \p Other into this dataset; feature names must match.
  void append(const Dataset &Other);

private:
  std::vector<std::string> Names;
  std::vector<Sample> Samples;
};

} // namespace medley

#endif // MEDLEY_ML_DATASET_H
