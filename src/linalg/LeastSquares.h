//===-- linalg/LeastSquares.h - Linear regression ---------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ordinary and ridge least-squares fitting. The paper (Section 5.2.3) uses
/// "a linear regression technique employing standard least squares" for both
/// the thread predictor w and the environment predictor m; this is that
/// technique. A small ridge term is available as a fallback for degenerate
/// training sets (e.g. constant features under leave-one-out splits).
///
/// Fits read their rows in place through a RowStream: the ridge fit sums
/// the normal equations one row at a time, so no fit copies its training
/// set.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_LINALG_LEASTSQUARES_H
#define MEDLEY_LINALG_LEASTSQUARES_H

#include "linalg/Matrix.h"

#include <functional>
#include <optional>

namespace medley {

/// Receives one row of a training set: its features and its target.
using RowVisitor = std::function<void(const Vec &X, double Y)>;

/// A training set read in place. ForEach visits the same Rows rows, each
/// Features wide, in the same order on every call; fits make several
/// passes over it. The row a visitor receives is only valid during the
/// call.
struct RowStream {
  RowStream(size_t Rows, size_t Features,
            std::function<void(const RowVisitor &)> ForEach)
      : Rows(Rows), Features(Features), ForEach(std::move(ForEach)) {}

  size_t Rows;
  size_t Features;
  std::function<void(const RowVisitor &)> ForEach;
};

/// Streams row I of \p X with target Y[I] (0.0 when \p Y is empty). Both
/// must outlive the stream.
RowStream streamRows(const std::vector<Vec> &X, const Vec &Y);

/// Result of a least-squares fit: y ~= Weights . x + Intercept.
struct LinearFit {
  Vec Weights;
  double Intercept = 0.0;
  /// Coefficient of determination on the training data.
  double R2 = 0.0;

  /// Evaluates the fitted model on \p X.
  double predict(const Vec &X) const;
};

/// Options controlling fitLeastSquares.
struct LeastSquaresOptions {
  /// Ridge regularisation strength (0 = ordinary least squares). Applied to
  /// the weights only, never to the intercept.
  double Ridge = 0.0;
  /// Whether to fit an intercept term (the paper's regression constant β).
  bool FitIntercept = true;
};

/// Fits min ||X w - Y|| over the rows of \p Rows. Returns std::nullopt when
/// the problem is unsolvable (no rows, or a numerically singular system
/// even after the ridge fallback).
std::optional<LinearFit> fitLeastSquares(const RowStream &Rows,
                                         LeastSquaresOptions Options = {});

/// Fits over the rows of \p X; std::nullopt also when X and Y differ in
/// length.
std::optional<LinearFit> fitLeastSquares(const std::vector<Vec> &X,
                                         const Vec &Y,
                                         LeastSquaresOptions Options = {});

} // namespace medley

#endif // MEDLEY_LINALG_LEASTSQUARES_H
