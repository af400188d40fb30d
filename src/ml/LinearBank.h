//===-- ml/LinearBank.h - Packed scoring of linear model pairs --*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A packed, feature-major bank of K <= MaxLanes (thread, environment)
/// linear model pairs over N features, scored in one pass. The mixture
/// packs its experts into a bank once per expert set and scores it once
/// per decision.
///
/// pack() folds each model's scaler into its weights, lane by lane:
/// w'_i = w_i / sigma_i and b' = b - sum_i w'_i * mu_i (summed from 0.0 in
/// index order). score() is then 2K plain dot products over the raw
/// features, with no subtraction or division: one accumulator per lane
/// starting at 0.0, features in index order, the folded intercept added
/// last. The models need not share a scaler.
///
/// The fold reassociates predict()'s arithmetic, so a lane may differ
/// from its model's predict() in the last bits, by a few ulps of
/// |b| + sum_i |w'_i x_i| + sum_i |w'_i mu_i|. LinearBankTest holds every
/// lane within 1e-12 * (|b| + sum_i |w_i (x_i - mu_i) / sigma_i|) of
/// predict(). An identity scaler (mu = 0, sigma = 1) folds exactly, and
/// the lane then equals predict() bitwise. Decisions round these scores
/// to thread counts, and the mixture's decision tests pin them
/// (DESIGN.md §11).
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_ML_LINEARBANK_H
#define MEDLEY_ML_LINEARBANK_H

#include "ml/LinearModel.h"

#include <cassert>
#include <utility>

namespace medley {

template <size_t N> class LinearBank {
public:
  static constexpr size_t MaxLanes = 8;

  /// Packs the pairs (\p Thread[k], \p Env[k]) for k < \p NumLanes, each
  /// model's scaler folded into its weights. Returns false and leaves the
  /// bank empty unless 1 <= NumLanes <= MaxLanes and every model has
  /// dimension N.
  bool pack(const LinearModel *const *Thread, const LinearModel *const *Env,
            size_t NumLanes) {
    Lanes = 0;
    if (NumLanes == 0 || NumLanes > MaxLanes)
      return false;
    for (size_t K = 0; K < NumLanes; ++K)
      if (Thread[K]->dimension() != N || Env[K]->dimension() != N)
        return false;

    for (size_t K = 0; K < NumLanes; ++K) {
      ThreadIntercept[K] = fold(*Thread[K], K, NumLanes);
      EnvIntercept[K] = fold(*Env[K], NumLanes + K, NumLanes);
    }
    Lanes = NumLanes;
    return true;
  }

  /// Empties the bank.
  void clear() { Lanes = 0; }

  /// Number of packed pairs; 0 when the bank is empty.
  size_t lanes() const { return Lanes; }

  /// Scores every lane over the N raw features \p X: ThreadOut[k] and
  /// EnvOut[k] are Thread[k]'s and Env[k]'s predictions, within the fold's
  /// rounding of predict() (see the file comment).
  void score(const double *X, double *ThreadOut, double *EnvOut) const {
    assert(Lanes != 0 && "scoring an empty bank");
    switch (Lanes) {
    case 1: return scoreLanes<1>(X, ThreadOut, EnvOut);
    case 2: return scoreLanes<2>(X, ThreadOut, EnvOut);
    case 3: return scoreLanes<3>(X, ThreadOut, EnvOut);
    case 4: return scoreLanes<4>(X, ThreadOut, EnvOut);
    case 5: return scoreLanes<5>(X, ThreadOut, EnvOut);
    case 6: return scoreLanes<6>(X, ThreadOut, EnvOut);
    case 7: return scoreLanes<7>(X, ThreadOut, EnvOut);
    default: return scoreLanes<8>(X, ThreadOut, EnvOut);
    }
  }

private:
  /// Doubles per lane in a feature row: folded thread and environment
  /// weights.
  static constexpr size_t RowWidth = 2;

  /// Writes \p Model's folded weights into column \p Column of every
  /// feature row (rows \p NumLanes lanes wide) and returns its folded
  /// intercept.
  double fold(const LinearModel &Model, size_t Column, size_t NumLanes) {
    const Vec &Weights = Model.weights();
    const Vec &Means = Model.scaler().means();
    const Vec &Scales = Model.scaler().scales();
    double Shift = 0.0;
    for (size_t I = 0; I < N; ++I) {
      const double W = Weights[I] / Scales[I];
      Rows[I * RowWidth * NumLanes + Column] = W;
      Shift += W * Means[I];
    }
    return Model.intercept() - Shift;
  }

  template <size_t K>
  void scoreLanes(const double *X, double *ThreadOut, double *EnvOut) const {
    double ThreadSum[K] = {}, EnvSum[K] = {};
    // Feature by feature in index order, spelled out at compile time so
    // no loop runs over the features: with one, the vectoriser pairs
    // features instead of lanes and spills the sums.
    [&]<size_t... I>(std::index_sequence<I...>) {
      (accumulate<K>(I, X[I], ThreadSum, EnvSum), ...);
    }(std::make_index_sequence<N>());
    for (size_t L = 0; L < K; ++L) {
      ThreadOut[L] = ThreadSum[L] + ThreadIntercept[L];
      EnvOut[L] = EnvSum[L] + EnvIntercept[L];
    }
  }

  /// Adds feature \p I's term to every lane's sums.
  template <size_t K>
  void accumulate(size_t I, double XI, double *ThreadSum,
                  double *EnvSum) const {
    const double *Row = Rows + I * RowWidth * K;
    for (size_t L = 0; L < K; ++L) {
      ThreadSum[L] += Row[L] * XI;
      EnvSum[L] += Row[K + L] * XI;
    }
  }

  /// Feature row I holds, at stride lanes(): the K folded thread weights,
  /// then the K folded environment weights.
  double Rows[N * RowWidth * MaxLanes] = {};
  double ThreadIntercept[MaxLanes] = {};
  double EnvIntercept[MaxLanes] = {};
  size_t Lanes = 0;
};

} // namespace medley

#endif // MEDLEY_ML_LINEARBANK_H
