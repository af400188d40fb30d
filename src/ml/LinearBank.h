//===-- ml/LinearBank.h - Packed scoring of linear model pairs --*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A packed, feature-major bank of K <= MaxLanes (thread, environment)
/// linear model pairs over N features, scored in one pass. The thread
/// models share one feature scaler (ExpertBuilder trains them that way);
/// each environment model keeps its own. The mixture packs its experts
/// into a bank once per expert set and scores it once per decision.
///
/// Each lane performs LinearModel::predict()'s operations in predict()'s
/// order — one accumulator starting at 0.0, features in index order, the
/// intercept added last — so every output is bit-identical to the model's
/// own predict(). Lanes only run side by side; with N and K known at
/// compile time the loops unroll and the compiler packs independent lanes
/// into vector registers without reordering any lane's additions.
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

  /// Packs the pairs (\p Thread[k], \p Env[k]) for k < \p NumLanes.
  /// Returns false and leaves the bank empty unless 1 <= NumLanes <=
  /// MaxLanes, every model has dimension N, and the thread models' scalers
  /// are element-wise identical.
  bool pack(const LinearModel *const *Thread, const LinearModel *const *Env,
            size_t NumLanes) {
    Lanes = 0;
    if (NumLanes == 0 || NumLanes > MaxLanes)
      return false;
    const FeatureScaler &Shared = Thread[0]->scaler();
    for (size_t K = 0; K < NumLanes; ++K)
      if (Thread[K]->dimension() != N || Env[K]->dimension() != N ||
          Thread[K]->scaler().means() != Shared.means() ||
          Thread[K]->scaler().scales() != Shared.scales())
        return false;

    for (size_t I = 0; I < N; ++I) {
      ThreadMean[I] = Shared.means()[I];
      ThreadScale[I] = Shared.scales()[I];
      double *Row = Rows + I * RowWidth * NumLanes;
      for (size_t K = 0; K < NumLanes; ++K) {
        Row[K] = Thread[K]->weights()[I];
        Row[NumLanes + K] = Env[K]->scaler().means()[I];
        Row[2 * NumLanes + K] = Env[K]->scaler().scales()[I];
        Row[3 * NumLanes + K] = Env[K]->weights()[I];
      }
    }
    for (size_t K = 0; K < NumLanes; ++K) {
      ThreadIntercept[K] = Thread[K]->intercept();
      EnvIntercept[K] = Env[K]->intercept();
    }
    Lanes = NumLanes;
    return true;
  }

  /// Empties the bank.
  void clear() { Lanes = 0; }

  /// Number of packed pairs; 0 when the bank is empty.
  size_t lanes() const { return Lanes; }

  /// Scores every lane over the N raw features \p X: ThreadOut[k] and
  /// EnvOut[k] equal Thread[k]->predict(X) and Env[k]->predict(X) bitwise.
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
  /// Doubles per lane in a feature row: thread weight, environment mean,
  /// scale and weight.
  static constexpr size_t RowWidth = 4;

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
    // The shared thread scaler's standardised feature, as transformInto
    // and every thread model's predict() compute it.
    const double Z = (XI - ThreadMean[I]) / ThreadScale[I];
    const double *Row = Rows + I * RowWidth * K;
    for (size_t L = 0; L < K; ++L) {
      ThreadSum[L] += Row[L] * Z;
      EnvSum[L] += Row[3 * K + L] * ((XI - Row[K + L]) / Row[2 * K + L]);
    }
  }

  /// The shared thread scaler.
  double ThreadMean[N] = {};
  double ThreadScale[N] = {};
  /// Feature row I holds, at stride lanes(): the K thread weights, then
  /// the K environment means, scales and weights.
  double Rows[N * RowWidth * MaxLanes] = {};
  double ThreadIntercept[MaxLanes] = {};
  double EnvIntercept[MaxLanes] = {};
  size_t Lanes = 0;
};

} // namespace medley

#endif // MEDLEY_ML_LINEARBANK_H
