//===-- ml/KnnModel.cpp - Instance-based (k-NN) regression ----------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "ml/KnnModel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace medley;

std::optional<KnnModel> medley::trainKnnModel(const Dataset &Data,
                                              const std::string &Name,
                                              KnnOptions Options) {
  if (Data.empty() || Options.K == 0)
    return std::nullopt;

  KnnModel Model;
  Model.Options = Options;
  Model.Name = Name;
  Model.Scaler = FeatureScaler::fit(Data.rows());

  // Deterministic stride subsampling keeps queries cheap on big corpora.
  size_t Stride =
      std::max<size_t>(1, Data.size() / Options.MaxStoredSamples);
  for (size_t I = 0; I < Data.size(); I += Stride) {
    Model.Points.push_back(Model.Scaler.transform(Data.sample(I).X));
    Model.Targets.push_back(Data.sample(I).Y);
  }
  return Model;
}

double KnnModel::predict(const Vec &X) const {
  assert(!Points.empty() && "querying an untrained k-NN model");
  // Per-thread scratch (standardised query, distance/target pairs): the
  // model is shared by every mixture instance, and exp::Driver runs those
  // on a thread pool. Capacity sticks after a thread's first query, so
  // its steady-state queries perform zero heap allocations.
  thread_local Vec Q;
  thread_local std::vector<std::pair<double, double>> DistTarget;
  Scaler.transformInto(X, Q);

  // Collect squared distances, then pick the k smallest.
  DistTarget.clear();
  DistTarget.reserve(Points.size());
  for (size_t I = 0; I < Points.size(); ++I) {
    double D2 = 0.0;
    for (size_t J = 0; J < Q.size(); ++J) {
      double Delta = Points[I][J] - Q[J];
      D2 += Delta * Delta;
    }
    DistTarget.emplace_back(D2, Targets[I]);
  }
  size_t K = std::min(Options.K, DistTarget.size());
  std::partial_sort(DistTarget.begin(), DistTarget.begin() + K,
                    DistTarget.end());

  double WeightSum = 0.0, Weighted = 0.0;
  for (size_t I = 0; I < K; ++I) {
    double W = 1.0 / (std::sqrt(DistTarget[I].first) + 1e-6);
    WeightSum += W;
    Weighted += W * DistTarget[I].second;
  }
  return Weighted / WeightSum;
}
