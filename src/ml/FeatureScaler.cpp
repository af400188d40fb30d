//===-- ml/FeatureScaler.cpp - Feature standardisation -------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "ml/FeatureScaler.h"

#include <cassert>
#include <cmath>

using namespace medley;

FeatureScaler FeatureScaler::identity(size_t N) {
  FeatureScaler S;
  S.Means = Vec(N, 0.0);
  S.Scales = Vec(N, 1.0);
  return S;
}

FeatureScaler FeatureScaler::fromMoments(Vec Means, Vec Scales) {
  assert(Means.size() == Scales.size() && "moment arity mismatch");
  FeatureScaler S;
  S.Means = std::move(Means);
  S.Scales = std::move(Scales);
  for ([[maybe_unused]] double Scale : S.Scales)
    assert(Scale > 0.0 && "scales must be positive");
  return S;
}

FeatureScaler FeatureScaler::fit(const RowStream &Rows) {
  assert(Rows.Rows > 0 && "cannot fit a scaler on an empty dataset");
  size_t N = Rows.Features;
  FeatureScaler S;
  S.Means = Vec(N, 0.0);
  S.Scales = Vec(N, 1.0);

  Rows.ForEach([&](const Vec &Row, double) {
    assert(Row.size() == N && "ragged rows");
    for (size_t I = 0; I < N; ++I)
      S.Means[I] += Row[I];
  });
  for (size_t I = 0; I < N; ++I)
    S.Means[I] /= static_cast<double>(Rows.Rows);

  Vec Var(N, 0.0);
  Rows.ForEach([&](const Vec &Row, double) {
    for (size_t I = 0; I < N; ++I) {
      double D = Row[I] - S.Means[I];
      Var[I] += D * D;
    }
  });
  for (size_t I = 0; I < N; ++I) {
    double Std = std::sqrt(Var[I] / static_cast<double>(Rows.Rows));
    S.Scales[I] = Std > 1e-9 ? Std : 1.0;
  }
  return S;
}

FeatureScaler FeatureScaler::fit(const std::vector<Vec> &Rows) {
  return fit(streamRows(Rows, {}));
}

Vec FeatureScaler::transform(const Vec &X) const {
  Vec Out;
  transformInto(X, Out);
  return Out;
}

void FeatureScaler::transformInto(const Vec &X, Vec &Out) const {
  assert(X.size() == Means.size() && "scaler dimension mismatch");
  assert(&X != &Out && "transformInto: output must not alias the input");
  Out.resize(X.size());
  for (size_t I = 0; I < X.size(); ++I)
    Out[I] = (X[I] - Means[I]) / Scales[I];
}
