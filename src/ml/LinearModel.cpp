//===-- ml/LinearModel.cpp - Deployable linear predictor ------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "ml/LinearModel.h"

#include <cassert>

using namespace medley;

LinearModel::LinearModel(FeatureScaler Scaler, LinearFit Fit, std::string Name)
    : Scaler(std::move(Scaler)), Fit(std::move(Fit)), Name(std::move(Name)) {}

double LinearModel::predict(const Vec &X) const {
  // Fused standardise-and-score: element values and accumulation order are
  // exactly those of Fit.predict(Scaler.transform(X)), so the result is
  // bit-identical — without materialising the standardised copy. This is
  // the innermost call of every expert prediction, so it must not allocate.
  const Vec &Means = Scaler.means();
  const Vec &Scales = Scaler.scales();
  assert(X.size() == Means.size() && "scaler dimension mismatch");
  assert(Fit.Weights.size() == X.size() && "fit dimension mismatch");
  double Sum = 0.0;
  for (size_t I = 0; I < X.size(); ++I)
    Sum += Fit.Weights[I] * ((X[I] - Means[I]) / Scales[I]);
  return Sum + Fit.Intercept;
}

double LinearModel::predictStandardized(const Vec &Z) const {
  assert(Z.size() == Fit.Weights.size() && "fit dimension mismatch");
  // Same accumulation order as the fused predict() loop, so the result is
  // bit-identical given bitwise-equal standardised inputs.
  double Sum = 0.0;
  for (size_t I = 0; I < Z.size(); ++I)
    Sum += Fit.Weights[I] * Z[I];
  return Sum + Fit.Intercept;
}

void LinearModel::predictMany(const LinearModel *const *Models,
                              size_t NumModels, const Vec &X, double *Out) {
  if (NumModels == 4) {
    // The standard mixture width: four independent accumulator chains kept
    // in registers. Each chain performs the same operations in the same
    // order as a lone predict() call.
    const LinearModel &A = *Models[0], &B = *Models[1], &C = *Models[2],
                      &D = *Models[3];
    assert(X.size() == A.Scaler.dimension() &&
           X.size() == B.Scaler.dimension() &&
           X.size() == C.Scaler.dimension() &&
           X.size() == D.Scaler.dimension() && "scaler dimension mismatch");
    const double *WA = A.Fit.Weights.data(), *MA = A.Scaler.means().data(),
                 *SA = A.Scaler.scales().data();
    const double *WB = B.Fit.Weights.data(), *MB = B.Scaler.means().data(),
                 *SB = B.Scaler.scales().data();
    const double *WC = C.Fit.Weights.data(), *MC = C.Scaler.means().data(),
                 *SC = C.Scaler.scales().data();
    const double *WD = D.Fit.Weights.data(), *MD = D.Scaler.means().data(),
                 *SD = D.Scaler.scales().data();
    double SumA = 0.0, SumB = 0.0, SumC = 0.0, SumD = 0.0;
    for (size_t I = 0; I < X.size(); ++I) {
      double XI = X[I];
      SumA += WA[I] * ((XI - MA[I]) / SA[I]);
      SumB += WB[I] * ((XI - MB[I]) / SB[I]);
      SumC += WC[I] * ((XI - MC[I]) / SC[I]);
      SumD += WD[I] * ((XI - MD[I]) / SD[I]);
    }
    Out[0] = SumA + A.Fit.Intercept;
    Out[1] = SumB + B.Fit.Intercept;
    Out[2] = SumC + C.Fit.Intercept;
    Out[3] = SumD + D.Fit.Intercept;
    return;
  }
  for (size_t K = 0; K < NumModels; ++K)
    Out[K] = Models[K]->predict(X);
}

void LinearModel::predictStandardizedMany(const LinearModel *const *Models,
                                          size_t NumModels, const Vec &Z,
                                          double *Out) {
  if (NumModels == 4) {
    const LinearModel &A = *Models[0], &B = *Models[1], &C = *Models[2],
                      &D = *Models[3];
    assert(Z.size() == A.Fit.Weights.size() &&
           Z.size() == B.Fit.Weights.size() &&
           Z.size() == C.Fit.Weights.size() &&
           Z.size() == D.Fit.Weights.size() && "fit dimension mismatch");
    const double *WA = A.Fit.Weights.data(), *WB = B.Fit.Weights.data(),
                 *WC = C.Fit.Weights.data(), *WD = D.Fit.Weights.data();
    double SumA = 0.0, SumB = 0.0, SumC = 0.0, SumD = 0.0;
    for (size_t I = 0; I < Z.size(); ++I) {
      double ZI = Z[I];
      SumA += WA[I] * ZI;
      SumB += WB[I] * ZI;
      SumC += WC[I] * ZI;
      SumD += WD[I] * ZI;
    }
    Out[0] = SumA + A.Fit.Intercept;
    Out[1] = SumB + B.Fit.Intercept;
    Out[2] = SumC + C.Fit.Intercept;
    Out[3] = SumD + D.Fit.Intercept;
    return;
  }
  for (size_t K = 0; K < NumModels; ++K)
    Out[K] = Models[K]->predictStandardized(Z);
}

std::optional<LinearModel>
medley::trainLinearModel(const RowStream &Rows, const std::string &Name,
                         LinearModelOptions Options) {
  if (Rows.Rows == 0)
    return std::nullopt;

  FeatureScaler Scaler;
  if (Options.SharedScaler) {
    assert(Options.SharedScaler->dimension() == Rows.Features &&
           "shared scaler arity mismatch");
    Scaler = *Options.SharedScaler;
  } else if (Options.Standardize) {
    Scaler = FeatureScaler::fit(Rows);
  } else {
    Scaler = FeatureScaler::identity(Rows.Features);
  }

  // The fit reads each row standardised by transformInto, the arithmetic
  // transform() applies at prediction time.
  Vec Scaled;
  RowStream ScaledRows{Rows.Rows, Rows.Features,
                       [&](const RowVisitor &Visit) {
                         Rows.ForEach([&](const Vec &X, double Y) {
                           Scaler.transformInto(X, Scaled);
                           Visit(Scaled, Y);
                         });
                       }};

  LeastSquaresOptions LsOptions;
  LsOptions.Ridge = Options.Ridge;
  std::optional<LinearFit> Fit = fitLeastSquares(ScaledRows, LsOptions);
  if (!Fit)
    return std::nullopt;
  return LinearModel(std::move(Scaler), std::move(*Fit), Name);
}

std::optional<LinearModel>
medley::trainLinearModel(const Dataset &Data, const std::string &Name,
                         LinearModelOptions Options) {
  return trainLinearModel(Data.rows(), Name, Options);
}
