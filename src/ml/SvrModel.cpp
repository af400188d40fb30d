//===-- ml/SvrModel.cpp - Linear epsilon-SVR ------------------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "ml/SvrModel.h"

#include "support/Random.h"

#include <cassert>
#include <cmath>

using namespace medley;

std::optional<SvrModel> medley::trainSvrModel(const Dataset &Data,
                                              const std::string &Name,
                                              SvrOptions Options) {
  if (Data.empty())
    return std::nullopt;
  assert(Options.Epsilon >= 0.0 && Options.Lambda >= 0.0 &&
         Options.Epochs >= 1 && "invalid SVR options");

  SvrModel Model;
  Model.Name = Name;
  Model.Scaler = FeatureScaler::fit(Data.rows());

  size_t N = Data.size(), Dim = Data.numFeatures();
  std::vector<Vec> X;
  X.reserve(N);
  for (size_t I = 0; I < N; ++I)
    X.push_back(Model.Scaler.transform(Data.sample(I).X));
  // Centre the targets: the intercept then only has to learn the residual
  // offset, which converges far faster under subgradient steps.
  Vec Y = Data.targets();
  double MeanY = 0.0;
  for (double V : Y)
    MeanY += V;
  MeanY /= static_cast<double>(N);
  for (double &V : Y)
    V -= MeanY;

  // Averaged subgradient descent with a 1/sqrt(t) step schedule; the
  // Polyak average covers only the second half of training so early,
  // far-from-optimal iterates do not dilute it.
  Vec W(Dim, 0.0), WSum(Dim, 0.0);
  double B = 0.0, BSum = 0.0;
  size_t Steps = 0, Averaged = 0;
  const size_t TotalSteps = N * Options.Epochs;

  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng Generator(Options.Seed);

  for (size_t Epoch = 0; Epoch < Options.Epochs; ++Epoch) {
    Generator.shuffle(Order);
    for (size_t I : Order) {
      ++Steps;
      double Eta =
          Options.LearningRate / std::sqrt(static_cast<double>(Steps));
      double Pred = dot(W, X[I]) + B;
      double Residual = Pred - Y[I];

      // L2 shrinkage every step, loss gradient only outside the tube.
      for (double &Wj : W)
        Wj *= 1.0 - Eta * Options.Lambda;
      if (Residual > Options.Epsilon) {
        axpy(W, -Eta, X[I]);
        B -= Eta;
      } else if (Residual < -Options.Epsilon) {
        axpy(W, Eta, X[I]);
        B += Eta;
      }
      if (Steps * 2 >= TotalSteps) {
        axpy(WSum, 1.0, W);
        BSum += B;
        ++Averaged;
      }
    }
  }

  Model.Weights = scale(WSum, 1.0 / static_cast<double>(Averaged));
  Model.Intercept = BSum / static_cast<double>(Averaged) + MeanY;

  size_t Outside = 0;
  for (size_t I = 0; I < N; ++I) {
    // Y was centred above; compare in the same frame.
    double Residual =
        dot(Model.Weights, X[I]) + (Model.Intercept - MeanY) - Y[I];
    if (std::fabs(Residual) > Options.Epsilon)
      ++Outside;
  }
  Model.SupportFraction = static_cast<double>(Outside) / N;
  return Model;
}

double SvrModel::predict(const Vec &X) const {
  assert(!Weights.empty() && "querying an untrained SVR model");
  return dot(Weights, Scaler.transform(X)) + Intercept;
}
