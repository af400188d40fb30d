//===-- tests/MlTest.cpp - ml library tests ------------------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "linalg/Solve.h"
#include "ml/CrossValidation.h"
#include "ml/Dataset.h"
#include "ml/FeatureImpact.h"
#include "ml/FeatureScaler.h"
#include "ml/FeatureSelection.h"
#include "ml/LinearBank.h"
#include "ml/KnnModel.h"
#include "ml/SvrModel.h"
#include "ml/LinearModel.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>

using namespace medley;

namespace {

/// Builds a dataset where y = 3*x0 - 2*x1 + group-independent noise, with
/// a third pure-noise feature, spread over \p NumGroups groups.
Dataset makeLinearDataset(uint64_t Seed, size_t NumGroups = 4,
                          size_t PerGroup = 40, double Noise = 0.0) {
  Rng R(Seed);
  Dataset Data({"x0", "x1", "noise"});
  for (size_t G = 0; G < NumGroups; ++G)
    for (size_t I = 0; I < PerGroup; ++I) {
      Vec X = {R.uniform(-2, 2), R.uniform(-2, 2), R.uniform(-2, 2)};
      double Y = 3.0 * X[0] - 2.0 * X[1] + R.normal(0.0, Noise);
      Data.add(std::move(X), Y, "g" + std::to_string(G));
    }
  return Data;
}

} // namespace

//===----------------------------------------------------------------------===//
// Dataset
//===----------------------------------------------------------------------===//

TEST(DatasetTest, AddAndAccess) {
  Dataset Data({"a", "b"});
  EXPECT_TRUE(Data.empty());
  Data.add({1.0, 2.0}, 3.0, "p");
  EXPECT_EQ(Data.size(), 1u);
  EXPECT_EQ(Data.numFeatures(), 2u);
  EXPECT_EQ(Data.sample(0).Y, 3.0);
  EXPECT_EQ(Data.sample(0).Group, "p");
}

TEST(DatasetTest, GroupsInFirstSeenOrder) {
  Dataset Data({"a"});
  Data.add({1}, 0, "z");
  Data.add({2}, 0, "a");
  Data.add({3}, 0, "z");
  EXPECT_EQ(Data.groups(), (std::vector<std::string>{"z", "a"}));
}

TEST(DatasetTest, FilterKeepsMatching) {
  Dataset Data({"a"});
  for (int I = 0; I < 10; ++I)
    Data.add({double(I)}, I, "g");
  Dataset Even =
      Data.filter([](const Sample &S) { return int(S.Y) % 2 == 0; });
  EXPECT_EQ(Even.size(), 5u);
}

TEST(DatasetTest, WithoutFeatureDropsColumn) {
  Dataset Data({"a", "b", "c"});
  Data.add({1, 2, 3}, 0, "g");
  Dataset Reduced = Data.withoutFeature(1);
  EXPECT_EQ(Reduced.featureNames(), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(Reduced.sample(0).X, (Vec{1, 3}));
}

TEST(DatasetTest, SplitByGroup) {
  Dataset Data({"a"});
  Data.add({1}, 0, "p");
  Data.add({2}, 0, "q");
  Data.add({3}, 0, "p");
  auto [In, Rest] = Data.splitByGroup("p");
  EXPECT_EQ(In.size(), 2u);
  EXPECT_EQ(Rest.size(), 1u);
  EXPECT_EQ(Rest.sample(0).Group, "q");
}

TEST(DatasetTest, DesignMatrixAndTargets) {
  Dataset Data({"a", "b"});
  Data.add({1, 2}, 10, "g");
  Data.add({3, 4}, 20, "g");
  RowStream Rows = Data.rows();
  EXPECT_EQ(Rows.Rows, 2u);
  EXPECT_EQ(Rows.Features, 2u);
  std::vector<Vec> X;
  Vec Y;
  Rows.ForEach([&](const Vec &Row, double Target) {
    X.push_back(Row);
    Y.push_back(Target);
  });
  EXPECT_EQ(X, (std::vector<Vec>{{1, 2}, {3, 4}}));
  EXPECT_EQ(Y, (Vec{10, 20}));
  EXPECT_EQ(Data.targets(), (Vec{10, 20}));
}

TEST(DatasetTest, AppendMergesSamples) {
  Dataset A({"a"}), B({"a"});
  A.add({1}, 1, "g");
  B.add({2}, 2, "h");
  A.append(B);
  EXPECT_EQ(A.size(), 2u);
  EXPECT_EQ(A.sample(1).Group, "h");
}

//===----------------------------------------------------------------------===//
// FeatureScaler
//===----------------------------------------------------------------------===//

TEST(FeatureScalerTest, IdentityPassesThrough) {
  FeatureScaler S = FeatureScaler::identity(3);
  Vec X = {1.5, -2.0, 7.0};
  EXPECT_EQ(S.transform(X), X);
}

TEST(FeatureScalerTest, FitStandardises) {
  std::vector<Vec> Rows = {{0.0, 10.0}, {2.0, 10.0}, {4.0, 10.0}};
  FeatureScaler S = FeatureScaler::fit(Rows);
  EXPECT_NEAR(S.means()[0], 2.0, 1e-12);
  // Standardised values have zero mean.
  double Sum = 0.0;
  for (const Vec &Row : Rows)
    Sum += S.transform(Row)[0];
  EXPECT_NEAR(Sum, 0.0, 1e-12);
}

TEST(FeatureScalerTest, ZeroVarianceFeaturePassesCentred) {
  std::vector<Vec> Rows = {{5.0}, {5.0}, {5.0}};
  FeatureScaler S = FeatureScaler::fit(Rows);
  EXPECT_DOUBLE_EQ(S.transform({5.0})[0], 0.0);
  EXPECT_DOUBLE_EQ(S.transform({6.0})[0], 1.0);
}

//===----------------------------------------------------------------------===//
// LinearModel
//===----------------------------------------------------------------------===//

TEST(LinearModelTest, TrainsAndPredicts) {
  Dataset Data = makeLinearDataset(3);
  auto Model = trainLinearModel(Data, "test");
  ASSERT_TRUE(Model.has_value());
  EXPECT_EQ(Model->name(), "test");
  EXPECT_EQ(Model->dimension(), 3u);
  EXPECT_NEAR(Model->predict({1.0, 1.0, 0.0}), 1.0, 1e-6);
  EXPECT_GT(Model->trainingR2(), 0.999);
}

TEST(LinearModelTest, EmptyDatasetFails) {
  Dataset Data({"a"});
  EXPECT_FALSE(trainLinearModel(Data, "empty").has_value());
}

TEST(LinearModelTest, SharedScalerPredictionsMatchOwnScaler) {
  // OLS predictions are affine-equivariant: with negligible ridge, the
  // scaler choice must not change predictions.
  Dataset Data = makeLinearDataset(5);
  FeatureScaler Shared = FeatureScaler::fit(Data.rows());
  LinearModelOptions WithShared;
  WithShared.SharedScaler = &Shared;
  auto A = trainLinearModel(Data, "own");
  auto B = trainLinearModel(Data, "shared", WithShared);
  ASSERT_TRUE(A && B);
  Vec Probe = {0.3, -0.7, 1.1};
  EXPECT_NEAR(A->predict(Probe), B->predict(Probe), 1e-6);
}

namespace {

/// A model over \p Dim features with random targets; \p Shared, when
/// set, replaces the fitted scaler.
LinearModel randomModel(Rng &Gen, size_t Dim, const FeatureScaler *Shared) {
  Dataset Data(std::vector<std::string>(Dim, "f"));
  for (int I = 0; I < 60; ++I) {
    Vec X(Dim);
    for (double &V : X)
      V = Gen.uniform(-5.0, 20.0);
    Data.add(std::move(X), Gen.uniform(0.0, 30.0), "g");
  }
  auto Model = trainLinearModel(Data, "m", {1e-3, true, Shared});
  EXPECT_TRUE(Model.has_value());
  return *Model;
}

/// Packs \p K (thread, environment) pairs of random models into a bank and
/// hands every lane's scores, with the models, to \p Check over 200 random
/// probes. \p Scaler picks each model's scaler (null: its own fit).
template <typename CheckFn>
void probeBank(Rng &Gen, size_t K, const FeatureScaler *Scaler,
               CheckFn Check) {
  std::vector<LinearModel> Thread, Env;
  for (size_t L = 0; L < K; ++L) {
    Thread.push_back(randomModel(Gen, 10, Scaler));
    Env.push_back(randomModel(Gen, 10, Scaler));
  }
  std::vector<const LinearModel *> ThreadPtrs, EnvPtrs;
  for (size_t L = 0; L < K; ++L) {
    ThreadPtrs.push_back(&Thread[L]);
    EnvPtrs.push_back(&Env[L]);
  }
  LinearBank<10> Bank;
  ASSERT_TRUE(Bank.pack(ThreadPtrs.data(), EnvPtrs.data(), K));
  ASSERT_EQ(Bank.lanes(), K);
  double ThreadOut[LinearBank<10>::MaxLanes];
  double EnvOut[LinearBank<10>::MaxLanes];
  for (int Probe = 0; Probe < 200; ++Probe) {
    Vec X(10);
    for (double &V : X)
      V = Gen.uniform(-50.0, 80.0);
    Bank.score(X.data(), ThreadOut, EnvOut);
    for (size_t L = 0; L < K; ++L) {
      SCOPED_TRACE("K=" + std::to_string(K) + " lane " + std::to_string(L));
      Check(Thread[L], X, ThreadOut[L]);
      Check(Env[L], X, EnvOut[L]);
      if (::testing::Test::HasFailure())
        return; // One report per broken width, not one per probe.
    }
  }
}

} // namespace

TEST(LinearBankTest, FoldedScoresStayWithinBoundOfPredict) {
  // Every model fits its own scaler, which pack() folds into its weights:
  // each lane of every width stays within 1e-12 of the summed magnitude of
  // predict()'s terms, |b| + sum |w (x - mu) / sigma|.
  Rng Gen(0xB4A7);
  for (size_t K = 1; K <= LinearBank<10>::MaxLanes; ++K)
    probeBank(Gen, K, nullptr,
              [](const LinearModel &M, const Vec &X, double Got) {
                double Magnitude = std::fabs(M.intercept());
                for (size_t I = 0; I < X.size(); ++I)
                  Magnitude += std::fabs(M.weights()[I] *
                                         ((X[I] - M.scaler().means()[I]) /
                                          M.scaler().scales()[I]));
                EXPECT_NEAR(Got, M.predict(X), 1e-12 * Magnitude);
              });
}

TEST(LinearBankTest, IdentityScalerFoldsBitwise) {
  // With mu = 0 and sigma = 1 the fold is exact (w / 1 = w, b - 0 = b), so
  // every lane does predict()'s operations in its order, bit for bit.
  Rng Gen(0xB4A9);
  const FeatureScaler Identity = FeatureScaler::identity(10);
  for (size_t K = 1; K <= LinearBank<10>::MaxLanes; ++K)
    probeBank(Gen, K, &Identity,
              [](const LinearModel &M, const Vec &X, double Got) {
                const double Want = M.predict(X);
                EXPECT_EQ(std::memcmp(&Got, &Want, sizeof(double)), 0);
              });
}

TEST(LinearBankTest, RefusesWhatItCannotPack) {
  Rng Gen(0xB4A8);
  LinearModel A = randomModel(Gen, 10, nullptr);
  LinearModel B = randomModel(Gen, 10, nullptr); // Its own thread scaler.
  LinearModel Narrow = randomModel(Gen, 3, nullptr);
  LinearBank<10> Bank;
  // Thread models with different scalers pack: each lane folds its own.
  const LinearModel *Ok[] = {&A, &A};
  const LinearModel *Unshared[] = {&A, &B};
  EXPECT_TRUE(Bank.pack(Ok, Ok, 2));
  EXPECT_TRUE(Bank.pack(Unshared, Ok, 2));
  EXPECT_EQ(Bank.lanes(), 2u);
  // Refusal empties the bank, so no stale packing survives it.
  const LinearModel *Wrong[] = {&Narrow};
  EXPECT_FALSE(Bank.pack(Wrong, Wrong, 1));
  EXPECT_EQ(Bank.lanes(), 0u);
  const LinearModel *NarrowEnv[] = {&A, &Narrow};
  EXPECT_FALSE(Bank.pack(Ok, NarrowEnv, 2));
  std::vector<const LinearModel *> Nine(9, &A);
  EXPECT_FALSE(Bank.pack(Nine.data(), Nine.data(), 9));
  EXPECT_FALSE(Bank.pack(Ok, Ok, 0));
}

TEST(LinearModelTest, RidgeBiasesTowardMean) {
  Dataset Data = makeLinearDataset(7);
  LinearModelOptions Heavy;
  Heavy.Ridge = 1e6;
  auto Model = trainLinearModel(Data, "heavy", Heavy);
  ASSERT_TRUE(Model.has_value());
  double TargetMean = mean(Data.targets());
  // With overwhelming ridge, every prediction collapses to the mean.
  EXPECT_NEAR(Model->predict({2.0, 2.0, 2.0}), TargetMean, 0.05);
}

namespace {

/// The ridge fit as it was computed from materialised copies: moments over
/// the rows, every row standardised, the design matrix, A^T A and A^T y
/// by Matrix products, then a Cholesky solve and R^2 over the copies.
struct ReferenceFit {
  Vec Means, Scales, Weights;
  double Intercept = 0.0, R2 = 0.0;
};

ReferenceFit referenceRidgeFit(const Dataset &Data, double Ridge,
                               const FeatureScaler *Shared) {
  ReferenceFit Ref;
  size_t N = Data.size(), F = Data.numFeatures();
  if (Shared) {
    Ref.Means = Shared->means();
    Ref.Scales = Shared->scales();
  } else {
    Ref.Means.assign(F, 0.0);
    Ref.Scales.assign(F, 1.0);
    for (const Sample &S : Data.samples())
      for (size_t I = 0; I < F; ++I)
        Ref.Means[I] += S.X[I];
    for (size_t I = 0; I < F; ++I)
      Ref.Means[I] /= static_cast<double>(N);
    Vec Var(F, 0.0);
    for (const Sample &S : Data.samples())
      for (size_t I = 0; I < F; ++I) {
        double D = S.X[I] - Ref.Means[I];
        Var[I] += D * D;
      }
    for (size_t I = 0; I < F; ++I) {
      double Std = std::sqrt(Var[I] / static_cast<double>(N));
      Ref.Scales[I] = Std > 1e-9 ? Std : 1.0;
    }
  }

  std::vector<Vec> Scaled, Augmented;
  for (const Sample &S : Data.samples()) {
    Vec Z(F);
    for (size_t I = 0; I < F; ++I)
      Z[I] = (S.X[I] - Ref.Means[I]) / Ref.Scales[I];
    Scaled.push_back(Z);
    Z.push_back(1.0);
    Augmented.push_back(Z);
  }
  Matrix A = Matrix::fromRows(Augmented);
  Matrix At = A.transposed();
  Matrix Normal = At.multiply(A);
  for (size_t I = 0; I < F; ++I)
    Normal.at(I, I) += Ridge;
  std::optional<Vec> Solution = solveCholesky(Normal, At.apply(Data.targets()));
  EXPECT_TRUE(Solution.has_value());
  if (!Solution)
    return Ref;
  Ref.Weights.assign(Solution->begin(), Solution->begin() + F);
  Ref.Intercept = (*Solution)[F];

  double MeanY = 0.0;
  for (const Sample &S : Data.samples())
    MeanY += S.Y;
  MeanY /= static_cast<double>(N);
  double SsRes = 0.0, SsTot = 0.0;
  for (size_t R = 0; R < N; ++R) {
    double Y = Data.sample(R).Y;
    double E = Y - (dot(Ref.Weights, Scaled[R]) + Ref.Intercept);
    SsRes += E * E;
    SsTot += (Y - MeanY) * (Y - MeanY);
  }
  Ref.R2 = SsTot <= 1e-12 ? (SsRes <= 1e-12 ? 1.0 : 0.0) : 1.0 - SsRes / SsTot;
  return Ref;
}

/// Bitwise equality, so that -0.0 != 0.0 and every last ulp counts.
void expectSameBits(const Vec &A, const Vec &B, const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(std::bit_cast<uint64_t>(A[I]), std::bit_cast<uint64_t>(B[I]))
        << What << "[" << I << "]: " << A[I] << " vs " << B[I];
}

/// \p N rows over \p F features of mixed scales, with a noisy linear target.
Dataset randomRidgeProblem(Rng &Gen, size_t N, size_t F) {
  std::vector<std::string> Names;
  for (size_t I = 0; I < F; ++I)
    Names.push_back("f" + std::to_string(I));
  Dataset Data(Names);
  Vec Truth(F);
  for (double &W : Truth)
    W = Gen.normal(0.0, 2.0);
  for (size_t R = 0; R < N; ++R) {
    Vec X(F);
    for (size_t I = 0; I < F; ++I)
      X[I] = Gen.normal(static_cast<double>(I), 1.0 + 10.0 * I);
    Data.add(X, dot(Truth, X) + Gen.normal(0.0, 3.0), "g");
  }
  return Data;
}

void expectStreamedFitMatchesReference(const Dataset &Data, double Ridge,
                                       const FeatureScaler *Shared) {
  LinearModelOptions Options;
  Options.Ridge = Ridge;
  Options.SharedScaler = Shared;
  std::optional<LinearModel> Model = trainLinearModel(Data, "m", Options);
  ASSERT_TRUE(Model.has_value());
  ReferenceFit Ref = referenceRidgeFit(Data, Ridge, Shared);
  expectSameBits(Model->scaler().means(), Ref.Means, "mean");
  expectSameBits(Model->scaler().scales(), Ref.Scales, "scale");
  expectSameBits(Model->weights(), Ref.Weights, "weight");
  expectSameBits({Model->intercept(), Model->trainingR2()},
                 {Ref.Intercept, Ref.R2}, "intercept, R2");
}

} // namespace

TEST(LinearModelTest, StreamedRidgeFitIsBitIdenticalToMatrixProducts) {
  Rng Gen(0x5E1F);
  for (int Trial = 0; Trial < 12; ++Trial) {
    size_t N = static_cast<size_t>(Gen.uniformInt(20, 420));
    size_t F = static_cast<size_t>(Gen.uniformInt(1, 10));
    Dataset Data = randomRidgeProblem(Gen, N, F);
    double Ridge = Trial % 2 ? 1e-3 : 0.3 * static_cast<double>(N);
    SCOPED_TRACE("trial " + std::to_string(Trial));
    expectStreamedFitMatchesReference(Data, Ridge, nullptr);
  }
}

TEST(LinearModelTest, StreamedRidgeFitSkipsExactZerosLikeMultiply) {
  // A constant column standardises to exactly 0.0 in every row, the entries
  // Matrix::multiply skips.
  Rng Gen(0xC0157);
  Dataset Varied = randomRidgeProblem(Gen, 150, 4);
  Dataset Data(Varied.featureNames());
  for (const Sample &S : Varied.samples()) {
    Vec X = S.X;
    X[2] = 3.25;
    Data.add(X, S.Y, S.Group);
  }
  FeatureScaler Own = FeatureScaler::fit(Data.rows());
  ASSERT_EQ(Own.transform(Data.sample(0).X)[2], 0.0);
  expectStreamedFitMatchesReference(Data, 1e-3, nullptr);
}

TEST(LinearModelTest, StreamedRidgeFitWithSharedScalerIsBitIdentical) {
  Rng Gen(0x5CA1E);
  Dataset Corpus = randomRidgeProblem(Gen, 500, 6);
  FeatureScaler Shared = FeatureScaler::fit(Corpus.rows());
  Dataset Subset = randomRidgeProblem(Gen, 90, 6);
  expectStreamedFitMatchesReference(Subset, 1e-3, &Shared);
}

//===----------------------------------------------------------------------===//
// Cross-validation
//===----------------------------------------------------------------------===//

TEST(CrossValidationTest, PerfectDataScoresPerfectly) {
  Dataset Data = makeLinearDataset(11);
  CrossValidationResult Result = leaveOneGroupOut(Data);
  EXPECT_EQ(Result.NumFolds, 4u);
  EXPECT_EQ(Result.NumSamples, Data.size());
  EXPECT_NEAR(Result.Accuracy, 1.0, 1e-9);
  EXPECT_NEAR(Result.Mae, 0.0, 1e-6);
}

TEST(CrossValidationTest, HeldOutGroupIsExcludedFromTraining) {
  // One adversarial group whose labels contradict the others: CV accuracy
  // on it must be poor, proving it was not trained on.
  Rng R(13);
  Dataset Data({"x"});
  for (int I = 0; I < 50; ++I) {
    double X = R.uniform(-1, 1);
    Data.add({X}, X, "normal");
  }
  for (int I = 0; I < 50; ++I) {
    double X = R.uniform(-1, 1);
    Data.add({X}, 100.0 - X, "adversarial");
  }
  AccuracyOptions Tight;
  Tight.RelativeTolerance = 0.05;
  Tight.AbsoluteTolerance = 0.5;
  CrossValidationResult Result = leaveOneGroupOut(Data, {}, Tight);
  // The adversarial half is unpredictable from the normal half and vice
  // versa, so overall accuracy must be well below 1.
  EXPECT_LT(Result.Accuracy, 0.6);
}

TEST(CrossValidationTest, ModelAccuracyToleranceSemantics) {
  Dataset Data({"x"});
  Data.add({1.0}, 10.0, "g");
  auto Model = trainLinearModel(Data, "m", {1e-3, true, nullptr});
  ASSERT_TRUE(Model.has_value());
  Dataset Probe({"x"});
  Probe.add({1.0}, 10.5, "g"); // Within 20% relative tolerance.
  Probe.add({1.0}, 20.0, "g"); // Outside.
  EXPECT_NEAR(modelAccuracy(*Model, Probe), 0.5, 1e-12);
}

TEST(CrossValidationTest, MaeOnKnownModel) {
  Dataset Train({"x"});
  for (int I = 0; I < 10; ++I)
    Train.add({double(I)}, 2.0 * I, "g");
  auto Model = trainLinearModel(Train, "m");
  ASSERT_TRUE(Model.has_value());
  Dataset Probe({"x"});
  Probe.add({1.0}, 3.0, "h"); // Model predicts 2 -> error 1.
  Probe.add({2.0}, 4.0, "h"); // Model predicts 4 -> error 0.
  EXPECT_NEAR(modelMae(*Model, Probe), 0.5, 1e-6);
}

//===----------------------------------------------------------------------===//
// Feature selection (information gain)
//===----------------------------------------------------------------------===//

TEST(FeatureSelectionTest, InformativeFeatureRanksFirst) {
  Rng R(17);
  Dataset Data({"signal", "noise"});
  for (int I = 0; I < 400; ++I) {
    double S = R.uniform(0, 1);
    Data.add({S, R.uniform(0, 1)}, 10.0 * S, "g");
  }
  auto Ranked = rankFeaturesByInformationGain(Data);
  ASSERT_EQ(Ranked.size(), 2u);
  EXPECT_EQ(Ranked[0].Name, "signal");
  EXPECT_GT(Ranked[0].Gain, Ranked[1].Gain);
}

TEST(FeatureSelectionTest, SelectTopFeaturesPreservesColumnOrder) {
  Rng R(19);
  Dataset Data({"noise1", "signal", "noise2"});
  for (int I = 0; I < 400; ++I) {
    double S = R.uniform(0, 1);
    Data.add({R.uniform(0, 1), S, R.uniform(0, 1)}, 5.0 * S, "g");
  }
  auto [Reduced, Kept] = selectTopFeatures(Data, 2);
  EXPECT_EQ(Reduced.numFeatures(), 2u);
  EXPECT_EQ(Kept.size(), 2u);
  // "signal" must be among the survivors.
  bool HasSignal = false;
  for (const FeatureScore &S : Kept)
    HasSignal |= S.Name == "signal";
  EXPECT_TRUE(HasSignal);
  // Surviving columns stay in original order.
  EXPECT_LT(Kept[0].Index, Kept[1].Index);
}

TEST(FeatureSelectionTest, KLargerThanFeaturesKeepsAll) {
  Dataset Data({"a", "b"});
  for (int I = 0; I < 20; ++I)
    Data.add({double(I), double(-I)}, I, "g");
  auto [Reduced, Kept] = selectTopFeatures(Data, 10);
  EXPECT_EQ(Reduced.numFeatures(), 2u);
  EXPECT_EQ(Kept.size(), 2u);
}

TEST(FeatureSelectionTest, EmptyDatasetYieldsNoScores) {
  Dataset Data({"a"});
  EXPECT_TRUE(rankFeaturesByInformationGain(Data).empty());
}

//===----------------------------------------------------------------------===//
// Feature impact (π)
//===----------------------------------------------------------------------===//

TEST(FeatureImpactTest, CrucialFeatureHasLargestImpact) {
  Rng R(23);
  Dataset Data({"crucial", "noise"});
  for (size_t G = 0; G < 4; ++G)
    for (int I = 0; I < 60; ++I) {
      double S = R.uniform(-1, 1);
      Data.add({S, R.uniform(-1, 1)}, 8.0 * S, "g" + std::to_string(G));
    }
  auto Impacts = computeFeatureImpacts(Data);
  ASSERT_EQ(Impacts.size(), 2u);
  EXPECT_EQ(Impacts[0].Name, "crucial");
  EXPECT_GT(Impacts[0].Normalized, Impacts[1].Normalized);
}

TEST(FeatureImpactTest, NormalizedValuesSumToOne) {
  Dataset Data = makeLinearDataset(29, 4, 30, 0.2);
  auto Impacts = computeFeatureImpacts(Data);
  double Sum = 0.0;
  for (const FeatureImpact &I : Impacts)
    Sum += I.Normalized;
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

TEST(FeatureImpactTest, EmptyDataset) {
  Dataset Data({"a"});
  EXPECT_TRUE(computeFeatureImpacts(Data).empty());
}

//===----------------------------------------------------------------------===//
// k-NN model
//===----------------------------------------------------------------------===//

TEST(KnnModelTest, ExactOnTrainingPoints) {
  Dataset Data({"x", "y"});
  Data.add({0.0, 0.0}, 1.0, "g");
  Data.add({1.0, 0.0}, 2.0, "g");
  Data.add({0.0, 1.0}, 3.0, "g");
  KnnOptions Options;
  Options.K = 1;
  auto Model = trainKnnModel(Data, "knn", Options);
  ASSERT_TRUE(Model.has_value());
  EXPECT_NEAR(Model->predict({1.0, 0.0}), 2.0, 1e-6);
  EXPECT_NEAR(Model->predict({0.0, 1.0}), 3.0, 1e-6);
}

TEST(KnnModelTest, InterpolatesSmoothFunctions) {
  Rng R(31);
  Dataset Data({"x"});
  for (int I = 0; I < 500; ++I) {
    double X = R.uniform(0, 10);
    Data.add({X}, X * X, "g");
  }
  auto Model = trainKnnModel(Data, "knn");
  ASSERT_TRUE(Model.has_value());
  EXPECT_NEAR(Model->predict({5.0}), 25.0, 2.5);
  EXPECT_NEAR(Model->predict({2.0}), 4.0, 2.0);
}

TEST(KnnModelTest, CapturesNonLinearStructureLinearModelsCannot) {
  // y = |x|: a linear model fits slope ~0; k-NN nails it.
  Rng R(37);
  Dataset Data({"x"});
  for (int I = 0; I < 400; ++I) {
    double X = R.uniform(-5, 5);
    Data.add({X}, std::fabs(X), "g");
  }
  auto Knn = trainKnnModel(Data, "knn");
  auto Linear = trainLinearModel(Data, "lin");
  ASSERT_TRUE(Knn && Linear);
  EXPECT_NEAR(Knn->predict({4.0}), 4.0, 0.5);
  EXPECT_NEAR(Knn->predict({-4.0}), 4.0, 0.5);
  EXPECT_LT(Linear->predict({4.0}), 3.2); // The linear fit is near-flat.
}

TEST(KnnModelTest, SubsamplesLargeCorpora) {
  Dataset Data({"x"});
  for (int I = 0; I < 10000; ++I)
    Data.add({double(I)}, double(I), "g");
  KnnOptions Options;
  Options.MaxStoredSamples = 100;
  auto Model = trainKnnModel(Data, "knn", Options);
  ASSERT_TRUE(Model.has_value());
  EXPECT_LE(Model->storedSamples(), 101u);
  // Still roughly correct despite subsampling.
  EXPECT_NEAR(Model->predict({5000.0}), 5000.0, 300.0);
}

TEST(KnnModelTest, RejectsEmptyAndZeroK) {
  Dataset Empty({"x"});
  EXPECT_FALSE(trainKnnModel(Empty, "knn").has_value());
  Dataset One({"x"});
  One.add({1.0}, 1.0, "g");
  KnnOptions Options;
  Options.K = 0;
  EXPECT_FALSE(trainKnnModel(One, "knn", Options).has_value());
}

TEST(KnnModelTest, ConcurrentPredictMatchesSequential) {
  // Every mixture instance shares one trained model, and exp::Driver runs
  // the instances on a thread pool: predictions made on four threads at
  // once must equal, bit for bit, the same predictions made one at a time.
  Rng R(43);
  Dataset Data({"x", "y", "z"});
  for (int I = 0; I < 2000; ++I) {
    double X = R.uniform(-5, 5), Y = R.uniform(-5, 5), Z = R.uniform(-5, 5);
    Data.add({X, Y, Z}, X * Y + std::sin(Z), "g");
  }
  auto Model = trainKnnModel(Data, "knn");
  ASSERT_TRUE(Model.has_value());
  std::vector<Vec> Queries;
  for (int I = 0; I < 1600; ++I)
    Queries.push_back({R.uniform(-5, 5), R.uniform(-5, 5), R.uniform(-5, 5)});

  std::vector<double> Sequential;
  for (const Vec &Q : Queries)
    Sequential.push_back(Model->predict(Q));
  std::vector<double> Concurrent(Queries.size());
  support::ThreadPool Pool(4);
  Pool.parallelFor(Queries.size(), [&](size_t I) {
    Concurrent[I] = Model->predict(Queries[I]);
  });

  size_t Differ = 0;
  for (size_t I = 0; I < Queries.size(); ++I)
    if (std::bit_cast<uint64_t>(Concurrent[I]) !=
        std::bit_cast<uint64_t>(Sequential[I]))
      ++Differ;
  EXPECT_EQ(Differ, 0u) << "of " << Queries.size() << " predictions";
}

//===----------------------------------------------------------------------===//
// Linear epsilon-SVR
//===----------------------------------------------------------------------===//

TEST(SvrModelTest, RecoversLinearSignalWithinTube) {
  Rng R(41);
  Dataset Data({"x0", "x1"});
  for (int I = 0; I < 400; ++I) {
    Vec X = {R.uniform(-2, 2), R.uniform(-2, 2)};
    double Y = 4.0 * X[0] - 2.0 * X[1] + 10.0;
    Data.add(std::move(X), Y, "g");
  }
  SvrOptions Options;
  Options.Epsilon = 0.5;
  Options.Epochs = 60;
  auto Model = trainSvrModel(Data, "svr", Options);
  ASSERT_TRUE(Model.has_value());
  EXPECT_NEAR(Model->predict({1.0, 0.0}), 14.0, 0.8);
  EXPECT_NEAR(Model->predict({0.0, 1.0}), 8.0, 0.8);
  // Most points should be inside the tube after training.
  EXPECT_LT(Model->supportFraction(), 0.5);
}

TEST(SvrModelTest, EpsilonInsensitivityIgnoresSmallNoise) {
  Rng R(43);
  Dataset Data({"x"});
  for (int I = 0; I < 400; ++I) {
    double X = R.uniform(-2, 2);
    Data.add({X}, 3.0 * X + R.uniform(-0.4, 0.4), "g");
  }
  SvrOptions Options;
  Options.Epsilon = 0.5; // Noise fits inside the tube.
  Options.Epochs = 60;
  auto Model = trainSvrModel(Data, "svr", Options);
  ASSERT_TRUE(Model.has_value());
  EXPECT_NEAR(Model->predict({1.0}) - Model->predict({0.0}), 3.0, 0.4);
}

TEST(SvrModelTest, RobustToOutliersWhereLeastSquaresIsNot) {
  // A few wild outliers: squared loss chases them, epsilon loss does not.
  Rng R(47);
  Dataset Data({"x"});
  for (int I = 0; I < 300; ++I) {
    double X = R.uniform(-2, 2);
    Data.add({X}, 2.0 * X, "g");
  }
  for (int I = 0; I < 12; ++I)
    Data.add({R.uniform(-2, 2)}, 500.0, "g"); // Outliers.
  SvrOptions Options;
  Options.Epochs = 60;
  auto Svr = trainSvrModel(Data, "svr", Options);
  auto Ls = trainLinearModel(Data, "ls");
  ASSERT_TRUE(Svr && Ls);
  double SvrError = std::fabs(Svr->predict({1.0}) - 2.0);
  double LsError = std::fabs(Ls->predict({1.0}) - 2.0);
  EXPECT_LT(SvrError, LsError);
  EXPECT_LT(SvrError, 3.0);
}

TEST(SvrModelTest, DeterministicTraining) {
  Dataset Data({"x"});
  Rng R(51);
  for (int I = 0; I < 100; ++I) {
    double X = R.uniform(-1, 1);
    Data.add({X}, X, "g");
  }
  auto A = trainSvrModel(Data, "a");
  auto B = trainSvrModel(Data, "b");
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->weights(), B->weights());
  EXPECT_DOUBLE_EQ(A->intercept(), B->intercept());
}

TEST(SvrModelTest, RejectsEmpty) {
  Dataset Empty({"x"});
  EXPECT_FALSE(trainSvrModel(Empty, "svr").has_value());
}
