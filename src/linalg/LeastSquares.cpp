//===-- linalg/LeastSquares.cpp - Linear regression ---------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "linalg/LeastSquares.h"

#include "linalg/Solve.h"

#include <algorithm>
#include <cmath>

using namespace medley;

RowStream medley::streamRows(const std::vector<Vec> &X, const Vec &Y) {
  assert((Y.empty() || Y.size() == X.size()) && "one target per row");
  return {X.size(), X.empty() ? 0 : X.front().size(),
          [&X, &Y](const RowVisitor &Visit) {
            for (size_t I = 0; I < X.size(); ++I)
              Visit(X[I], Y.empty() ? 0.0 : Y[I]);
          }};
}

double LinearFit::predict(const Vec &X) const {
  return dot(Weights, X) + Intercept;
}

static double computeR2(const RowStream &Rows, double MeanY,
                        const LinearFit &Fit) {
  double SsRes = 0.0, SsTot = 0.0;
  Rows.ForEach([&](const Vec &X, double Y) {
    double E = Y - Fit.predict(X);
    SsRes += E * E;
    SsTot += (Y - MeanY) * (Y - MeanY);
  });
  if (SsTot <= 1e-12)
    return SsRes <= 1e-12 ? 1.0 : 0.0;
  return 1.0 - SsRes / SsTot;
}

std::optional<LinearFit>
medley::fitLeastSquares(const RowStream &Rows, LeastSquaresOptions Options) {
  if (Rows.Rows == 0)
    return std::nullopt;
  size_t NumFeatures = Rows.Features;
  size_t NumCols = NumFeatures + (Options.FitIntercept ? 1 : 0);
  // One row of the design matrix: X, then the intercept's constant 1.0.
  Vec Row(NumCols, 1.0);
  auto augment = [&](const Vec &X) -> const Vec & {
    assert(X.size() == NumFeatures && "ragged design matrix");
    std::copy(X.begin(), X.end(), Row.begin());
    return Row;
  };
  double SumY = 0.0;

  std::optional<Vec> Solution;
  if (Options.Ridge <= 0.0 && Rows.Rows >= NumCols) {
    // Householder QR needs the design matrix itself: the one copy a fit
    // makes, on the ordinary least-squares path only.
    Matrix A(Rows.Rows, NumCols);
    Vec Y(Rows.Rows);
    size_t R = 0;
    Rows.ForEach([&](const Vec &X, double Target) {
      const Vec &Aug = augment(X);
      for (size_t C = 0; C < NumCols; ++C)
        A.at(R, C) = Aug[C];
      Y[R++] = Target;
      SumY += Target;
    });
    assert(R == Rows.Rows && "stream delivered the wrong row count");
    Solution = solveLeastSquaresQr(A, Y);
  }

  if (!Solution) {
    // Ridge (or fallback-ridge) path via regularised normal equations,
    // summed one row at a time. Every entry of A^T A and A^T y gets its
    // terms in row order, skipping exact zeros of A^T as multiply() does:
    // the very sums Matrix::multiply and Matrix::apply form, so the solve
    // sees the same bits. Only the lower triangle is summed, because
    // solveCholesky reads nothing else.
    double Lambda = Options.Ridge > 0.0 ? Options.Ridge : 1e-6;
    Matrix Normal(NumCols, NumCols);
    Vec Atb(NumCols, 0.0);
    SumY = 0.0;
    Rows.ForEach([&](const Vec &X, double Y) {
      const Vec &Aug = augment(X);
      for (size_t I = 0; I < NumCols; ++I) {
        double A = Aug[I];
        Atb[I] += A * Y;
        // Exact zero-skip, as in multiply(): only a true 0.0 contributes
        // nothing. medley-lint: allow(float-equality)
        if (A == 0.0)
          continue;
        for (size_t J = 0; J <= I; ++J)
          Normal.at(I, J) += A * Aug[J];
      }
      SumY += Y;
    });
    for (size_t I = 0; I < NumFeatures; ++I) // Never regularise the intercept.
      Normal.at(I, I) += Lambda;
    Solution = solveCholesky(Normal, Atb);
    if (!Solution)
      return std::nullopt;
  }

  LinearFit Fit;
  Fit.Weights.assign(Solution->begin(), Solution->begin() + NumFeatures);
  Fit.Intercept = Options.FitIntercept ? (*Solution)[NumFeatures] : 0.0;
  Fit.R2 = computeR2(Rows, SumY / static_cast<double>(Rows.Rows), Fit);
  return Fit;
}

std::optional<LinearFit>
medley::fitLeastSquares(const std::vector<Vec> &X, const Vec &Y,
                        LeastSquaresOptions Options) {
  if (X.empty() || X.size() != Y.size())
    return std::nullopt;
  return fitLeastSquares(streamRows(X, Y), Options);
}
