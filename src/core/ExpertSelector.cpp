//===-- core/ExpertSelector.cpp - Online expert selection ----------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "core/ExpertSelector.h"

#include "linalg/Vector.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace medley;
using namespace medley::core;

ExpertSelector::ExpertSelector(size_t NumExperts)
    : NumExperts(NumExperts), GateErrors(NumExperts), GateWeights(NumExperts) {
  assert(NumExperts >= 1 && "selector needs at least one expert");
}

ExpertSelector::~ExpertSelector() = default;

size_t ExpertSelector::winnerOf(const Vec &Errors) {
  return winnerOfSpan(Errors.data(), Errors.size());
}

size_t ExpertSelector::winnerOfSpan(const double *Errors, size_t N) {
  assert(N > 0 && "empty error vector");
  return static_cast<size_t>(std::min_element(Errors, Errors + N) - Errors);
}

bool ExpertSelector::blendWeights(const Vec &, Vec &) { return false; }

GateResult ExpertSelector::gate(const Vec &PendingFeatures,
                                const double *Errors, const Vec &Features,
                                bool Soft, double *Weights, size_t &Chosen) {
  if (Errors) {
    std::copy(Errors, Errors + NumExperts, GateErrors.begin());
    update(PendingFeatures, GateErrors);
  }
  if (Soft && blendWeights(Features, GateWeights)) {
    std::copy(GateWeights.begin(), GateWeights.begin() + NumExperts, Weights);
    return GateResult::Blend;
  }
  Chosen = select(Features);
  return GateResult::Single;
}

Vec ExpertSelector::softmaxOfErrors(const Vec &Errors) {
  Vec Weights;
  softmaxOfErrorsInto(Errors.data(), Errors.size(), Weights);
  return Weights;
}

void ExpertSelector::softmaxOfErrorsInto(const double *Errors, size_t N,
                                         Vec &Weights) {
  assert(N > 0 && "empty error vector");
  Weights.resize(N);
  softmaxOfErrorsSpan(Errors, N, Weights.data());
}

//===----------------------------------------------------------------------===//
// HyperplaneSelector
//===----------------------------------------------------------------------===//

HyperplaneSelector::HyperplaneSelector(size_t NumExperts, FeatureScaler Scaler,
                                       double LearningRate)
    : ExpertSelector(NumExperts), Scaler(std::move(Scaler)),
      LearningRate(LearningRate) {
  assert(LearningRate > 0.0 && LearningRate <= 1.0 && "invalid learning rate");
  initBoundaries();
}

void HyperplaneSelector::initBoundaries() {
  // "We initially partition the space evenly": the norm of a standardised
  // d-vector concentrates around sqrt(d), so spread the K regions across
  // [0, 2 sqrt(d)].
  Boundaries.assign(NumExperts > 0 ? NumExperts - 1 : 0, 0.0);
  double Span = 2.0 * std::sqrt(static_cast<double>(Scaler.dimension()));
  for (size_t I = 0; I + 1 < NumExperts; ++I)
    Boundaries[I] = Span * static_cast<double>(I + 1) /
                    static_cast<double>(NumExperts);
}

double HyperplaneSelector::project(const Vec &Features) {
  Scaler.transformInto(Features, ScratchStd);
  return norm2(ScratchStd);
}

size_t HyperplaneSelector::select(const Vec &Features) {
  double S = project(Features);
  // Region k is (Boundaries[k-1], Boundaries[k]]; the last region is open.
  for (size_t K = 0; K + 1 < NumExperts; ++K)
    if (S <= Boundaries[K])
      return K;
  return NumExperts - 1;
}

void HyperplaneSelector::update(const Vec &Features, const Vec &Errors) {
  assert(Errors.size() == NumExperts && "error vector arity mismatch");
  size_t BestExpert = winnerOf(Errors);
  size_t Predicted = select(Features);
  if (Predicted == BestExpert)
    return;

  // Move the boundary between the predicted and correct regions toward the
  // misclassified point so it lands on the correct side next time.
  double S = project(Features);
  if (BestExpert < Predicted) {
    // The point should be in a lower region: raise the boundary below the
    // predicted region above S.
    size_t B = Predicted - 1;
    Boundaries[B] += LearningRate * (S - Boundaries[B]) + 1e-6;
  } else {
    // The point should be in a higher region: push the boundary above the
    // predicted region below S.
    size_t B = Predicted;
    Boundaries[B] += LearningRate * (S - Boundaries[B]) - 1e-6;
  }
  // Keep boundaries ordered.
  for (size_t I = 1; I < Boundaries.size(); ++I)
    Boundaries[I] = std::max(Boundaries[I], Boundaries[I - 1]);
}

void HyperplaneSelector::reset() { initBoundaries(); }

std::unique_ptr<ExpertSelector> HyperplaneSelector::clone() const {
  return std::make_unique<HyperplaneSelector>(NumExperts, Scaler,
                                              LearningRate);
}

const std::string &HyperplaneSelector::name() const {
  static const std::string Name = "hyperplane";
  return Name;
}

//===----------------------------------------------------------------------===//
// PerceptronSelector
//===----------------------------------------------------------------------===//

PerceptronSelector::PerceptronSelector(size_t NumExperts, FeatureScaler Scaler,
                                       double LearningRate)
    : ExpertSelector(NumExperts), Scaler(std::move(Scaler)),
      LearningRate(LearningRate) {
  assert(LearningRate > 0.0 && "invalid learning rate");
  reset();
}

void PerceptronSelector::augmentedInto(const Vec &Features, Vec &X) const {
  // Standardised features with a trailing bias term; same values as
  // Scaler.transform + push_back(1.0), built into a reused buffer.
  size_t D = Scaler.dimension();
  assert(Features.size() == D && "scaler dimension mismatch");
  const Vec &Means = Scaler.means();
  const Vec &Scales = Scaler.scales();
  X.resize(D + 1);
  for (size_t I = 0; I < D; ++I)
    X[I] = (Features[I] - Means[I]) / Scales[I];
  X[D] = 1.0;
}

size_t PerceptronSelector::select(const Vec &Features) {
  if (!Trained) {
    // Before any supervision, fall back to the expert with the most recent
    // wins (all equal initially, so expert 0 — the even initial partition
    // is refined as soon as updates arrive).
    return static_cast<size_t>(
        std::max_element(RecentWins.begin(), RecentWins.end()) -
        RecentWins.begin());
  }
  augmentedInto(Features, ScratchX);
  // One gemv over the flat weight rows scores every expert; each row
  // accumulates like dot(), so the scores match the per-row dots bitwise.
  gemv(FlatWeights, NumExperts, ScratchX.size(), ScratchX, ScratchScores);
  size_t Best = 0;
  double BestScore = ScratchScores[0];
  for (size_t K = 1; K < NumExperts; ++K) {
    double Score = ScratchScores[K];
    if (Score > BestScore) {
      BestScore = Score;
      Best = K;
    }
  }
  return Best;
}

void PerceptronSelector::update(const Vec &Features, const Vec &Errors) {
  assert(Errors.size() == NumExperts && "error vector arity mismatch");
  size_t BestExpert = winnerOf(Errors);
  for (size_t K = 0; K < NumExperts; ++K)
    RecentWins[K] = 0.95 * RecentWins[K] + (K == BestExpert ? 0.05 : 0.0);

  size_t Predicted = select(Features);
  Trained = true;
  if (Predicted == BestExpert)
    return;

  // Standard multiclass perceptron step, applied to the flat rows.
  augmentedInto(Features, ScratchX);
  size_t Stride = ScratchX.size();
  axpySpan(FlatWeights.data() + BestExpert * Stride, LearningRate,
           ScratchX.data(), Stride);
  axpySpan(FlatWeights.data() + Predicted * Stride, -LearningRate,
           ScratchX.data(), Stride);
}

void PerceptronSelector::reset() {
  FlatWeights.assign(NumExperts * (Scaler.dimension() + 1), 0.0);
  RecentWins.assign(NumExperts, 1.0 / static_cast<double>(NumExperts));
  Trained = false;
}

std::unique_ptr<ExpertSelector> PerceptronSelector::clone() const {
  return std::make_unique<PerceptronSelector>(NumExperts, Scaler,
                                              LearningRate);
}

const std::string &PerceptronSelector::name() const {
  static const std::string Name = "perceptron";
  return Name;
}

//===----------------------------------------------------------------------===//
// AccuracySelector
//===----------------------------------------------------------------------===//

AccuracySelector::AccuracySelector(size_t NumExperts, double Alpha)
    : ExpertSelector(NumExperts), Alpha(Alpha) {
  assert(Alpha > 0.0 && Alpha <= 1.0 && "invalid EMA step");
  reset();
}

size_t AccuracySelector::select(const Vec &) {
  return winnerOf(ErrorEma);
}

void AccuracySelector::update(const Vec &, const Vec &Errors) {
  assert(Errors.size() == NumExperts && "error vector arity mismatch");
  if (!Trained) {
    ErrorEma = Errors;
    Trained = true;
    return;
  }
  for (size_t K = 0; K < NumExperts; ++K)
    ErrorEma[K] += Alpha * (Errors[K] - ErrorEma[K]);
}

bool AccuracySelector::blendWeights(const Vec &, Vec &Weights) {
  if (!Trained)
    return false;
  softmaxOfErrorsInto(ErrorEma.data(), ErrorEma.size(), Weights);
  return true;
}

void AccuracySelector::reset() {
  ErrorEma.assign(NumExperts, 0.0);
  Trained = false;
}

std::unique_ptr<ExpertSelector> AccuracySelector::clone() const {
  return std::make_unique<AccuracySelector>(NumExperts, Alpha);
}

const std::string &AccuracySelector::name() const {
  static const std::string Name = "accuracy";
  return Name;
}

//===----------------------------------------------------------------------===//
// BinnedAccuracySelector
//===----------------------------------------------------------------------===//

BinnedAccuracySelector::BinnedAccuracySelector(size_t NumExperts,
                                               FeatureScaler Scaler,
                                               size_t NumBins, double Alpha)
    : ExpertSelector(NumExperts), Scaler(std::move(Scaler)), NumBins(NumBins),
      Alpha(Alpha) {
  assert(NumBins >= 1 && "need at least one bin");
  assert(Alpha > 0.0 && Alpha <= 1.0 && "invalid EMA step");
  reset();
}

size_t BinnedAccuracySelector::binOf(const Vec &Features) {
  // The norm of a standardised d-vector concentrates around sqrt(d); map
  // [0, 2 sqrt(d)) onto the bins.
  double Span = 2.0 * std::sqrt(static_cast<double>(Scaler.dimension()));
  Scaler.transformInto(Features, ScratchStd);
  double S = norm2(ScratchStd);
  auto Bin = static_cast<size_t>(S / Span * static_cast<double>(NumBins));
  return std::min(Bin, NumBins - 1);
}

size_t BinnedAccuracySelector::select(const Vec &Features) {
  if (!Trained)
    return 0;
  size_t Bin = binOf(Features);
  return winnerOfSpan(BinTouched[Bin] ? FlatBinErrors.data() + Bin * NumExperts
                                      : GlobalErrors.data(),
                      NumExperts);
}

void BinnedAccuracySelector::update(const Vec &Features, const Vec &Errors) {
  assert(Errors.size() == NumExperts && "error vector arity mismatch");
  size_t Bin = binOf(Features);
  if (!Trained) {
    GlobalErrors = Errors;
    Trained = true;
  } else {
    for (size_t K = 0; K < NumExperts; ++K)
      GlobalErrors[K] += Alpha * (Errors[K] - GlobalErrors[K]);
  }
  double *Row = FlatBinErrors.data() + Bin * NumExperts;
  if (!BinTouched[Bin]) {
    for (size_t K = 0; K < NumExperts; ++K)
      Row[K] = Errors[K];
    BinTouched[Bin] = true;
    return;
  }
  for (size_t K = 0; K < NumExperts; ++K)
    Row[K] += Alpha * (Errors[K] - Row[K]);
}

bool BinnedAccuracySelector::blendWeights(const Vec &Features, Vec &Weights) {
  if (!Trained)
    return false;
  size_t Bin = binOf(Features);
  softmaxOfErrorsInto(BinTouched[Bin] ? FlatBinErrors.data() + Bin * NumExperts
                                      : GlobalErrors.data(),
                      NumExperts, Weights);
  return true;
}

void BinnedAccuracySelector::reset() {
  FlatBinErrors.assign(NumBins * NumExperts, 0.0);
  BinTouched.assign(NumBins, false);
  GlobalErrors.assign(NumExperts, 0.0);
  Trained = false;
}

std::unique_ptr<ExpertSelector> BinnedAccuracySelector::clone() const {
  return std::make_unique<BinnedAccuracySelector>(NumExperts, Scaler, NumBins,
                                                  Alpha);
}

const std::string &BinnedAccuracySelector::name() const {
  static const std::string Name = "binned-accuracy";
  return Name;
}

//===----------------------------------------------------------------------===//
// RegimeSelector
//===----------------------------------------------------------------------===//

RegimeSelector::RegimeSelector(std::vector<int> RegimeTags, double Alpha)
    : ExpertSelector(RegimeTags.size()), RegimeTags(std::move(RegimeTags)),
      Alpha(Alpha) {
  assert(Alpha > 0.0 && Alpha <= 1.0 && "invalid EMA step");
  // The state is sized for the scoring bank's lanes; every caller builds
  // 1, 2, 4 or 8 experts.
  if (NumExperts == 0 || NumExperts > MaxExperts)
    reportFatalError("regime gate over " + std::to_string(NumExperts) +
                     " experts; it takes 1 to " + std::to_string(MaxExperts));
  // The tags never change, so each regime's candidates (the experts whose
  // tag fits it, or all of them if none does) are listed once, here.
  for (int Want = 0; Want < 2; ++Want) {
    Regime &R = Regimes[Want];
    for (size_t K = 0; K < NumExperts; ++K)
      if (this->RegimeTags[K] == Want || this->RegimeTags[K] == -1)
        R.Experts[R.Count++] = K;
    if (R.Count == 0)
      for (size_t K = 0; K < NumExperts; ++K)
        R.Experts[R.Count++] = K;
    R.Slot.fill(-1);
    for (size_t I = 0; I < R.Count; ++I)
      R.Slot[R.Experts[I]] = static_cast<int>(I);
  }
  reset();
}

size_t RegimeSelector::select(const Vec &Features) {
  const Regime &R = Regimes[contended(Features)];
  size_t Best = R.Experts[0];
  for (size_t I = 0; I < R.Count; ++I)
    if (ErrorEma[R.Experts[I]] < ErrorEma[Best])
      Best = R.Experts[I];
  return Best;
}

void RegimeSelector::update(const Vec &, const Vec &Errors) {
  assert(Errors.size() == NumExperts && "error vector arity mismatch");
  fold(Errors.data());
}

bool RegimeSelector::blendWeights(const Vec &Features, Vec &Weights) {
  if (!Trained)
    return false;
  Weights.resize(NumExperts);
  blendInto(Features, Weights.data());
  return true;
}

void RegimeSelector::reset() {
  ErrorEma.fill(0.0);
  Trained = false;
}

std::unique_ptr<ExpertSelector> RegimeSelector::clone() const {
  return std::make_unique<RegimeSelector>(RegimeTags, Alpha);
}

const std::string &RegimeSelector::name() const {
  static const std::string Name = "regime";
  return Name;
}

//===----------------------------------------------------------------------===//
// RandomSelector
//===----------------------------------------------------------------------===//

RandomSelector::RandomSelector(size_t NumExperts, uint64_t Seed)
    : ExpertSelector(NumExperts), Seed(Seed), Generator(Seed) {}

size_t RandomSelector::select(const Vec &) {
  return static_cast<size_t>(
      Generator.uniformInt(0, static_cast<int64_t>(NumExperts) - 1));
}

void RandomSelector::update(const Vec &, const Vec &) {}

void RandomSelector::reset() { Generator = Rng(Seed); }

std::unique_ptr<ExpertSelector> RandomSelector::clone() const {
  return std::make_unique<RandomSelector>(NumExperts, Seed);
}

const std::string &RandomSelector::name() const {
  static const std::string Name = "random";
  return Name;
}

//===----------------------------------------------------------------------===//
// FixedSelector
//===----------------------------------------------------------------------===//

FixedSelector::FixedSelector(size_t NumExperts, size_t Index)
    : ExpertSelector(NumExperts), Index(Index) {
  assert(Index < NumExperts && "fixed expert index out of range");
}

size_t FixedSelector::select(const Vec &) { return Index; }

void FixedSelector::update(const Vec &, const Vec &) {}

std::unique_ptr<ExpertSelector> FixedSelector::clone() const {
  return std::make_unique<FixedSelector>(NumExperts, Index);
}

const std::string &FixedSelector::name() const {
  static const std::string Name = "fixed";
  return Name;
}
