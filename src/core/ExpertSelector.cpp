//===-- core/ExpertSelector.cpp - Online expert selection ----------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "core/ExpertSelector.h"

#include "linalg/Vector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace medley;
using namespace medley::core;

ExpertSelector::ExpertSelector(size_t NumExperts) : NumExperts(NumExperts) {
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

bool ExpertSelector::isQuarantined(size_t) const { return false; }

bool ExpertSelector::allQuarantined() const { return false; }

Vec ExpertSelector::softmaxOfErrors(const Vec &Errors) {
  Vec Weights;
  softmaxOfErrorsInto(Errors.data(), Errors.size(), Weights);
  return Weights;
}

void ExpertSelector::softmaxOfErrorsInto(const double *Errors, size_t N,
                                         Vec &Weights) {
  assert(N > 0 && "empty error vector");
  // Mean and minimum in one pass: the sum accumulates in index order
  // exactly as before, and the running minimum is comparison-only, so the
  // fusion cannot change any result bit.
  double Mean = Errors[0];
  double MinError = Errors[0];
  for (size_t K = 1; K < N; ++K) {
    Mean += Errors[K];
    if (Errors[K] < MinError)
      MinError = Errors[K];
  }
  Mean /= static_cast<double>(N);
  double Tau = std::max(1e-9, 0.3 * Mean);

  Weights.resize(N);
  double Sum = 0.0;
  for (size_t K = 0; K < N; ++K) {
    const double Gap = Errors[K] - MinError;
    // An error equal to the minimum gives exp(-0.0 / Tau) == 1.0 exactly,
    // so the call is skipped. The test must be exact: a tolerance would
    // change bits, and testing the minimum's index instead would turn a
    // NaN gap (a NaN first error) into 1.0 rather than NaN.
    // medley-lint: allow(float-equality) exact zero gap, see above
    Weights[K] = Gap == 0.0 ? 1.0 : std::exp(-Gap / Tau);
    Sum += Weights[K];
  }
  for (double &W : Weights)
    W /= Sum;
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
  // The tags never change, so each regime's candidates (the experts whose
  // tag fits it, or all of them if none does) are listed once, here.
  for (int Want = 0; Want < 2; ++Want) {
    std::vector<size_t> &Matching = Candidates[Want];
    for (size_t K = 0; K < NumExperts; ++K)
      if (this->RegimeTags[K] == Want || this->RegimeTags[K] == -1)
        Matching.push_back(K);
    if (Matching.empty())
      for (size_t K = 0; K < NumExperts; ++K)
        Matching.push_back(K);
  }
  reset();
}

bool RegimeSelector::contended(const Vec &Features) {
  // f6 (runq-sz) vs f5 (processors); see policy::featureNames().
  assert(Features.size() >= 6 && "feature vector too short");
  return Features[5] > Features[4];
}

size_t RegimeSelector::select(const Vec &Features) {
  const std::vector<size_t> &Matching = Candidates[contended(Features)];
  size_t Best = Matching.front();
  for (size_t K : Matching)
    if (ErrorEma[K] < ErrorEma[Best])
      Best = K;
  return Best;
}

void RegimeSelector::update(const Vec &, const Vec &Errors) {
  assert(Errors.size() == NumExperts && "error vector arity mismatch");
  if (!Trained) {
    ErrorEma = Errors;
    Trained = true;
    return;
  }
  for (size_t K = 0; K < NumExperts; ++K)
    ErrorEma[K] += Alpha * (Errors[K] - ErrorEma[K]);
}

bool RegimeSelector::blendWeights(const Vec &Features, Vec &Weights) {
  if (!Trained)
    return false;
  const std::vector<size_t> &Matching = Candidates[contended(Features)];
  // Gather the candidates' EMAs into the front of Weights, which is about
  // to be overwritten anyway, and take their softmax.
  Weights.resize(NumExperts);
  for (size_t I = 0; I < Matching.size(); ++I)
    Weights[I] = ErrorEma[Matching[I]];
  softmaxOfErrorsInto(Weights.data(), Matching.size(), ScratchInner);
  std::fill(Weights.begin(), Weights.end(), 0.0);
  for (size_t I = 0; I < Matching.size(); ++I)
    Weights[Matching[I]] = ScratchInner[I];
  return true;
}

void RegimeSelector::reset() {
  ErrorEma.assign(NumExperts, 0.0);
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
// QuarantineSelector
//===----------------------------------------------------------------------===//

QuarantineSelector::QuarantineSelector(std::unique_ptr<ExpertSelector> Inner,
                                       QuarantineOptions Options,
                                       support::FaultStats *Stats)
    : ExpertSelector(Inner->numExperts()), Inner(std::move(Inner)),
      Options(Options), Stats(Stats),
      Name("quarantine:" + this->Inner->name()) {
  assert(Options.DivergenceFactor > 1.0 && "divergence factor must exceed 1");
  assert(Options.Strikes >= 1 && "need at least one strike");
  assert(Options.BackoffUpdates >= 1 && "backoff must be positive");
  States.assign(NumExperts, ExpertState());
}

bool QuarantineSelector::isQuarantined(size_t Expert) const {
  assert(Expert < NumExperts && "expert index out of range");
  return States[Expert].QuarantineRemaining > 0;
}

bool QuarantineSelector::allQuarantined() const {
  for (const ExpertState &S : States)
    if (S.QuarantineRemaining == 0)
      return false;
  return true;
}

size_t QuarantineSelector::healthyCount() const {
  size_t Healthy = 0;
  for (const ExpertState &S : States)
    if (S.QuarantineRemaining == 0)
      ++Healthy;
  return Healthy;
}

size_t QuarantineSelector::bestHealthy() const {
  size_t Best = SIZE_MAX;
  for (size_t K = 0; K < NumExperts; ++K) {
    if (States[K].QuarantineRemaining > 0)
      continue;
    if (Best == SIZE_MAX || States[K].ErrorEma < States[Best].ErrorEma)
      Best = K;
  }
  return Best;
}

size_t QuarantineSelector::select(const Vec &Features) {
  size_t Chosen = Inner->select(Features);
  if (!isQuarantined(Chosen))
    return Chosen;
  // The inner model wants a quarantined expert: redirect to the healthy
  // expert with the best recent error. With everything quarantined there
  // is nothing to redirect to; the mixture detects that via
  // allQuarantined() and falls back to default behaviour.
  size_t Fallback = bestHealthy();
  return Fallback == SIZE_MAX ? Chosen : Fallback;
}

void QuarantineSelector::update(const Vec &Features, const Vec &Errors) {
  assert(Errors.size() == NumExperts && "error vector arity mismatch");

  // Median of the finite errors — the yardstick a diverging expert is
  // measured against. A wholly non-finite update strikes everyone.
  ScratchFinite.clear();
  for (double E : Errors)
    if (std::isfinite(E))
      // medley-lint: allow(hotpath-escape) — amortized sticky scratch.
      ScratchFinite.push_back(E);
  double Median = 0.0;
  if (!ScratchFinite.empty()) {
    std::sort(ScratchFinite.begin(), ScratchFinite.end());
    Median = ScratchFinite[ScratchFinite.size() / 2];
  }
  double StrikeThreshold =
      std::max(Options.DivergenceFactor * Median, Options.AbsoluteErrorFloor);
  // Non-finite errors reach the inner selector as a large finite penalty
  // so its own EMA/weights stay finite.
  double Penalty =
      2.0 * std::max(ScratchFinite.empty() ? 0.0 : ScratchFinite.back(),
                     StrikeThreshold);

  Vec &Sanitized = ScratchSanitized;
  Sanitized = Errors;
  for (size_t K = 0; K < NumExperts; ++K) {
    ExpertState &S = States[K];
    bool Diverged = !std::isfinite(Errors[K]) || Errors[K] > StrikeThreshold;
    if (!std::isfinite(Errors[K]))
      Sanitized[K] = Penalty;

    double Observed = Sanitized[K];
    S.ErrorEma = S.Seen ? S.ErrorEma + 0.3 * (Observed - S.ErrorEma)
                        : Observed;
    S.Seen = true;

    if (S.QuarantineRemaining > 0) {
      // Serving a sentence: count down toward timed re-admission.
      if (--S.QuarantineRemaining == 0) {
        S.ConsecutiveStrikes = 0;
        if (Stats)
          ++Stats->Readmissions;
      }
      continue;
    }

    if (!Diverged) {
      S.ConsecutiveStrikes = 0;
      continue;
    }
    if (++S.ConsecutiveStrikes < Options.Strikes)
      continue;

    // Three strikes (by default): quarantine with exponential backoff.
    if (S.NextBackoff == 0)
      S.NextBackoff = Options.BackoffUpdates;
    S.QuarantineRemaining = S.NextBackoff;
    S.NextBackoff = std::min(2 * S.NextBackoff, Options.MaxBackoffUpdates);
    S.ConsecutiveStrikes = 0;
    if (Stats)
      ++Stats->Quarantines;
  }

  Inner->update(Features, Sanitized);
}

bool QuarantineSelector::blendWeights(const Vec &Features, Vec &Weights) {
  if (!Inner->blendWeights(Features, Weights))
    return false;
  // Mask out quarantined experts and renormalise what remains.
  double Sum = 0.0;
  for (size_t K = 0; K < NumExperts; ++K) {
    if (isQuarantined(K))
      Weights[K] = 0.0;
    Sum += Weights[K];
  }
  if (Sum <= 0.0)
    return false; // Everything quarantined: no usable blend.
  for (double &W : Weights)
    W /= Sum;
  return true;
}

void QuarantineSelector::reset() {
  Inner->reset();
  States.assign(NumExperts, ExpertState());
}

std::unique_ptr<ExpertSelector> QuarantineSelector::clone() const {
  // Clones are per-run copies handed out by factories; they do not share
  // the (non-thread-safe) stats sink.
  return std::make_unique<QuarantineSelector>(Inner->clone(), Options,
                                              nullptr);
}

const std::string &QuarantineSelector::name() const { return Name; }

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
