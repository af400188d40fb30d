//===-- core/MixtureOfExperts.cpp - The mixture policy -------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "core/MixtureOfExperts.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace medley;
using namespace medley::core;

MixtureOfExperts::MixtureOfExperts(
    std::shared_ptr<const std::vector<Expert>> Experts,
    std::unique_ptr<ExpertSelector> Selector, std::shared_ptr<MoeStats> Stats,
    MixtureOptions Options)
    : Experts(std::move(Experts)), Selector(std::move(Selector)),
      Stats(std::move(Stats)), Options(Options) {
  assert(this->Experts && !this->Experts->empty() &&
         "mixture needs at least one expert");
  assert(this->Selector &&
         this->Selector->numExperts() == this->Experts->size() &&
         "selector arity must match the expert count");
  assert(!this->Stats || this->Stats->numExperts() == this->Experts->size());

  bindExpertViews();
}

void MixtureOfExperts::bindExpertViews() {
  const size_t K = Experts->size();
  AnyEnvObserver = false;
  PendingEnvPredictions.resize(K);
  ScratchErrors.resize(K);
  ScratchThreadPreds.resize(K);

  // Pack linear experts, at most the bank's lanes of them, into the
  // scoring bank; other sets (external experts, more than 8) are scored one
  // by one. Swap boundary only: the ctor and rebindExperts reach here,
  // never the steady decision path.
  std::array<const LinearModel *, ExpertBank::MaxLanes> Thread{}, Env{};
  bool Linear = K <= ExpertBank::MaxLanes;
  for (size_t I = 0; I < K; ++I) {
    const Expert &E = (*Experts)[I];
    if (E.hasEnvObserver())
      AnyEnvObserver = true;
    Linear = Linear && E.threadModel() && E.envModel();
    if (Linear) {
      Thread[I] = E.threadModel();
      Env[I] = E.envModel();
    }
  }
  if (!Linear || !Bank.pack(Thread.data(), Env.data(), K))
    Bank.clear();
}

bool MixtureOfExperts::rebindExperts(
    std::shared_ptr<const std::vector<Expert>> NewExperts) {
  if (!NewExperts || NewExperts->size() != Experts->size())
    return false;
  Experts = std::move(NewExperts);
  // Pending env predictions priced the previous expert set; judging the
  // new experts against them would charge them for models they never ran.
  HasPending = false;
  bindExpertViews();
  return true;
}

void MixtureOfExperts::readmitQuarantined() {
  if (auto *Guarded = dynamic_cast<QuarantineSelector *>(Selector.get()))
    Guarded->readmitAll();
}

unsigned
MixtureOfExperts::expertThreads(size_t K,
                                const policy::FeatureVector &Features) const {
  // The banked score is the thread model's prediction with its scaler
  // folded in; it may differ from predict() in the last bits, which the
  // rounding absorbs (DESIGN.md §11).
  return Bank.lanes() ? policy::roundThreads(RawThreads[K], Features.MaxThreads)
                      : (*Experts)[K].predictThreads(Features);
}

void MixtureOfExperts::stashPending(const policy::FeatureVector &Features,
                                    size_t Chosen) {
  PendingFeatures = Features.Values;
  if (!Bank.lanes())
    for (size_t K = 0; K < Experts->size(); ++K)
      PendingEnvPredictions[K] = (*Experts)[K].predictEnvNorm(Features);
  PendingChosen = Chosen;
  HasPending = true;
}

void MixtureOfExperts::judgePreviousDecision(
    const policy::FeatureVector &Features) {
  if (!HasPending)
    return;

  // How far off was each expert's environment prediction made at the
  // previous region, now that the environment is observable?
  double Observed = Features.EnvNorm;
  for (size_t K = 0; K < PendingEnvPredictions.size(); ++K)
    ScratchErrors[K] = std::fabs(PendingEnvPredictions[K] - Observed);
  Selector->update(PendingFeatures, ScratchErrors);

  // Experts that learn their environment model online (Section 4.1's
  // retrofit path) receive the realised observation.
  if (AnyEnvObserver)
    for (const Expert &E : *Experts)
      E.observeEnvironment(PendingFeatures, Observed);

  if (Stats) {
    double Tolerance =
        Options.EnvAccuracyTolerance * std::max(Observed, 1e-6);
    for (size_t K = 0; K < PendingEnvPredictions.size(); ++K) {
      bool Accurate =
          std::fabs(PendingEnvPredictions[K] - Observed) <= Tolerance;
      ++Stats->EnvTotal[K];
      if (Accurate)
        ++Stats->EnvAccurate[K];
    }
    ++Stats->MixtureEnvTotal;
    if (std::fabs(PendingEnvPredictions[PendingChosen] - Observed) <=
        Tolerance)
      ++Stats->MixtureEnvAccurate;
  }
  HasPending = false;
}

unsigned MixtureOfExperts::select(const policy::FeatureVector &Features) {
  judgePreviousDecision(Features);

  if (Options.Faults && Features.SanitizedCount > 0)
    Options.Faults->SanitizedValues += Features.SanitizedCount;

  // Linear experts: one bank pass scores every thread and environment
  // model (the judge above has already read the previous predictions).
  // The per-expert path below computes its environment predictions after
  // the thread predictions, in the order Expert's callbacks always ran.
  if (Bank.lanes()) {
    assert(Features.Values.size() == policy::NumFeatures &&
           "bank scoring needs the 10-feature vector");
    Bank.score(Features.Values.data(), RawThreads.data(),
               PendingEnvPredictions.data());
    // Expert::predictEnvNorm clamps the raw prediction at zero.
    for (size_t K = 0; K < Experts->size(); ++K)
      PendingEnvPredictions[K] = std::max(0.0, PendingEnvPredictions[K]);
  }

  if (Selector->allQuarantined()) {
    // The ladder's floor: every expert's environment predictor has
    // diverged, so no expert can be trusted. Degrade to exactly the
    // OpenMP-default behaviour (n = available processors) while the
    // quarantine backoffs run down; judging continues below, so experts
    // are re-admitted and the mixture resumes automatically.
    if (Options.Faults)
      ++Options.Faults->DefaultFallbacks;
    unsigned Threads =
        policy::roundThreads(Features.Values[4], Features.MaxThreads);
    stashPending(Features, LastExpert);
    return Threads;
  }

  size_t Chosen;
  unsigned Threads;
  bool HaveThreadPreds = false;
  Vec &Weights = ScratchWeights;
  if (Options.SoftBlend &&
      Selector->blendWeights(Features.Values, Weights)) {
    // Soft gating: accuracy-weighted blend of the expert predictions.
    double Blend = 0.0;
    double BestWeight = -1.0;
    Chosen = 0;
    for (size_t K = 0; K < Experts->size(); ++K) {
      unsigned N = expertThreads(K, Features);
      ScratchThreadPreds[K] = N;
      Blend += Weights[K] * static_cast<double>(N);
      if (Weights[K] > BestWeight) {
        BestWeight = Weights[K];
        Chosen = K;
      }
    }
    HaveThreadPreds = true;
    Threads = policy::roundThreads(Blend, Features.MaxThreads);
  } else {
    Chosen = Selector->select(Features.Values);
    assert(Chosen < Experts->size() && "selector returned a bad index");
    Threads = expertThreads(Chosen, Features);
  }
  LastExpert = Chosen;

  // Stash this decision's environment predictions; they are judged at the
  // next region, which is the paper's next timestamp.
  stashPending(Features, Chosen);

  if (Stats) {
    ++Stats->SelectionCounts[Chosen];
    Stats->MixtureThreads.add(Threads);
    // predictThreads is pure, so the per-expert predictions cached by the
    // blend loop above are exactly what a recomputation would produce.
    if (!HaveThreadPreds)
      for (size_t K = 0; K < Experts->size(); ++K)
        ScratchThreadPreds[K] = expertThreads(K, Features);
    for (size_t K = 0; K < Experts->size(); ++K)
      Stats->ExpertThreads[K].add(ScratchThreadPreds[K]);
  }
  return Threads;
}

void MixtureOfExperts::reset() {
  Selector->reset();
  HasPending = false;
  LastExpert = 0;
}

const std::string &MixtureOfExperts::name() const {
  static const std::string Name = "mixture";
  return Name;
}
