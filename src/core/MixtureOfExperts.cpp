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

namespace {

/// Relative tolerance for counting an environment prediction "accurate"
/// in the Fig-15a bookkeeping (selection always uses the closest
/// prediction, whatever its error).
constexpr double EnvAccuracyTolerance = 0.2;

} // namespace

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

  const size_t K = this->Experts->size();
  PendingEnvPredictions.resize(K);
  if (K > ExpertBank::MaxLanes)
    WideScratch.resize(2 * K);
  Regime = dynamic_cast<RegimeSelector *>(this->Selector.get());

  // Pack linear experts, at most the bank's lanes of them, into the
  // scoring bank; other sets (external experts, more than 8) are scored one
  // by one.
  std::array<const LinearModel *, ExpertBank::MaxLanes> Thread{}, Env{};
  bool Linear = K <= ExpertBank::MaxLanes;
  for (size_t I = 0; I < K; ++I) {
    const Expert &E = (*this->Experts)[I];
    if (const OnlineEnvModel *Prior = E.onlineEnvPrior())
      OnlineEnv.emplace_back(I, *Prior);
    Linear = Linear && E.threadModel() && E.envModel();
    if (Linear) {
      Thread[I] = E.threadModel();
      Env[I] = E.envModel();
    }
  }
  if (Linear)
    Bank.pack(Thread.data(), Env.data(), K);
  if (Bank.lanes())
    PendingFeatures.resize(policy::NumFeatures);
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
  if (Bank.lanes()) {
    // Banked features are exactly NumFeatures long (the bank scores that
    // many), so the copy has a fixed size and compiles to a few moves.
    std::copy_n(Features.Values.data(), policy::NumFeatures,
                PendingFeatures.data());
  } else {
    PendingFeatures = Features.Values;
    for (size_t K = 0; K < Experts->size(); ++K)
      PendingEnvPredictions[K] = (*Experts)[K].predictEnvNorm(Features);
    for (const auto &[K, Model] : OnlineEnv)
      PendingEnvPredictions[K] = std::max(0.0, Model.predict(Features.Values));
  }
  PendingChosen = Chosen;
  HasPending = true;
}

bool MixtureOfExperts::judgePreviousDecision(
    const policy::FeatureVector &Features, double *Errors) {
  if (!HasPending)
    return false;
  HasPending = false;

  // How far off was each expert's environment prediction made at the
  // previous region, now that the environment is observable?
  double Observed = Features.EnvNorm;
  for (size_t K = 0; K < PendingEnvPredictions.size(); ++K)
    Errors[K] = std::fabs(PendingEnvPredictions[K] - Observed);

  // This instance's online environment models (Section 4.1's retrofit
  // path) learn the realised observation.
  for (auto &[K, Model] : OnlineEnv)
    Model.observe(PendingFeatures, Observed);

  if (Stats) {
    std::lock_guard<std::mutex> Lock(Stats->Mutex);
    double Tolerance = EnvAccuracyTolerance * std::max(Observed, 1e-6);
    for (size_t K = 0; K < PendingEnvPredictions.size(); ++K) {
      ++Stats->EnvTotal[K];
      if (Errors[K] <= Tolerance)
        ++Stats->EnvAccurate[K];
    }
    ++Stats->MixtureEnvTotal;
    if (Errors[PendingChosen] <= Tolerance)
      ++Stats->MixtureEnvAccurate;
  }
  return true;
}

unsigned MixtureOfExperts::select(const policy::FeatureVector &Features) {
  // This decision's per-expert errors, then its gate weights. The array
  // is not zeroed: every element is written before it is read, and
  // zeroing it and the gate's locals cost ~8% of a decision.
  const size_t K = Experts->size();
  std::array<double, 2 * ExpertBank::MaxLanes> OnStack;
  double *Errors =
      K <= ExpertBank::MaxLanes ? OnStack.data() : WideScratch.data();
  double *Weights = Errors + K;
  const bool Judged = judgePreviousDecision(Features, Errors);

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
    for (size_t E = 0; E < K; ++E)
      PendingEnvPredictions[E] = std::max(0.0, PendingEnvPredictions[E]);
  }

  // The one selector call: it folds the judged errors, then blends or
  // chooses. The regime gate is called directly, so its fused pass inlines
  // here.
  const double *Folded = Judged ? Errors : nullptr;
  size_t Chosen = 0;
  const GateResult Gate =
      Regime ? Regime->gate(PendingFeatures, Folded, Features.Values,
                            Options.SoftBlend, Weights, Chosen)
             : Selector->gate(PendingFeatures, Folded, Features.Values,
                              Options.SoftBlend, Weights, Chosen);

  unsigned Threads;
  if (Gate == GateResult::Blend) {
    // Soft gating: accuracy-weighted blend of the expert predictions.
    double Blend = 0.0;
    double BestWeight = -1.0;
    Chosen = 0;
    for (size_t E = 0; E < K; ++E) {
      Blend += Weights[E] * static_cast<double>(expertThreads(E, Features));
      if (Weights[E] > BestWeight) {
        BestWeight = Weights[E];
        Chosen = E;
      }
    }
    Threads = policy::roundThreads(Blend, Features.MaxThreads);
  } else {
    assert(Chosen < K && "selector returned a bad index");
    Threads = expertThreads(Chosen, Features);
  }
  LastExpert = Chosen;

  // Stash this decision's environment predictions; they are judged at the
  // next region, which is the paper's next timestamp.
  stashPending(Features, Chosen);

  if (Stats) {
    std::lock_guard<std::mutex> Lock(Stats->Mutex);
    ++Stats->SelectionCounts[Chosen];
    Stats->MixtureThreads.add(Threads);
    // expertThreads is pure: recomputing it gives the blend's values.
    for (size_t E = 0; E < K; ++E)
      Stats->ExpertThreads[E].add(expertThreads(E, Features));
  }
  return Threads;
}

void MixtureOfExperts::reset() {
  Selector->reset();
  for (auto &[K, Model] : OnlineEnv)
    Model = *(*Experts)[K].onlineEnvPrior();
  HasPending = false;
  LastExpert = 0;
}

const std::string &MixtureOfExperts::name() const {
  static const std::string Name = "mixture";
  return Name;
}
