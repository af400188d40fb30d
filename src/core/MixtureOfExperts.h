//===-- core/MixtureOfExperts.h - The mixture policy ------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's contribution as a deployable ThreadPolicy (Sections 4-5).
/// At every parallel region the policy
///   1. judges the *previous* decision: each expert's environment
///      prediction made then is compared against the environment norm
///      observed now (M(f_t) = argmin_k | ||ê_t^k|| - ||e_t|| |);
///   2. makes one gate call, which folds those errors into the selector
///      and then picks the expert best suited to the current features (or
///      weighs them all), and emits that expert's thread prediction.
/// No expert is ever "tried out": evaluation is entirely through the
/// environment-prediction proxy, so there is no exploration overhead.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_CORE_MIXTUREOFEXPERTS_H
#define MEDLEY_CORE_MIXTUREOFEXPERTS_H

#include "core/Expert.h"
#include "core/ExpertSelector.h"
#include "core/MoeStats.h"
#include "ml/LinearBank.h"
#include "policy/ThreadPolicy.h"

#include <array>
#include <memory>
#include <utility>

namespace medley::core {

/// Options for the mixture policy.
struct MixtureOptions {
  /// Soft gating (Jacobs et al.'s original mixture formulation): when the
  /// selector can provide a weight distribution, blend the experts' thread
  /// predictions instead of committing to one expert. Statistics still
  /// attribute each decision to the highest-weight expert.
  bool SoftBlend = true;
};

/// Mixture-of-experts thread-selection policy.
class MixtureOfExperts : public policy::ThreadPolicy {
public:
  /// \p Experts is shared (read-only) across policy instances; \p Selector
  /// is owned and adapts online. \p Stats (optional) aggregates behaviour
  /// across instances for the analysis figures.
  MixtureOfExperts(std::shared_ptr<const std::vector<Expert>> Experts,
                   std::unique_ptr<ExpertSelector> Selector,
                   std::shared_ptr<MoeStats> Stats = nullptr,
                   MixtureOptions Options = {});

  unsigned select(const policy::FeatureVector &Features) override;
  void reset() override;
  const std::string &name() const override;

  const std::vector<Expert> &experts() const { return *Experts; }
  const ExpertSelector &selector() const { return *Selector; }

  /// Index of the expert chosen at the most recent decision.
  size_t lastExpert() const { return LastExpert; }

  /// True when the experts are scored through the packed bank rather than
  /// one by one (see the Bank member).
  bool banked() const { return Bank.lanes() != 0; }

private:
  /// Judges the pending decision, if there is one: writes each expert's
  /// environment error into \p Errors, trains this instance's online
  /// environment models, feeds the statistics, and returns true. Runs
  /// before the bank overwrites PendingEnvPredictions.
  bool judgePreviousDecision(const policy::FeatureVector &Features,
                             double *Errors);

  /// Thread prediction of expert \p K for this decision: the bank's folded
  /// score rounded when banked, else Expert::predictThreads.
  unsigned expertThreads(size_t K, const policy::FeatureVector &Features) const;

  /// Arms the judgement of this decision's per-expert environment
  /// predictions at the next call. When banked, the bank has already
  /// filled PendingEnvPredictions for these features; otherwise they are
  /// computed expert by expert here.
  void stashPending(const policy::FeatureVector &Features, size_t Chosen);

  using ExpertBank = LinearBank<policy::NumFeatures>;

  std::shared_ptr<const std::vector<Expert>> Experts;
  std::unique_ptr<ExpertSelector> Selector;
  std::shared_ptr<MoeStats> Stats;
  MixtureOptions Options;

  /// The selector when it is the regime gate, else null: select() then
  /// calls its fused gate directly instead of through the virtual.
  RegimeSelector *Regime = nullptr;

  bool HasPending = false;
  Vec PendingFeatures;
  Vec PendingEnvPredictions;
  size_t PendingChosen = 0;
  size_t LastExpert = 0;

  /// A decision's per-expert errors and gate weights (2 x K) when there
  /// are more experts than the bank's lanes; smaller sets keep them in a
  /// fixed-size array on the stack. Sized in the constructor, so no
  /// decision allocates.
  Vec WideScratch;

  /// Every expert's thread and environment model, packed with each
  /// model's scaler folded into its weights when the experts are linear
  /// and at most ExpertBank::MaxLanes; empty otherwise (external experts,
  /// more than 8), and the experts are then scored one by one through
  /// Expert. One bank pass per decision fills RawThreads and
  /// PendingEnvPredictions together.
  ExpertBank Bank;
  std::array<double, ExpertBank::MaxLanes> RawThreads{};

  /// This instance's own copy of each online expert's environment model
  /// (Expert::onlineEnvPrior), by expert index: it learns from this
  /// instance's decisions only. Empty when every expert's model is offline.
  std::vector<std::pair<size_t, OnlineEnvModel>> OnlineEnv;
};

} // namespace medley::core

#endif // MEDLEY_CORE_MIXTUREOFEXPERTS_H
