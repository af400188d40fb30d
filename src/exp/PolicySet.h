//===-- exp/PolicySet.h - Trained-policy registry ---------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds and caches the trained artefacts every experiment needs — the
/// expert sets (1/2/4/8), the monolithic offline model, the feature scaler
/// — and exposes policy factories by name. Training happens once per
/// process (the paper's "one-off cost").
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_EXP_POLICYSET_H
#define MEDLEY_EXP_POLICYSET_H

#include "core/ExpertBuilder.h"
#include "core/MixtureOfExperts.h"

#include <map>

namespace medley::exp {

/// Process-wide registry of trained policies.
class PolicySet {
public:
  /// The shared, lazily trained instance.
  static PolicySet &instance();

  explicit PolicySet(core::TrainingConfig Config =
                         core::TrainingConfig::standard());

  core::ExpertBuilder &builder() { return Builder; }

  /// Experts of granularity \p K (trained and cached on first use).
  std::shared_ptr<const std::vector<core::Expert>> experts(unsigned K);

  /// The experts of granularity \p K with their training-set sizes.
  const std::vector<core::BuiltExpert> &builtExperts(unsigned K);

  /// Factory for a policy named in policyNames(): one of the paper's
  /// "default", "online", "offline", "analytic" or "mixture" (4 experts,
  /// regime selector), or "mixture-hardened" (the same mixture behind the
  /// degradation ladder). Any other name is a fatal error.
  policy::PolicyFactory factory(const std::string &Name);

  /// Every name factory() accepts.
  static const std::vector<std::string> &policyNames();

  /// Mixture factory with explicit granularity and selector kind
  /// ("regime", "accuracy", "binned", "perceptron", "hyperplane", "random"). \p Stats, if given, is shared
  /// by every instance the factory creates.
  policy::PolicyFactory
  mixtureFactory(unsigned NumExperts, const std::string &SelectorKind,
                 std::shared_ptr<core::MoeStats> Stats = nullptr);

  /// Mixture factory wrapped in the degradation ladder: the selector is
  /// decorated with a QuarantineSelector, and the policy degrades to
  /// DefaultPolicy behaviour whenever every expert is quarantined.
  /// \p Faults (optional, non-owning, NOT thread-safe) receives the
  /// degradation counters of every instance the factory creates — pass
  /// nullptr when instances run on multiple driver threads.
  policy::PolicyFactory
  hardenedMixtureFactory(unsigned NumExperts, const std::string &SelectorKind,
                         core::QuarantineOptions Quarantine = {},
                         support::FaultStats *Faults = nullptr,
                         std::shared_ptr<core::MoeStats> Stats = nullptr);

  /// Factory pinning the mixture to single expert \p Index of a
  /// \p NumExperts set (the Fig-15c single-expert bars).
  policy::PolicyFactory singleExpertFactory(unsigned NumExperts,
                                            size_t Index);

  /// Policy names in the paper's presentation order.
  static const std::vector<std::string> &standardPolicies();

private:
  core::ExpertBuilder Builder;
  std::map<unsigned, std::vector<core::BuiltExpert>> Built;
  std::map<unsigned, std::shared_ptr<const std::vector<core::Expert>>>
      ExpertSets;
  bool HaveScaler = false;
  FeatureScaler Scaler;
  bool HaveOffline = false;
  std::shared_ptr<LinearModel> OfflineModel;
  uint64_t AnalyticSeedCounter = 0x5EED0;

  const FeatureScaler &featureScaler();
  const LinearModel &offlineModel();
  std::shared_ptr<core::ExpertSelector>
  selectorPrototype(unsigned NumExperts, const std::string &SelectorKind);
};

} // namespace medley::exp

#endif // MEDLEY_EXP_POLICYSET_H
