//===-- exp/PolicySet.cpp - Trained-policy registry ------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exp/PolicySet.h"

#include "policy/AnalyticPolicy.h"
#include "policy/DefaultPolicy.h"
#include "policy/OfflinePolicy.h"
#include "policy/OnlinePolicy.h"
#include "support/Error.h"

using namespace medley;
using namespace medley::exp;

PolicySet &PolicySet::instance() {
  static PolicySet Instance;
  return Instance;
}

PolicySet::PolicySet(core::TrainingConfig Config)
    : Builder(std::move(Config)) {}

const std::vector<core::BuiltExpert> &PolicySet::builtExperts(unsigned K) {
  auto It = Built.find(K);
  if (It == Built.end())
    It = Built.emplace(K, Builder.build(K)).first;
  return It->second;
}

std::shared_ptr<const std::vector<core::Expert>>
PolicySet::experts(unsigned K) {
  auto It = ExpertSets.find(K);
  if (It != ExpertSets.end())
    return It->second;
  auto Set = std::make_shared<std::vector<core::Expert>>();
  for (const core::BuiltExpert &B : builtExperts(K))
    Set->push_back(B.E);
  std::shared_ptr<const std::vector<core::Expert>> Shared = Set;
  ExpertSets.emplace(K, Shared);
  return Shared;
}

const FeatureScaler &PolicySet::featureScaler() {
  if (!HaveScaler) {
    Scaler = Builder.featureScaler();
    HaveScaler = true;
  }
  return Scaler;
}

const LinearModel &PolicySet::offlineModel() {
  if (!HaveOffline) {
    // The "offline" baseline reproduces the CGO'13 model the paper compares
    // against: trained on the evaluation machine under varying external
    // workload but *fixed* processor availability — that work predates the
    // dynamic-hardware setting, which is exactly why the paper finds it
    // "cannot adapt to new environments". (The Figure-14c aggregate model,
    // by contrast, is trained on the experts' full corpus; see
    // ExpertBuilder::monolithicThreadModel.)
    core::TrainingConfig Config = core::TrainingConfig::standard();
    Config.Platforms = {sim::MachineConfig::evaluationPlatform()};
    Config.SplitPlatformIndex = 0;
    Config.AvailabilityPeriod = 1e9; // Effectively static availability.
    core::ExpertBuilder OfflineBuilder(std::move(Config));
    OfflineModel =
        std::make_shared<LinearModel>(OfflineBuilder.monolithicThreadModel());
    HaveOffline = true;
  }
  return *OfflineModel;
}

std::shared_ptr<core::ExpertSelector>
PolicySet::selectorPrototype(unsigned NumExperts,
                             const std::string &SelectorKind) {
  FeatureScaler Scaler = featureScaler();

  if (SelectorKind == "perceptron")
    return std::make_shared<core::PerceptronSelector>(NumExperts, Scaler);
  if (SelectorKind == "hyperplane")
    return std::make_shared<core::HyperplaneSelector>(NumExperts, Scaler);
  if (SelectorKind == "accuracy")
    return std::make_shared<core::AccuracySelector>(NumExperts);
  if (SelectorKind == "binned")
    return std::make_shared<core::BinnedAccuracySelector>(NumExperts, Scaler);
  if (SelectorKind == "regime") {
    std::vector<int> Tags;
    for (const core::BuiltExpert &B : builtExperts(NumExperts)) {
      const std::string &Description = B.E.description();
      if (Description.rfind("uncontended", 0) == 0)
        Tags.push_back(0);
      else if (Description.rfind("contended", 0) == 0)
        Tags.push_back(1);
      else
        Tags.push_back(-1);
    }
    return std::make_shared<core::RegimeSelector>(std::move(Tags));
  }
  if (SelectorKind == "random")
    return std::make_shared<core::RandomSelector>(NumExperts, 0xAB1E);
  reportFatalError("unknown selector kind '" + SelectorKind + "'");
}

policy::PolicyFactory
PolicySet::mixtureFactory(unsigned NumExperts, const std::string &SelectorKind,
                          std::shared_ptr<core::MoeStats> Stats) {
  auto Experts = experts(NumExperts);
  auto Prototype = selectorPrototype(NumExperts, SelectorKind);
  return [Experts, Prototype, Stats]() {
    return std::make_unique<core::MixtureOfExperts>(
        Experts, Prototype->clone(), Stats);
  };
}

policy::PolicyFactory PolicySet::hardenedMixtureFactory(
    unsigned NumExperts, const std::string &SelectorKind,
    core::QuarantineOptions Quarantine, support::FaultStats *Faults,
    std::shared_ptr<core::MoeStats> Stats) {
  auto Experts = experts(NumExperts);
  auto Prototype = selectorPrototype(NumExperts, SelectorKind);
  return [Experts, Prototype, Quarantine, Faults, Stats]() {
    auto Guarded = std::make_unique<core::QuarantineSelector>(
        Prototype->clone(), Quarantine, Faults);
    core::MixtureOptions Options;
    Options.Faults = Faults;
    return std::make_unique<core::MixtureOfExperts>(
        Experts, std::move(Guarded), Stats, Options);
  };
}

policy::PolicyFactory PolicySet::singleExpertFactory(unsigned NumExperts,
                                                     size_t Index) {
  auto Experts = experts(NumExperts);
  if (Index >= Experts->size())
    reportFatalError("single-expert index out of range");
  return [Experts, NumExperts, Index]() {
    return std::make_unique<core::MixtureOfExperts>(
        Experts, std::make_unique<core::FixedSelector>(NumExperts, Index));
  };
}

policy::PolicyFactory PolicySet::factory(const std::string &Name) {
  if (Name == "default")
    return [] { return std::make_unique<policy::DefaultPolicy>(); };
  if (Name == "online")
    return [] { return std::make_unique<policy::OnlinePolicy>(); };
  if (Name == "offline") {
    LinearModel Model = offlineModel();
    return [Model] {
      return std::make_unique<policy::OfflinePolicy>(Model);
    };
  }
  if (Name == "analytic") {
    // Each instance gets its own deterministic probe stream.
    auto Counter = std::make_shared<uint64_t>(AnalyticSeedCounter);
    return [Counter] {
      policy::AnalyticPolicy::Options Options;
      Options.Seed = ++*Counter;
      return std::make_unique<policy::AnalyticPolicy>(Options);
    };
  }
  if (Name == "mixture")
    return mixtureFactory(4, "regime");
  if (Name == "mixture-hardened")
    return hardenedMixtureFactory(4, "regime");
  reportFatalError("unknown policy '" + Name + "'");
}

const std::vector<std::string> &PolicySet::policyNames() {
  static const std::vector<std::string> Names = {
      "default", "online", "offline", "analytic", "mixture", "mixture-hardened"};
  return Names;
}

const std::vector<std::string> &PolicySet::standardPolicies() {
  static const std::vector<std::string> Names = {"online", "offline",
                                                 "analytic", "mixture"};
  return Names;
}
