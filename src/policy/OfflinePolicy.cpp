//===-- policy/OfflinePolicy.cpp - Offline-model policy -----------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "policy/OfflinePolicy.h"

#include <cassert>

using namespace medley;
using namespace medley::policy;

OfflinePolicy::OfflinePolicy(LinearModel ThreadModel, std::string PolicyName)
    : ThreadModel(std::move(ThreadModel)), PolicyName(std::move(PolicyName)) {
  assert(this->ThreadModel.dimension() == NumFeatures &&
         "offline model arity mismatch");
}

unsigned OfflinePolicy::select(const FeatureVector &Features) {
  return roundThreads(ThreadModel.predict(Features.Values),
                      Features.MaxThreads);
}
