//===-- policy/Features.cpp - The 10-feature vector --------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "policy/Features.h"

#include <cassert>
#include <cmath>

using namespace medley;
using namespace medley::policy;

const std::vector<std::string> &medley::policy::featureNames() {
  static const std::vector<std::string> Names = {
      "load/store count", "instructions", "branches",
      "workload threads", "processors",   "runq-sz",
      "ldavg-1",          "ldavg-5",      "cached memory",
      "pages free list rate"};
  return Names;
}

unsigned medley::policy::sanitizeValues(Vec &Values) {
  unsigned Repaired = 0;
  for (double &X : Values)
    if (!std::isfinite(X)) {
      X = 0.0;
      ++Repaired;
    }
  return Repaired;
}

FeatureVector
medley::policy::buildFeatures(const workload::RegionContext &Context,
                              unsigned TotalCores) {
  FeatureVector F;
  buildFeatures(Context, TotalCores, F);
  return F;
}

void medley::policy::buildFeatures(const workload::RegionContext &Context,
                                   unsigned TotalCores, FeatureVector &Out) {
  assert(Context.Region && "region context without a region");
  assert(TotalCores >= 1 && "invalid core count");

  const workload::CodeFeatures &Code = Context.Region->Code;

  // Sanitize a copy of the environment first: a NaN field would otherwise
  // poison the norm, and the norm must be computed from the same values
  // the policies see.
  sim::EnvSample Env = Context.Env;
  Env.sanitize();

  Out.Values.resize(NumFeatures);
  Out.Values[0] = Code.LoadStoreRatio;
  Out.Values[1] = Code.InstructionWeight;
  Out.Values[2] = Code.BranchRatio;
  Out.Values[3] = Env.WorkloadThreads;
  Out.Values[4] = Env.Processors;
  Out.Values[5] = Env.RunQueue;
  Out.Values[6] = Env.LoadAvg1;
  Out.Values[7] = Env.LoadAvg5;
  Out.Values[8] = Env.CachedMemory;
  Out.Values[9] = Env.PageFreeRate;
  // Code features come from the workload description, but guard them too:
  // a corrupt catalog entry must not leak NaN into the models.
  sanitizeValues(Out.Values);
  Out.EnvNorm = Env.scaledNorm(static_cast<double>(TotalCores));
  if (!std::isfinite(Out.EnvNorm))
    Out.EnvNorm = 0.0;
  Out.Now = Context.Now;
  Out.MaxThreads = Context.MaxThreads;
}

Vec medley::policy::environmentPart(const FeatureVector &Features) {
  assert(Features.Values.size() == NumFeatures && "malformed feature vector");
  return Vec(Features.Values.begin() + 3, Features.Values.end());
}
