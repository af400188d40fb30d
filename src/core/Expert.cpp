//===-- core/Expert.cpp - A (w, m) expert pair ---------------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "core/Expert.h"

#include <algorithm>
#include <cassert>

using namespace medley;
using namespace medley::core;

OnlineEnvModel::OnlineEnvModel(double Prior, double Alpha) : Alpha(Alpha) {
  assert(Alpha > 0.0 && Alpha <= 1.0 && "invalid EMA step");
  Estimate[0] = Estimate[1] = Prior;
}

bool OnlineEnvModel::contended(const Vec &Features) {
  assert(Features.size() >= 6 && "feature vector too short");
  return Features[5] > Features[4]; // runq-sz vs processors.
}

double OnlineEnvModel::predict(const Vec &Features) const {
  return Estimate[contended(Features) ? 1 : 0];
}

void OnlineEnvModel::observe(const Vec &Features, double ObservedEnvNorm) {
  double &E = Estimate[contended(Features) ? 1 : 0];
  E += Alpha * (ObservedEnvNorm - E);
  ++Count;
}

Expert::Expert(std::string Name, std::string Description,
               LinearModel ThreadModel, LinearModel EnvModel,
               double MeanTrainingEnv)
    : Name(std::move(Name)), Description(std::move(Description)),
      LinearThread(std::make_shared<LinearModel>(std::move(ThreadModel))),
      LinearEnv(std::make_shared<LinearModel>(std::move(EnvModel))),
      MeanTrainingEnv(MeanTrainingEnv) {
  assert(LinearThread->dimension() == policy::NumFeatures &&
         LinearEnv->dimension() == policy::NumFeatures &&
         "expert models must use the 10-feature representation");
  auto W = LinearThread;
  ThreadFn = [W](const Vec &X) { return W->predict(X); };
  auto M = LinearEnv;
  EnvFn = [M](const Vec &X) { return M->predict(X); };
}

Expert::Expert(std::string Name, std::string Description, PredictFn ThreadFn,
               PredictFn EnvFn, double MeanTrainingEnv)
    : Name(std::move(Name)), Description(std::move(Description)),
      ThreadFn(std::move(ThreadFn)), EnvFn(std::move(EnvFn)),
      MeanTrainingEnv(MeanTrainingEnv) {
  assert(this->ThreadFn && this->EnvFn &&
         "external experts need both prediction functions");
}

Expert::Expert(std::string Name, std::string Description, PredictFn ThreadFn,
               OnlineEnvModel EnvPrior, double MeanTrainingEnv)
    : Expert(std::move(Name), std::move(Description), std::move(ThreadFn),
             [EnvPrior](const Vec &X) { return EnvPrior.predict(X); },
             MeanTrainingEnv) {
  this->EnvPrior = EnvPrior;
}

unsigned Expert::predictThreads(const policy::FeatureVector &Features) const {
  // Standard linear experts skip the std::function trampoline: the lambda
  // stored in ThreadFn would do exactly this call, so going direct is
  // bit-identical and keeps the per-decision path free of indirection.
  double Raw = LinearThread ? LinearThread->predict(Features.Values)
                            : ThreadFn(Features.Values);
  return policy::roundThreads(Raw, Features.MaxThreads);
}

double Expert::predictEnvNorm(const policy::FeatureVector &Features) const {
  double Raw = LinearEnv ? LinearEnv->predict(Features.Values)
                         : EnvFn(Features.Values);
  return std::max(0.0, Raw);
}

const LinearModel *Expert::threadModel() const { return LinearThread.get(); }

const LinearModel *Expert::envModel() const { return LinearEnv.get(); }
