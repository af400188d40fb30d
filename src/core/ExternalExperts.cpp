//===-- core/ExternalExperts.cpp - Non-linear and hand-written experts ----------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "core/ExternalExperts.h"

#include "core/ExpertBuilder.h"
#include "support/Error.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cmath>

using namespace medley;
using namespace medley::core;

//===----------------------------------------------------------------------===//
// k-NN expert
//===----------------------------------------------------------------------===//

Expert medley::core::makeKnnExpert(ExpertBuilder &Builder,
                                   const std::string &Name,
                                   KnnOptions Options) {
  const std::vector<TrainingSample> &Samples = Builder.samples();
  if (Samples.empty())
    reportFatalError("cannot build a k-NN expert from an empty corpus");

  Dataset ThreadData(policy::featureNames());
  Dataset EnvData(policy::featureNames());
  double EnvSum = 0.0;
  size_t EnvCount = 0;
  for (const TrainingSample &S : Samples) {
    ThreadData.add(S.Features, S.BestThreads, S.Program);
    if (S.HasNextEnv) {
      EnvData.add(S.Features, S.NextEnvNorm, S.Program);
      EnvSum += S.NextEnvNorm;
      ++EnvCount;
    }
  }

  std::optional<KnnModel> W = trainKnnModel(ThreadData, "w:" + Name, Options);
  std::optional<KnnModel> M = trainKnnModel(EnvData, "m:" + Name, Options);
  if (!W || !M)
    reportFatalError("failed to build the k-NN expert '" + Name + "'");

  auto WShared = std::make_shared<KnnModel>(std::move(*W));
  auto MShared = std::make_shared<KnnModel>(std::move(*M));
  double MeanEnv = EnvCount ? EnvSum / static_cast<double>(EnvCount) : 0.0;
  return Expert(
      Name, "k-NN (instance-based)",
      [WShared](const Vec &X) { return WShared->predict(X); },
      [MShared](const Vec &X) { return MShared->predict(X); }, MeanEnv);
}

//===----------------------------------------------------------------------===//
// Linear epsilon-SVR expert
//===----------------------------------------------------------------------===//

Expert medley::core::makeSvrExpert(ExpertBuilder &Builder,
                                   const std::string &Name,
                                   SvrOptions Options) {
  const std::vector<TrainingSample> &Samples = Builder.samples();
  if (Samples.empty())
    reportFatalError("cannot build an SVR expert from an empty corpus");

  Dataset ThreadData(policy::featureNames());
  Dataset EnvData(policy::featureNames());
  double EnvSum = 0.0;
  size_t EnvCount = 0;
  for (const TrainingSample &S : Samples) {
    ThreadData.add(S.Features, S.BestThreads, S.Program);
    if (S.HasNextEnv) {
      EnvData.add(S.Features, S.NextEnvNorm, S.Program);
      EnvSum += S.NextEnvNorm;
      ++EnvCount;
    }
  }

  // The environment norm lives on a much smaller scale than thread counts;
  // shrink its insensitive tube accordingly.
  SvrOptions EnvOptions = Options;
  EnvOptions.Epsilon = 0.05;
  std::optional<SvrModel> W = trainSvrModel(ThreadData, "w:" + Name, Options);
  std::optional<SvrModel> M =
      trainSvrModel(EnvData, "m:" + Name, EnvOptions);
  if (!W || !M)
    reportFatalError("failed to build the SVR expert '" + Name + "'");

  auto WShared = std::make_shared<SvrModel>(std::move(*W));
  auto MShared = std::make_shared<SvrModel>(std::move(*M));
  double MeanEnv = EnvCount ? EnvSum / static_cast<double>(EnvCount) : 0.0;
  return Expert(
      Name, "linear epsilon-SVR",
      [WShared](const Vec &X) { return WShared->predict(X); },
      [MShared](const Vec &X) { return MShared->predict(X); }, MeanEnv);
}

//===----------------------------------------------------------------------===//
// Hand-written analytic expert
//===----------------------------------------------------------------------===//

Expert medley::core::makeHandcraftedExpert(const sim::MachineConfig &Machine,
                                           const std::string &Name) {
  unsigned PerSocket = Machine.coresPerSocket();
  auto ThreadFn = [PerSocket](const Vec &F) {
    double Processors = F[4];
    double Workload = F[3];
    double BranchRatio = F[2];
    // Claim the slack the workload leaves (it time-shares, so count each
    // external thread as roughly half a core), but never fight for more
    // than the machine has.
    double Slack = std::max(1.0, Processors - 0.5 * Workload);
    // Synchronisation-bound loops stay within one socket.
    if (BranchRatio > 0.18)
      Slack = std::min(Slack, static_cast<double>(PerSocket));
    return Slack;
  };

  // The environment model is learned online, by each mixture instance from
  // its own feedback; its prior is the idle machine's norm (processors
  // fully available, memory free): sqrt((P/P)^2 + 1^2) = sqrt(2).
  return Expert(Name, "hand-written analytic", ThreadFn,
                OnlineEnvModel(std::sqrt(2.0)),
                /*MeanTrainingEnv=*/std::sqrt(2.0));
}
