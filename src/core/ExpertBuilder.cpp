//===-- core/ExpertBuilder.cpp - Offline expert training ------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "core/ExpertBuilder.h"

#include "core/Oracle.h"
#include "sim/Simulation.h"
#include "support/Error.h"
#include "workload/Catalog.h"
#include "workload/ThreadPattern.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace medley;
using namespace medley::core;

TrainingConfig TrainingConfig::standard() {
  TrainingConfig Config;
  Config.Programs = workload::Catalog::trainingPrograms();
  Config.Platforms = {sim::MachineConfig::trainingPlatform12(),
                      sim::MachineConfig::evaluationPlatform()};
  return Config;
}

ExpertBuilder::ExpertBuilder(TrainingConfig Config)
    : Config(std::move(Config)) {
  if (this->Config.Programs.empty() || this->Config.Platforms.empty())
    reportFatalError("training config needs programs and platforms");
}

double
ExpertBuilder::scalabilityFraction(const std::string &Program,
                                   const sim::MachineConfig &Platform) const {
  const workload::ProgramSpec &Spec = workload::Catalog::byName(Program);
  double Speedup = Spec.isolatedSpeedup(Platform.TotalCores, Platform);
  return Speedup / static_cast<double>(Platform.TotalCores);
}

namespace {

/// Shared state of the exploring target chooser in one training run.
struct ExplorerState {
  Rng Generator;
  sim::Simulation *Sim = nullptr;
  const sim::Task *Self = nullptr;
  std::vector<TrainingSample> *Samples = nullptr;
  long PendingIndex = -1;
  sim::MachineConfig Machine;
  size_t PlatformIndex = 0;
  std::string Program;
  double ScalFrac = 0.0;

  // Piecewise-constant exploration: the paper's training runs execute with
  // a fixed thread count per run, so environment labels reflect stable
  // own-thread behaviour. We redraw every few seconds instead of every
  // region to keep that property while covering the state space.
  unsigned CurrentThreads = 0;
  double LastDraw = -1e9;
  static constexpr double DrawPeriod = 5.0;

  explicit ExplorerState(uint64_t Seed) : Generator(Seed) {}
};

} // namespace

void ExpertBuilder::collectPair(const std::string &TargetName,
                                const std::string &WorkloadName,
                                size_t PlatformIndex, uint64_t Seed) {
  const sim::MachineConfig &Machine = Config.Platforms[PlatformIndex];
  unsigned Cores = Machine.TotalCores;

  sim::Simulation Simulation(
      Machine,
      sim::PeriodicAvailability::standardLadder(
          Cores, Config.AvailabilityPeriod, Seed ^ 0xA11),
      Config.Tick);

  // External workload: one looping NAS program with a reproducible,
  // seed-derived thread pattern (paper Section 5.2.1: one target and one
  // workload, repeated with varying thread counts). An empty name runs the
  // target in isolation, grounding the models in the workload-free corner
  // of the state space.
  if (!WorkloadName.empty()) {
    auto Workload = std::make_shared<workload::Program>(
        workload::Catalog::byName(WorkloadName),
        workload::ThreadPattern::makeChooser(Seed ^ 0xB22, 2, Cores * 3 / 2,
                                             5.0),
        Cores, /*Looping=*/true);
    Simulation.addTask(Workload);
  }

  // Target: explores random thread counts so the corpus covers the joint
  // (own threads, environment) state space; each decision is labelled by
  // the oracle under the environment observed at decision time.
  auto State = std::make_shared<ExplorerState>(Seed ^ 0xC33);
  State->Sim = &Simulation;
  State->Samples = &Samples;
  State->Machine = Machine;
  State->PlatformIndex = PlatformIndex;
  State->Program = TargetName;
  State->ScalFrac = scalabilityFraction(
      TargetName, Config.Platforms[Config.SplitPlatformIndex]);

  auto Chooser = [State, Cores](const workload::RegionContext &Context) {
    policy::FeatureVector F = policy::buildFeatures(Context, Cores);

    std::vector<TrainingSample> &Out = *State->Samples;
    if (State->PendingIndex >= 0) {
      Out[static_cast<size_t>(State->PendingIndex)].NextEnvNorm = F.EnvNorm;
      Out[static_cast<size_t>(State->PendingIndex)].HasNextEnv = true;
    }

    OracleEnv Env;
    Env.AvailableCores = std::max(
        1u, static_cast<unsigned>(std::lround(Context.Env.Processors)));
    Env.ExternalThreads = static_cast<unsigned>(
        std::lround(Context.Env.WorkloadThreads));
    double ExternalDemand = 0.0;
    for (const auto &T : State->Sim->tasks())
      if (T.get() != State->Self && !T->finished())
        ExternalDemand += T->memoryDemand();
    Env.ExternalMemDemand = ExternalDemand;

    TrainingSample Sample;
    Sample.Features = F.Values;
    Sample.BestThreads = static_cast<double>(empiricalBestThreads(
        *Context.Region, Env, State->Machine, State->Generator));
    Sample.Program = State->Program;
    Sample.PlatformIndex = State->PlatformIndex;
    Sample.PlatformCores = State->Machine.TotalCores;
    Sample.ScalabilityFraction = State->ScalFrac;
    Sample.Contended = Context.Env.RunQueue > Context.Env.Processors;
    Out.push_back(std::move(Sample));
    State->PendingIndex = static_cast<long>(Out.size()) - 1;

    if (State->CurrentThreads == 0 ||
        Context.Now - State->LastDraw >= ExplorerState::DrawPeriod) {
      State->CurrentThreads =
          static_cast<unsigned>(State->Generator.uniformInt(1, Cores));
      State->LastDraw = Context.Now;
    }
    return State->CurrentThreads;
  };

  auto Target = std::make_shared<workload::Program>(
      workload::Catalog::byName(TargetName), Chooser, Cores,
      /*Looping=*/true);
  State->Self = Target.get();
  Simulation.addTask(Target);

  Simulation.runUntil([] { return false; },
                      Config.RunDuration); // Fixed-duration run.
  State->PendingIndex = -1; // The final sample has no successor.
}

void ExpertBuilder::collect() {
  if (Collected)
    return;
  Collected = true;

  uint64_t Seed = Config.Seed;
  for (size_t P = 0; P < Config.Platforms.size(); ++P)
    for (const std::string &Target : Config.Programs) {
      for (const std::string &Workload : Config.Programs) {
        if (Workload == Target)
          continue;
        Seed = Seed * 6364136223846793005ULL + 1442695040888963407ULL;
        collectPair(Target, Workload, P, Seed);
      }
      // Isolated runs per target/platform so the corpus covers the
      // workload-free corner of the state space as well.
      for (int Iso = 0; Iso < 3; ++Iso) {
        Seed = Seed * 6364136223846793005ULL + 1442695040888963407ULL;
        collectPair(Target, "", P, Seed);
      }
    }
}

const std::vector<TrainingSample> &ExpertBuilder::samples() {
  collect();
  return Samples;
}

namespace {

/// The corpus samples at \p Indices as training rows labelled with their
/// \p Target field, read in place.
RowStream corpusRows(const std::vector<TrainingSample> &Corpus,
                     const std::vector<size_t> &Indices,
                     double TrainingSample::*Target) {
  return {Indices.size(), policy::featureNames().size(),
          [&Corpus, &Indices, Target](const RowVisitor &Visit) {
            for (size_t I : Indices)
              Visit(Corpus[I].Features, Corpus[I].*Target);
          }};
}

/// The same rows copied into a dataset grouped by program.
Dataset corpusDataset(const std::vector<TrainingSample> &Corpus,
                      const std::vector<size_t> &Indices,
                      double TrainingSample::*Target) {
  Dataset Data(policy::featureNames());
  for (size_t I : Indices)
    Data.add(Corpus[I].Features, Corpus[I].*Target, Corpus[I].Program);
  return Data;
}

} // namespace

FeatureScaler ExpertBuilder::featureScaler() {
  collect();
  if (!HaveScaler) {
    SplitRows All = splitRows(1, 0, 1, {});
    CorpusScaler = FeatureScaler::fit(
        corpusRows(Samples, All.Threads, &TrainingSample::BestThreads));
    HaveScaler = true;
  }
  return CorpusScaler;
}

size_t ExpertBuilder::expertIndexFor(const TrainingSample &Sample,
                                     unsigned NumExperts,
                                     const std::vector<double> &BandEdges)
    const {
  double ScalableThreshold = 1.0 / Config.ScalabilityDivisor;
  size_t Hw = Sample.Contended ? 1 : 0;
  switch (NumExperts) {
  case 1:
    return 0;
  case 2:
    return Hw;
  case 4:
    return Hw * 2 +
           (Sample.ScalabilityFraction >= ScalableThreshold ? 1 : 0);
  case 8: {
    size_t Band = 0;
    while (Band < BandEdges.size() &&
           Sample.ScalabilityFraction > BandEdges[Band])
      ++Band;
    return Hw * 4 + Band;
  }
  default:
    reportFatalError("unsupported expert count (use 1, 2, 4 or 8)");
  }
}

std::vector<BuiltExpert> ExpertBuilder::build(unsigned NumExperts) {
  collect();
  return buildFrom(NumExperts, 1);
}

std::vector<BuiltExpert> ExpertBuilder::buildSubsampled(unsigned NumExperts,
                                                        double Fraction) {
  collect();
  if (Fraction <= 0.0 || Fraction > 1.0)
    reportFatalError("subsample fraction must be in (0, 1]");
  return buildFrom(NumExperts,
                   std::max<size_t>(1, std::lround(1.0 / Fraction)));
}

std::vector<double> ExpertBuilder::bandEdges(unsigned NumExperts) const {
  // Scaling-quartile edges for the 8-expert split: divide the training
  // programs into 4 equal groups by their scalability fraction on the
  // split platform (Section 8.4's "further splitting ... based on scaling
  // behavior").
  std::vector<double> BandEdges;
  if (NumExperts == 8) {
    std::vector<double> Fracs;
    for (const std::string &Program : Config.Programs)
      Fracs.push_back(scalabilityFraction(
          Program, Config.Platforms[Config.SplitPlatformIndex]));
    std::sort(Fracs.begin(), Fracs.end());
    // Quartile boundaries. With fewer than four programs the early
    // quartile indexes would wrap below zero; collapse them onto the
    // smallest fraction instead.
    for (size_t Q = 1; Q < 4 && !Fracs.empty(); ++Q) {
      size_t Idx = Q * Fracs.size() / 4;
      BandEdges.push_back(Fracs[Idx > 0 ? Idx - 1 : 0] + 1e-9);
    }
  }
  return BandEdges;
}

ExpertBuilder::SplitRows
ExpertBuilder::splitRows(unsigned NumExperts, size_t Split, size_t Stride,
                         const std::vector<double> &BandEdges) const {
  SplitRows Rows;
  auto Pick = [&](auto Keep) {
    Rows.Threads.clear();
    Rows.Envs.clear();
    for (size_t I = 0; I < Samples.size(); I += Stride) {
      if (!Keep(Samples[I]))
        continue;
      Rows.Threads.push_back(I);
      if (Samples[I].HasNextEnv)
        Rows.Envs.push_back(I);
    }
  };
  Pick([&](const TrainingSample &S) {
    return expertIndexFor(S, NumExperts, BandEdges) == Split;
  });
  if (Rows.Threads.size() < 20) {
    // Degenerate subset: fall back to the whole hardware-state half.
    bool WantContended = NumExperts >= 2 && Split >= NumExperts / 2;
    Pick([&](const TrainingSample &S) {
      return NumExperts < 2 || S.Contended == WantContended;
    });
  }
  return Rows;
}

std::vector<BuiltExpert> ExpertBuilder::buildFrom(unsigned NumExperts,
                                                  size_t Stride) {
  if (NumExperts != 1 && NumExperts != 2 && NumExperts != 4 &&
      NumExperts != 8)
    reportFatalError("unsupported expert count (use 1, 2, 4 or 8)");
  std::vector<double> BandEdges = bandEdges(NumExperts);

  auto describe = [&](size_t K) -> std::string {
    switch (NumExperts) {
    case 1:
      return "monolithic";
    case 2:
      return K == 1 ? "contended" : "uncontended";
    case 4:
      return std::string(K / 2 == 1 ? "contended/" : "uncontended/") +
             (K % 2 == 1 ? "scalable" : "non-scalable");
    case 8:
      return std::string(K / 4 == 1 ? "contended/" : "uncontended/") +
             "band-" + std::to_string(K % 4);
    default:
      return "expert";
    }
  };

  // Thread predictors are trained with the corpus-wide feature scaler so
  // every expert's n prediction is comparable under the same inputs.
  // Environment predictors deliberately keep their subset's own scaler:
  // each m is a *specialist* — accurate inside its training regime and
  // increasingly wrong outside it — which is what makes environment error
  // a usable proxy for expert fitness (Section 4.2). A subset left empty
  // by the split (possible for the finest granularity) falls back to its
  // platform's full corpus.
  FeatureScaler Shared = featureScaler();
  LinearModelOptions ThreadOptions;
  ThreadOptions.Ridge = 1e-3;
  ThreadOptions.SharedScaler = &Shared;
  LinearModelOptions EnvOptions; // Ridge set per subset below.
  std::vector<BuiltExpert> Built;
  for (size_t K = 0; K < NumExperts; ++K) {
    SplitRows Rows = splitRows(NumExperts, K, Stride, BandEdges);
    std::optional<LinearModel> W = trainLinearModel(
        corpusRows(Samples, Rows.Threads, &TrainingSample::BestThreads),
        "w:" + describe(K), ThreadOptions);
    EnvOptions.Ridge =
        std::max(1e-3, Config.EnvRidgeFraction *
                           static_cast<double>(Rows.Envs.size()));
    std::optional<LinearModel> M = trainLinearModel(
        corpusRows(Samples, Rows.Envs, &TrainingSample::NextEnvNorm),
        "m:" + describe(K), EnvOptions);
    if (!W || !M)
      reportFatalError("failed to train expert '" + describe(K) + "'");

    double EnvSum = 0.0;
    for (size_t I : Rows.Envs)
      EnvSum += Samples[I].NextEnvNorm;
    double MeanEnv = EnvSum / static_cast<double>(Rows.Envs.size());
    Built.push_back(BuiltExpert{Expert("", describe(K), std::move(*W),
                                       std::move(*M), MeanEnv),
                                K, Rows.Threads.size(), Rows.Envs.size()});
  }

  // Order experts by the calmness of their training regime and name them
  // E1..EK; the hyperplane selector maps low environment norms to low
  // expert indices.
  std::stable_sort(Built.begin(), Built.end(),
                   [](const BuiltExpert &A, const BuiltExpert &B) {
                     return A.E.meanTrainingEnv() < B.E.meanTrainingEnv();
                   });
  for (size_t K = 0; K < Built.size(); ++K)
    Built[K].E = Expert("E" + std::to_string(K + 1),
                        Built[K].E.description(), *Built[K].E.threadModel(),
                        *Built[K].E.envModel(),
                        Built[K].E.meanTrainingEnv());
  return Built;
}

LinearModel ExpertBuilder::monolithicThreadModel() {
  collect();
  FeatureScaler Shared = featureScaler();
  LinearModelOptions Options;
  Options.Ridge = 1e-3;
  Options.SharedScaler = &Shared;
  SplitRows All = splitRows(1, 0, 1, {});
  std::optional<LinearModel> Model = trainLinearModel(
      corpusRows(Samples, All.Threads, &TrainingSample::BestThreads),
      "w:aggregate", Options);
  if (!Model)
    reportFatalError("failed to train the aggregate model");
  return *Model;
}

ExpertData ExpertBuilder::trainingData(unsigned NumExperts,
                                       const BuiltExpert &B) {
  collect();
  SplitRows Rows = splitRows(NumExperts, B.Split, 1, bandEdges(NumExperts));
  return {corpusDataset(Samples, Rows.Threads, &TrainingSample::BestThreads),
          corpusDataset(Samples, Rows.Envs, &TrainingSample::NextEnvNorm)};
}

std::vector<ScalabilityEntry> ExpertBuilder::scalabilityTable() {
  std::vector<ScalabilityEntry> Table;
  for (const sim::MachineConfig &Platform : Config.Platforms)
    for (const std::string &Program : Config.Programs) {
      ScalabilityEntry Entry;
      Entry.Program = Program;
      Entry.PlatformCores = Platform.TotalCores;
      Entry.IsolatedSpeedup = scalabilityFraction(Program, Platform) *
                              static_cast<double>(Platform.TotalCores);
      Entry.Scalable = Entry.IsolatedSpeedup >=
                       static_cast<double>(Platform.TotalCores) /
                           Config.ScalabilityDivisor;
      Table.push_back(std::move(Entry));
    }
  return Table;
}
