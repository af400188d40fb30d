//===-- perfbench/Decide.cpp - The decision-replay workload ---------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The mapper as a runtime library, where every parallel region pays one
// decision: the feature vectors the mixture receives in the grid's mixture
// cells are captured once per setup sample (a ThreadPolicy wrapper passed
// as the factory to Driver::measure), then every captured run is replayed
// through a reset mixture instance and clamped with runtime::threadCeiling.
// No simulator runs while timing; the stream is the real, diverse one.
//
// One operation is one decision; one latency sample is one replayed run.
// The traced pass times each stage of MixtureOfExperts::select through the
// same public calls select() makes, one batch per stage over the whole
// stream, and checks that the stages reproduce select()'s answers.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/MixtureOfExperts.h"
#include "exp/Driver.h"
#include "runtime/PolicyBinding.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

using namespace medley;
using namespace medley::perfbench;

namespace {

/// One captured co-execution run of the mixture.
struct CapturedRun {
  std::vector<policy::FeatureVector> Features; ///< What select() was given.
  std::vector<unsigned> Raw;   ///< What select() answered.
  std::vector<unsigned> Bound; ///< The clamped decisions the run recorded.
};

/// Records every decision of the wrapped policy into a CapturedRun.
class CapturingPolicy final : public policy::ThreadPolicy {
public:
  CapturingPolicy(std::unique_ptr<policy::ThreadPolicy> Inner,
                  CapturedRun &Run)
      : Inner(std::move(Inner)), Run(Run) {}

  unsigned select(const policy::FeatureVector &Features) override {
    unsigned Threads = Inner->select(Features);
    Run.Features.push_back(Features);
    Run.Raw.push_back(Threads);
    return Threads;
  }
  void beginDecisionEpoch() override { Inner->beginDecisionEpoch(); }
  void observe(const workload::RegionOutcome &Outcome) override {
    Inner->observe(Outcome);
  }
  bool decisionsArePure() const override { return Inner->decisionsArePure(); }
  void reset() override {
    Inner->reset();
    Run.Features.clear();
    Run.Raw.clear();
  }
  const std::string &name() const override { return Inner->name(); }

private:
  std::unique_ptr<policy::ThreadPolicy> Inner;
  CapturedRun &Run;
};

struct Capture {
  std::vector<std::unique_ptr<CapturedRun>> Runs;
  uint64_t Decisions = 0;
  uint64_t Digest = support::fnv1aInit(); ///< Over every bound decision.
};

/// Runs the grid's mixture cells once, capturing every decision.
Capture captureStream(exp::PolicySet &Policies, const GridShape &Shape,
                      uint64_t Seed, Outcome &Out) {
  exp::DriverOptions Options;
  Options.Jobs = 1;
  Options.Seed += Seed;
  exp::Driver D(Options);
  policy::PolicyFactory Mixture = Policies.factory("mixture");
  Capture C;
  policy::PolicyFactory Capturing = [&]() -> std::unique_ptr<policy::ThreadPolicy> {
    C.Runs.push_back(std::make_unique<CapturedRun>());
    return std::make_unique<CapturingPolicy>(Mixture(), *C.Runs.back());
  };
  for (const exp::Scenario &Scen : Shape.Scenarios)
    for (const std::string &Target : Shape.Targets)
      for (const workload::WorkloadSet *Set : setsOf(Scen)) {
        const size_t Begin = C.Runs.size();
        exp::Measurement M = D.measure(Target, Capturing, Scen, Set);
        if (M.Runs.size() != C.Runs.size() - Begin || !M.Failures.empty()) {
          Out.fail(M.Runs.size(), "decide capture: " + Target + " in " +
                                      Scen.Name + " failed or was retried");
          continue;
        }
        for (size_t R = 0; R < M.Runs.size(); ++R) {
          CapturedRun &Run = *C.Runs[Begin + R];
          for (const runtime::Decision &Decision : M.Runs[R].TargetDecisions)
            Run.Bound.push_back(Decision.Threads);
          if (Run.Bound.size() != Run.Raw.size())
            Out.fail(Run.Raw.size(), "decide capture: recorded decisions of " +
                                         Target +
                                         " do not match the captured calls");
          for (unsigned Threads : Run.Bound)
            C.Digest = digest(C.Digest, Threads);
          C.Decisions += Run.Raw.size();
        }
      }
  return C;
}

/// The public pieces MixtureOfExperts::select composes, for stage timing.
struct MixtureParts {
  const std::vector<core::Expert> *Experts = nullptr;
  const FeatureScaler *Scaler = nullptr;
  std::vector<const LinearModel *> ThreadModels, EnvModels;
  std::unique_ptr<core::ExpertSelector> Selector;

  /// False when the experts are not the standard shared-scaler linear
  /// ones, whose stages this decomposition mirrors.
  bool bind(const core::MixtureOfExperts &Mixture) {
    Experts = &Mixture.experts();
    for (const core::Expert &E : *Experts) {
      if (!E.threadModel() || !E.envModel())
        return false;
      ThreadModels.push_back(E.threadModel());
      EnvModels.push_back(E.envModel());
    }
    Scaler = &ThreadModels.front()->scaler();
    for (const LinearModel *M : ThreadModels)
      if (M->scaler().means() != Scaler->means() ||
          M->scaler().scales() != Scaler->scales())
        return false;
    Selector = Mixture.selector().clone();
    return true;
  }
};

/// Host seconds of each stage's batch, kept per stage.
struct StageClock {
  std::map<std::string, std::vector<double>> Samples;
  void time(const std::string &Stage, const std::function<void()> &Pass) {
    Stopwatch W;
    Pass();
    Samples[Stage].push_back(W.seconds());
  }
  double fastestOf(const std::string &Stage) {
    return fastest(Samples[Stage]);
  }
};

} // namespace

Outcome medley::perfbench::runDecide(const RunOptions &Options) {
  Outcome Out;
  const GridShape Shape(Options.Tiny);

  // Setup: train the mixture's experts and capture the stream. It is
  // repeated between passes (setupDue) so setup_s sees the whole run;
  // every capture must be identical.
  std::vector<double> SetupS, TrainS, CaptureS;
  std::unique_ptr<exp::PolicySet> Policies;
  auto SetUp = [&] {
    Stopwatch Train;
    auto Trained = trainPolicies({"mixture"});
    TrainS.push_back(Train.seconds());
    Stopwatch Record;
    Capture Captured = captureStream(*Trained, Shape, Options.Seed, Out);
    CaptureS.push_back(Record.seconds());
    SetupS.push_back(TrainS.back() + CaptureS.back());
    if (!Policies)
      Policies = std::move(Trained);
    return Captured;
  };
  const Capture C = SetUp();
  Out.Digest = C.Digest;

  std::unique_ptr<policy::ThreadPolicy> Policy =
      Policies->factory("mixture")();
  const double UntracedBudget =
      Options.Trace ? Options.Seconds / 2 : Options.Seconds;
  // Each run is replayed from a buffer it was first copied into, untimed:
  // at a real decision the features were just built and sit in cache,
  // while the whole captured stream (~8 MB) would time memory traffic
  // that shared hosts make noisy.
  std::vector<policy::FeatureVector> Hot;
  RepeatedTimes Replays;
  uint64_t Mismatches = 0;
  CpuRotation Rotation;
  Stopwatch Budget;
  do {
    Rotation.beforePass();
    if (setupDue(SetupS.size(), Budget.seconds(), UntracedBudget) &&
        SetUp().Digest != C.Digest)
      Out.fail(C.Decisions, "decide capture: set-up sample " +
                                std::to_string(SetupS.size()) +
                                " captured another stream");
    for (size_t R = 0; R < C.Runs.size(); ++R) {
      const CapturedRun *Run = C.Runs[R].get();
      Hot.resize(std::max(Hot.size(), Run->Features.size()));
      std::copy(Run->Features.begin(), Run->Features.end(), Hot.begin());
      Stopwatch W;
      Policy->reset();
      for (size_t I = 0; I < Run->Features.size(); ++I) {
        const policy::FeatureVector &F = Hot[I];
        unsigned Raw = Policy->select(F);
        unsigned Bound = std::clamp(Raw, 1u, runtime::threadCeiling(F));
        Mismatches += (Raw != Run->Raw[I]) | (Bound != Run->Bound[I]);
      }
      double Elapsed = W.seconds();
      Replays.record(R, Elapsed);
    }
    Out.Attempted += C.Decisions;
  } while (Budget.seconds() < UntracedBudget ||
           SetupS.size() < SetupSamples);
  if (Mismatches)
    Out.fail(Mismatches, std::to_string(Mismatches) +
                             " replayed decisions differ from the capture");

  Out.add("setup_s", fastest(SetupS), "s");
  const double Fastest = Replays.fastestPass();
  std::vector<double> RunMs = Replays.fastestMs();
  Out.add("ops_per_s", static_cast<double>(C.Decisions) / Fastest, "1/s");
  Out.add("decisions_per_s", static_cast<double>(C.Decisions) / Fastest,
          "1/s");
  Out.add("latency_ms_p50", quantile(RunMs, 0.50), "ms");
  Out.add("latency_ms_p90", quantile(RunMs, 0.90), "ms");
  Out.add("exp.policyset.train_s", fastest(TrainS), "s");
  Out.add("exp.decide.capture_s", fastest(CaptureS), "s");
  Out.add("core.decisions_per_run",
          static_cast<double>(C.Decisions) / C.Runs.size(), "count");

  if (!Options.Trace)
    return Out;

  // Traced pass. The stages are pure functions of the stream except the
  // selector, whose judge/gate passes replay its updates on a clone.
  auto *Mixture = dynamic_cast<core::MixtureOfExperts *>(Policy.get());
  MixtureParts Parts;
  if (!Mixture || !Parts.bind(*Mixture)) {
    Out.fail(C.Decisions, "decide: the mixture is not the standard linear "
                        "shared-scaler one the stage decomposition mirrors");
    return Out;
  }
  const size_t K = Parts.Experts->size();

  // Inputs of the later stages, precomputed so each stage times alone:
  // standardised features, and the judge's per-expert errors (decision I
  // judges the env predictions made at decision I - 1).
  std::vector<std::vector<Vec>> Std(C.Runs.size()), Errors(C.Runs.size());
  Vec Env(K), Weights, Raw(K);
  for (size_t R = 0; R < C.Runs.size(); ++R) {
    const auto &Features = C.Runs[R]->Features;
    Std[R].resize(Features.size());
    Errors[R].resize(Features.size());
    for (size_t I = 0; I < Features.size(); ++I) {
      Parts.Scaler->transformInto(Features[I].Values, Std[R][I]);
      if (I + 1 < Features.size()) {
        LinearModel::predictMany(Parts.EnvModels.data(), K,
                                 Features[I].Values, Env.data());
        Errors[R][I + 1].resize(K);
        for (size_t E = 0; E < K; ++E)
          Errors[R][I + 1][E] =
              std::fabs(std::max(0.0, Env[E]) - Features[I + 1].EnvNorm);
      }
    }
  }

  // Check: the stages below, composed as select() composes them, give
  // select()'s answer for every captured decision.
  uint64_t StageMismatches = 0;
  for (size_t R = 0; R < C.Runs.size(); ++R) {
    const CapturedRun &Run = *C.Runs[R];
    Parts.Selector->reset();
    for (size_t I = 0; I < Run.Features.size(); ++I) {
      const policy::FeatureVector &F = Run.Features[I];
      if (I > 0)
        Parts.Selector->update(Run.Features[I - 1].Values, Errors[R][I]);
      unsigned Threads;
      if (Parts.Selector->blendWeights(F.Values, Weights)) {
        LinearModel::predictStandardizedMany(Parts.ThreadModels.data(), K,
                                             Std[R][I], Raw.data());
        double Blend = 0.0;
        for (size_t E = 0; E < K; ++E)
          Blend += Weights[E] *
                   static_cast<double>(std::clamp<long>(
                       std::lround(Raw[E]), 1, static_cast<long>(F.MaxThreads)));
        Threads = static_cast<unsigned>(std::clamp<long>(
            std::lround(Blend), 1, static_cast<long>(F.MaxThreads)));
      } else {
        Threads = (*Parts.Experts)[Parts.Selector->select(F.Values)]
                      .predictThreads(F);
      }
      StageMismatches += Threads != Run.Raw[I];
    }
  }
  if (StageMismatches)
    Out.fail(StageMismatches, std::to_string(StageMismatches) +
                                  " decisions: the stage decomposition does "
                                  "not reproduce MixtureOfExperts::select");

  // Stage passes, interleaved so drift spreads evenly over the stages.
  double Sink = 0.0;
  Vec Scratch;
  StageClock Clock;
  auto ForEach = [&](auto &&Body) {
    for (size_t R = 0; R < C.Runs.size(); ++R)
      for (size_t I = 0; I < C.Runs[R]->Features.size(); ++I)
        Body(R, I);
  };
  auto Judge = [&](bool Gate) {
    for (size_t R = 0; R < C.Runs.size(); ++R) {
      const auto &Features = C.Runs[R]->Features;
      Parts.Selector->reset();
      for (size_t I = 0; I < Features.size(); ++I) {
        if (I > 0)
          Parts.Selector->update(Features[I - 1].Values, Errors[R][I]);
        if (Gate && Parts.Selector->blendWeights(Features[I].Values, Weights))
          Sink += Weights[0];
      }
    }
  };
  Budget.restart();
  do {
    Rotation.beforePass();
    Clock.time("decision", [&] {
      for (const auto &Run : C.Runs) {
        Policy->reset();
        for (const policy::FeatureVector &F : Run->Features)
          Sink += Policy->select(F);
      }
    });
    Clock.time("spans", [&] {
      double Spans = 0.0;
      for (const auto &Run : C.Runs) {
        Policy->reset();
        for (const policy::FeatureVector &F : Run->Features) {
          Stopwatch W;
          Sink += Policy->select(F);
          Spans += W.seconds();
        }
      }
      Sink += Spans;
    });
    Clock.time("standardise", [&] {
      ForEach([&](size_t R, size_t I) {
        Parts.Scaler->transformInto(C.Runs[R]->Features[I].Values, Scratch);
        Sink += Scratch[0];
      });
    });
    Clock.time("thread_score", [&] {
      ForEach([&](size_t R, size_t I) {
        LinearModel::predictStandardizedMany(Parts.ThreadModels.data(), K,
                                             Std[R][I], Raw.data());
        Sink += Raw[0];
      });
    });
    Clock.time("env_predict", [&] {
      ForEach([&](size_t R, size_t I) {
        LinearModel::predictMany(Parts.EnvModels.data(), K,
                                 C.Runs[R]->Features[I].Values, Env.data());
        Sink += Env[0];
      });
    });
    Clock.time("judge", [&] { Judge(false); });
    Clock.time("judge_gate", [&] { Judge(true); });
    Clock.time("clamp", [&] {
      ForEach([&](size_t R, size_t I) {
        Sink += runtime::threadCeiling(C.Runs[R]->Features[I]);
      });
    });
  } while (Budget.seconds() < Options.Seconds / 2);
  if (!std::isfinite(Sink))
    Out.fail(1, "decide: non-finite stage output");

  const double PerDecisionNs = 1e9 / static_cast<double>(C.Decisions);
  const double DecisionNs = Clock.fastestOf("decision") * PerDecisionNs;
  const double StandardiseNs = Clock.fastestOf("standardise") * PerDecisionNs;
  const double ThreadScoreNs = Clock.fastestOf("thread_score") * PerDecisionNs;
  const double EnvPredictNs = Clock.fastestOf("env_predict") * PerDecisionNs;
  const double JudgeNs = Clock.fastestOf("judge") * PerDecisionNs;
  const double GateNs =
      Clock.fastestOf("judge_gate") * PerDecisionNs - JudgeNs;
  Out.add("core.decision_ns", DecisionNs, "ns");
  Out.add("ml.standardise_ns", StandardiseNs, "ns");
  Out.add("ml.thread_score_ns", ThreadScoreNs, "ns");
  Out.add("ml.env_predict_ns", EnvPredictNs, "ns");
  Out.add("core.judge_ns", JudgeNs, "ns");
  Out.add("core.gate_ns", GateNs, "ns");
  Out.add("core.unattributed_ns",
          DecisionNs -
              (StandardiseNs + ThreadScoreNs + EnvPredictNs + JudgeNs + GateNs),
          "ns");
  Out.add("runtime.clamp_ns", Clock.fastestOf("clamp") * PerDecisionNs, "ns");
  Out.add("bench.trace_overhead_ratio.decide",
          Clock.fastestOf("spans") / Clock.fastestOf("decision"), "ratio");
  Out.Unmeasured.push_back(
      {"policy.build_features_ns",
       "buildFeatures runs inside the runtime::bindPolicy chooser, which "
       "the benchmark cannot time from outside the program"});
  return Out;
}
