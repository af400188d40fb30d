//===-- bench/bench_micro_overhead.cpp - Decision-latency microbenchmark --------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// Supports Result 1 ("the mixtures approach adds no overhead"): measures
// the per-decision latency of every policy's select() with google-
// benchmark. A parallel region in the evaluation runs for hundreds of
// milliseconds; decisions in the nanosecond-to-microsecond range are
// negligible, including the mixture's extra environment predictions and
// selector update. The per-selector cases time one judged decision of each
// selector kind (select + update), the cost side of the selector ablation.
// Every figure here is report-only: perfbench's paired runs judge speed
// changes (DESIGN.md §8).
//
//===----------------------------------------------------------------------===//

#include "core/MixtureOfExperts.h"
#include "core/Oracle.h"
#include "exp/PolicySet.h"
#include "policy/Features.h"
#include "support/Random.h"
#include "workload/Catalog.h"
#include "sim/Simulation.h"
#include "workload/ThreadPattern.h"

#include <benchmark/benchmark.h>

using namespace medley;

namespace {

policy::FeatureVector sampleFeatures() {
  policy::FeatureVector F;
  F.Values = {0.3, 0.4, 0.1, 20.0, 24.0, 35.0, 30.0, 28.0, 0.85, 0.02};
  F.EnvNorm = 1.8;
  F.Now = 10.0;
  F.MaxThreads = 32;
  return F;
}

void policySelect(benchmark::State &State, const std::string &Name) {
  auto Policy = exp::PolicySet::instance().factory(Name)();
  policy::FeatureVector F = sampleFeatures();
  for (auto _ : State) {
    benchmark::DoNotOptimize(Policy->select(F));
    F.EnvNorm += 0.001; // Vary the judged environment slightly.
    if (F.EnvNorm > 3.0)
      F.EnvNorm = 1.0;
  }
}

void BM_DefaultSelect(benchmark::State &State) {
  policySelect(State, "default");
}
void BM_OnlineSelect(benchmark::State &State) {
  policySelect(State, "online");
}
void BM_OfflineSelect(benchmark::State &State) {
  policySelect(State, "offline");
}
void BM_AnalyticSelect(benchmark::State &State) {
  policySelect(State, "analytic");
}
void BM_MixtureSelect(benchmark::State &State) {
  policySelect(State, "mixture");
}

void BM_MixtureSelect8Experts(benchmark::State &State) {
  auto Policy = exp::PolicySet::instance().mixtureFactory(8, "regime")();
  policy::FeatureVector F = sampleFeatures();
  for (auto _ : State)
    benchmark::DoNotOptimize(Policy->select(F));
}

constexpr unsigned NumExperts = 4;

/// One judged decision of a selector: pick an expert for the features,
/// then fold in the experts' environment errors. A fixed pseudo-random
/// stream with the evaluation platform's feature ranges drives it.
void selectorDecision(benchmark::State &State, const std::string &Kind) {
  constexpr size_t StreamLen = 4096;
  Rng Gen(0xDECADE);
  std::vector<Vec> Features, Errors;
  for (size_t I = 0; I < StreamLen; ++I) {
    Features.push_back({Gen.uniform(0.1, 1.0), Gen.uniform(0.2, 1.0),
                        Gen.uniform(0.05, 0.5), Gen.uniform(0.0, 24.0),
                        Gen.uniform(4.0, 32.0), Gen.uniform(0.0, 48.0),
                        Gen.uniform(0.0, 32.0), Gen.uniform(0.0, 32.0),
                        Gen.uniform(0.0, 1.0), Gen.uniform(0.0, 0.1)});
    Vec E(NumExperts);
    for (double &X : E)
      X = Gen.uniform(0.0, 1.5);
    Errors.push_back(std::move(E));
  }
  // The deployed selector of this kind, with the mixture factory's trained
  // scaler and regime tags.
  auto Mixture = exp::PolicySet::instance().mixtureFactory(NumExperts, Kind)();
  auto Selector = static_cast<const core::MixtureOfExperts &>(*Mixture)
                      .selector()
                      .clone();
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Selector->select(Features[I]));
    Selector->update(Features[I], Errors[I]);
    I = (I + 1) % StreamLen;
  }
}

// Substrate throughput: one scheduler tick of an 8-program machine. Puts
// the policy latencies above in context (a tick covers 100 ms of simulated
// time).
void BM_SimulationTick(benchmark::State &State) {
  sim::Simulation Simulation(
      sim::MachineConfig::evaluationPlatform(),
      std::make_unique<sim::StaticAvailability>(32), 0.1);
  uint64_t Seed = 7;
  for (const char *Name : {"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}) {
    ++Seed;
    Simulation.addTask(std::make_shared<workload::Program>(
        workload::Catalog::byName(Name),
        workload::ThreadPattern::makeChooser(Seed, 2, 16, 5.0), 32,
        /*Looping=*/true));
  }
  for (auto _ : State)
    Simulation.step();
}

// Labelling cost: one empirical best-thread search (the training loop's
// inner step).
void BM_EmpiricalLabel(benchmark::State &State) {
  const workload::RegionSpec &R = workload::Catalog::byName("lu").Regions[1];
  sim::MachineConfig M = sim::MachineConfig::evaluationPlatform();
  core::OracleEnv Env;
  Env.AvailableCores = 24;
  Env.ExternalThreads = 30;
  Env.ExternalMemDemand = 12.0;
  Rng Generator(3);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        core::empiricalBestThreads(R, Env, M, Generator));
}

void BM_FeatureAssembly(benchmark::State &State) {
  const workload::ProgramSpec &Spec = workload::Catalog::byName("lu");
  workload::RegionContext Context;
  Context.Program = &Spec;
  Context.Region = &Spec.Regions[0];
  Context.Env.Processors = 24;
  Context.Env.RunQueue = 30;
  Context.MaxThreads = 32;
  for (auto _ : State)
    benchmark::DoNotOptimize(policy::buildFeatures(Context, 32));
}

} // namespace

BENCHMARK(BM_DefaultSelect);
BENCHMARK(BM_OnlineSelect);
BENCHMARK(BM_OfflineSelect);
BENCHMARK(BM_AnalyticSelect);
BENCHMARK(BM_MixtureSelect);
BENCHMARK(BM_MixtureSelect8Experts);
BENCHMARK_CAPTURE(selectorDecision, perceptron, std::string("perceptron"));
BENCHMARK_CAPTURE(selectorDecision, hyperplane, std::string("hyperplane"));
BENCHMARK_CAPTURE(selectorDecision, accuracy, std::string("accuracy"));
BENCHMARK_CAPTURE(selectorDecision, binned, std::string("binned"));
BENCHMARK_CAPTURE(selectorDecision, regime, std::string("regime"));
BENCHMARK_CAPTURE(selectorDecision, random, std::string("random"));
BENCHMARK(BM_SimulationTick);
BENCHMARK(BM_EmpiricalLabel);
BENCHMARK(BM_FeatureAssembly);

BENCHMARK_MAIN();
