//===-- bench/bench_hotpath_decision.cpp - Decision hot-path latency ------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// Microbenchmark of the per-region decision hot path: ns/decision and
// decisions/sec for every selector kind (one decision = select + update,
// the steady-state work a selector does per judged region), the full
// mixture policy (judge + gate + expert predictions), and ticks/sec for
// the simulation loop. Results are written to BENCH_hotpath.json in the
// working directory.
//
//   bench_hotpath_decision [--smoke] [--golden FILE] [--grid FILE]
//                          [--jobs N]
//
// --smoke        tiny pass end-to-end; used by the `bench-smoke` ctest
//                label as a fast check that the hot path still runs, and
//                fails on any steady-tick heap allocation
// --golden FILE  write the deterministic mixture decision sequence (one
//                thread count per line) instead of timing; byte-comparing
//                two builds' files proves the decision path unchanged
// --grid FILE    write a full-precision (17 significant digits) smallLow
//                speedup grid instead of timing; --jobs sets the worker
//                count so grids can be compared across job counts
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "CountingAllocator.h"

#include "core/ExpertSelector.h"
#include "policy/Features.h"
#include "runtime/CoExecution.h"
#include "sim/AvailabilityPattern.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "workload/Catalog.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

using namespace medley;

namespace {

constexpr size_t NumExperts = 4;

/// Deterministic synthetic feature stream with realistic ranges (code
/// features in [0, 1], environment features on the evaluation platform's
/// scales). The same seed always produces the same stream.
std::vector<policy::FeatureVector> makeFeatureStream(size_t N,
                                                     uint64_t Seed) {
  Rng Gen(Seed);
  std::vector<policy::FeatureVector> Stream;
  Stream.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    policy::FeatureVector F;
    F.Values = {Gen.uniform(0.1, 1.0),  Gen.uniform(0.2, 1.0),
                Gen.uniform(0.05, 0.5), Gen.uniform(0.0, 24.0),
                Gen.uniform(4.0, 32.0), Gen.uniform(0.0, 48.0),
                Gen.uniform(0.0, 32.0), Gen.uniform(0.0, 32.0),
                Gen.uniform(0.0, 1.0),  Gen.uniform(0.0, 0.1)};
    F.EnvNorm = Gen.uniform(0.2, 2.0);
    F.Now = static_cast<double>(I) * 0.1;
    F.MaxThreads = 32;
    Stream.push_back(std::move(F));
  }
  return Stream;
}

/// Per-stream-entry synthetic environment-prediction errors fed to the
/// selectors' update step (precomputed so the timed loop measures only
/// the selector).
std::vector<Vec> makeErrorStream(size_t N, uint64_t Seed) {
  Rng Gen(Seed);
  std::vector<Vec> Errors;
  Errors.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    Vec E(NumExperts);
    for (double &X : E)
      X = Gen.uniform(0.0, 1.5);
    Errors.push_back(std::move(E));
  }
  return Errors;
}

/// A plausible 10-feature scaler so standardisation does real arithmetic
/// (the identity scaler would undersell the transform cost).
FeatureScaler benchScaler() {
  return FeatureScaler::fromMoments(
      {0.5, 0.6, 0.25, 12.0, 16.0, 20.0, 8.0, 8.0, 0.5, 0.05},
      {0.3, 0.3, 0.15, 8.0, 10.0, 14.0, 6.0, 6.0, 0.3, 0.03});
}

std::unique_ptr<core::ExpertSelector>
makeSelector(const std::string &Kind) {
  if (Kind == "perceptron")
    return std::make_unique<core::PerceptronSelector>(NumExperts,
                                                      benchScaler());
  if (Kind == "hyperplane")
    return std::make_unique<core::HyperplaneSelector>(NumExperts,
                                                      benchScaler());
  if (Kind == "accuracy")
    return std::make_unique<core::AccuracySelector>(NumExperts);
  if (Kind == "binned")
    return std::make_unique<core::BinnedAccuracySelector>(NumExperts,
                                                          benchScaler());
  if (Kind == "regime")
    return std::make_unique<core::RegimeSelector>(
        std::vector<int>{0, 0, 1, 1});
  if (Kind == "random")
    return std::make_unique<core::RandomSelector>(NumExperts, 42);
  std::cerr << "unknown selector kind " << Kind << '\n';
  std::exit(2);
}

struct Rate {
  double NsPerOp = 0.0;
  double OpsPerSec = 0.0;
};

Rate rateOf(double Seconds, size_t Ops) {
  Rate R;
  R.NsPerOp = Seconds * 1e9 / static_cast<double>(Ops);
  R.OpsPerSec = static_cast<double>(Ops) / Seconds;
  return R;
}

/// Times select + update sweeps of one selector over the stream and keeps
/// the fastest sweep: the minimum is robust against scheduler interference
/// on shared machines, where an average would absorb every preemption. The
/// checksum keeps the compiler from hollowing out the loop.
Rate timeSelector(core::ExpertSelector &S,
                  const std::vector<policy::FeatureVector> &Stream,
                  const std::vector<Vec> &Errors, int Sweeps,
                  size_t &Checksum) {
  double Best = std::numeric_limits<double>::infinity();
  for (int Sweep = 0; Sweep < Sweeps; ++Sweep) {
    S.reset();
    auto Start = std::chrono::steady_clock::now();
    for (size_t I = 0; I < Stream.size(); ++I) {
      Checksum += S.select(Stream[I].Values);
      S.update(Stream[I].Values, Errors[I]);
    }
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - Start;
    Best = std::min(Best, Elapsed.count());
  }
  return rateOf(Best, Stream.size());
}

/// Times full mixture-policy decisions (judge previous + gate + expert
/// predictions) over the stream; fastest sweep, as above.
Rate timeMixture(policy::ThreadPolicy &Policy,
                 const std::vector<policy::FeatureVector> &Stream,
                 int Sweeps, size_t &Checksum) {
  double Best = std::numeric_limits<double>::infinity();
  for (int Sweep = 0; Sweep < Sweeps; ++Sweep) {
    Policy.reset();
    auto Start = std::chrono::steady_clock::now();
    for (const policy::FeatureVector &F : Stream)
      Checksum += Policy.select(F);
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - Start;
    Best = std::min(Best, Elapsed.count());
  }
  return rateOf(Best, Stream.size());
}

runtime::CoExecutionConfig tickLoopConfig() {
  runtime::CoExecutionConfig Config;
  Config.Machine = sim::MachineConfig::evaluationPlatform();
  Config.Availability = [] {
    return sim::PeriodicAvailability::standardLadder(32, 20.0, 42);
  };
  Config.WorkloadSeed = 42;
  return Config;
}

/// Times the simulation tick loop end-to-end: repeated co-executions of
/// the target under the mixture policy, reported as simulated ticks per
/// wall-clock second. With \p RecordTraces the loop additionally appends
/// one columnar trace row per tick (the sim_loop_traced metric).
Rate timeTickLoop(int Runs, size_t &Checksum, bool RecordTraces = false,
                  const std::string &PolicyName = "mixture") {
  runtime::CoExecutionConfig Config = tickLoopConfig();
  Config.RecordTraces = RecordTraces;
  exp::PolicySet &Policies = exp::PolicySet::instance();
  const workload::ProgramSpec &Target = workload::Catalog::byName("cg");
  std::vector<std::string> Workload = {"bt", "is"};

  double Best = std::numeric_limits<double>::infinity();
  for (int Run = 0; Run < Runs; ++Run) {
    auto Policy = Policies.factory(PolicyName)();
    auto Start = std::chrono::steady_clock::now();
    runtime::CoExecutionResult R = runCoExecution(
        Config, Target, *Policy, runtime::patternWorkload(Workload));
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - Start;
    double Ticks = R.TargetTime / Config.Tick;
    Best = std::min(Best, Elapsed.count() / Ticks);
    Checksum += R.TargetRegions + R.Trace.size();
  }
  return rateOf(Best, 1); // ns/tick, ticks/s
}

/// Heap allocations performed by one steady-state tick of the same
/// co-execution the tick loop times. The scenario is rebuilt from public
/// pieces (simulation + policy-bound target + pattern workloads, exactly
/// runCoExecution's construction), warmed up past the sticky-capacity
/// phase, then stepped tick by tick; the minimum per-tick count is the
/// steady-state figure — ticks that cross a region boundary or an
/// availability epoch may legitimately do more work.
size_t steadyTickAllocs() {
  runtime::CoExecutionConfig Config = tickLoopConfig();
  sim::Simulation Sim(Config.Machine, Config.Availability(), Config.Tick);
  unsigned TotalCores = Config.Machine.TotalCores;

  auto Policy = exp::PolicySet::instance().factory("mixture")();
  auto Target = std::make_shared<workload::Program>(
      workload::Catalog::byName("cg"),
      runtime::bindPolicy(*Policy, TotalCores), TotalCores,
      /*Looping=*/false);
  Target->setRegionObserver(runtime::bindObserver(*Policy));
  Sim.addTask(Target);

  uint64_t Seed = Config.WorkloadSeed;
  for (const char *Name : {"bt", "is"}) {
    Seed = Seed * 6364136223846793005ULL + 1442695040888963407ULL;
    auto Prog = std::make_shared<workload::Program>(
        workload::Catalog::byName(Name),
        workload::ThreadPattern::makeChooser(
            Seed, Config.WorkloadMinThreads, Config.WorkloadMaxThreads,
            Config.WorkloadChangePeriod),
        TotalCores, /*Looping=*/true);
    Sim.addTask(Prog);
  }

  for (int I = 0; I < 32; ++I)
    Sim.step();
  size_t Min = std::numeric_limits<size_t>::max();
  for (int I = 0; I < 64; ++I) {
    size_t Before = bench::allocationCount();
    Sim.step();
    Min = std::min(Min, bench::allocationCount() - Before);
  }
  return Min;
}

int writeGolden(const std::string &Path) {
  // A fresh mixture instance driven over the deterministic stream: any
  // change to feature assembly, gating, blending or expert prediction
  // shows up as a different thread count somewhere in 512 decisions.
  auto Policy = exp::PolicySet::instance().factory("mixture")();
  std::vector<policy::FeatureVector> Stream =
      makeFeatureStream(512, 0x5EEDULL);
  std::ofstream Out(Path);
  if (!Out) {
    std::cerr << "cannot write " << Path << '\n';
    return 2;
  }
  for (const policy::FeatureVector &F : Stream)
    Out << Policy->select(F) << '\n';
  std::cout << "wrote " << Path << " (512 mixture decisions)\n";
  return 0;
}

int writeGrid(const std::string &Path, unsigned Jobs) {
  // The acceptance check for the allocation-free refactor: the smallLow
  // speedup grid, dumped at full precision, must stay byte-identical at
  // any --jobs value.
  exp::DriverOptions Options;
  Options.Jobs = Jobs;
  exp::Driver Driver(Options);
  exp::SpeedupMatrix Matrix = exp::computeSpeedupMatrix(
      Driver, exp::PolicySet::instance(),
      workload::Catalog::evaluationTargets(),
      exp::PolicySet::standardPolicies(), exp::Scenario::smallLow());

  std::ofstream Out(Path);
  if (!Out) {
    std::cerr << "cannot write " << Path << '\n';
    return 2;
  }
  Out << std::setprecision(17);
  for (size_t T = 0; T < Matrix.Targets.size(); ++T)
    for (size_t P = 0; P < Matrix.Policies.size(); ++P)
      Out << Matrix.Targets[T] << ',' << Matrix.Policies[P] << ','
          << Matrix.Values[T][P] << '\n';
  std::vector<double> Hmean = Matrix.hmeanPerPolicy();
  for (size_t P = 0; P < Matrix.Policies.size(); ++P)
    Out << "hmean," << Matrix.Policies[P] << ',' << Hmean[P] << '\n';
  std::cout << "wrote " << Path << " (jobs=" << Jobs << ")\n";
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  unsigned Jobs = 4;
  std::string GoldenPath, GridPath;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--smoke")
      Smoke = true;
    else if (Arg == "--golden" && I + 1 < Argc)
      GoldenPath = Argv[++I];
    else if (Arg == "--grid" && I + 1 < Argc)
      GridPath = Argv[++I];
    else if (Arg == "--jobs" && I + 1 < Argc)
      Jobs = static_cast<unsigned>(bench::flagValue(
          "jobs", Argv[++I], 0, support::ThreadPool::maxSaneJobs()));
    else {
      std::cerr << "usage: bench_hotpath_decision [--smoke] "
                   "[--golden FILE] [--grid FILE] [--jobs N]\n";
      return 1;
    }
  }

  if (!GoldenPath.empty())
    return writeGolden(GoldenPath);
  if (!GridPath.empty())
    return writeGrid(GridPath, Jobs);

  const size_t StreamLen = Smoke ? 256 : 4096;
  const int SelectorSweeps = Smoke ? 2 : 200;
  const int MixtureSweeps = Smoke ? 1 : 25;
  // Each tick-loop run is only ~100us of wall clock; a deep min flattens
  // scheduler noise on shared machines.
  const int TickRuns = Smoke ? 1 : 20;

  bench::printBanner(
      "decision hot-path latency",
      "not a paper claim — tracks ns/decision of the mapping hot path");

  std::vector<policy::FeatureVector> Stream =
      makeFeatureStream(StreamLen, 0xDECADEULL);
  std::vector<Vec> Errors = makeErrorStream(StreamLen, 0xE44044ULL);

  const std::vector<std::string> Kinds = {"perceptron", "hyperplane",
                                          "accuracy",   "binned",
                                          "regime",     "random"};
  size_t Checksum = 0;
  std::vector<Rate> SelectorRates;
  for (const std::string &Kind : Kinds) {
    auto S = makeSelector(Kind);
    Rate R = timeSelector(*S, Stream, Errors, SelectorSweeps, Checksum);
    SelectorRates.push_back(R);
    std::cout << "  " << padRight(Kind, 11) << "  "
              << padLeft(formatDouble(R.NsPerOp, 1), 9) << " ns/decision  "
              << padLeft(formatDouble(R.OpsPerSec / 1e6, 2), 7)
              << " Mdecisions/s\n";
  }

  // The real trained mixture (training is a one-off untimed process cost).
  auto Mixture = exp::PolicySet::instance().factory("mixture")();
  Rate MixtureRate = timeMixture(*Mixture, Stream, MixtureSweeps, Checksum);
  std::cout << "  " << padRight("mixture", 11) << "  "
            << padLeft(formatDouble(MixtureRate.NsPerOp, 1), 9)
            << " ns/decision  "
            << padLeft(formatDouble(MixtureRate.OpsPerSec / 1e6, 2), 7)
            << " Mdecisions/s\n";

  Rate TickRate = timeTickLoop(TickRuns, Checksum);
  std::cout << "  " << padRight("sim loop", 11) << "  "
            << padLeft(formatDouble(TickRate.NsPerOp, 1), 9) << " ns/tick      "
            << padLeft(formatDouble(TickRate.OpsPerSec / 1e3, 2), 7)
            << " Kticks/s\n";

  Rate TracedRate = timeTickLoop(TickRuns, Checksum, /*RecordTraces=*/true);
  std::cout << "  " << padRight("sim traced", 11) << "  "
            << padLeft(formatDouble(TracedRate.NsPerOp, 1), 9)
            << " ns/tick      "
            << padLeft(formatDouble(TracedRate.OpsPerSec / 1e3, 2), 7)
            << " Kticks/s\n";

  // The same loop under the trivial OpenMP-default policy: no gating, no
  // expert predictions, so this isolates the tick machinery (SoA columns,
  // reduction caches, steady fast path) from decision latency.
  Rate MachineryRate = timeTickLoop(TickRuns, Checksum,
                                    /*RecordTraces=*/false, "default");
  std::cout << "  " << padRight("sim steady", 11) << "  "
            << padLeft(formatDouble(MachineryRate.NsPerOp, 1), 9)
            << " ns/tick      "
            << padLeft(formatDouble(MachineryRate.OpsPerSec / 1e3, 2), 7)
            << " Kticks/s\n";

  size_t TickAllocs = steadyTickAllocs();
  std::cout << "  " << padRight("steady tick", 11) << "  "
            << padLeft(std::to_string(TickAllocs), 9)
            << " heap allocations\n";

  // Smoke runs are single noisy sweeps for sanitizer/CI coverage; writing
  // their numbers out would clobber the JSON the bench-compare gate reads.
  // Their allocation counts are exact, so they gate the zero-allocation
  // contract directly.
  if (Smoke) {
    std::cout << "\nsmoke run -- BENCH_hotpath.json not written\n";
    bool ZeroAllocs = bench::zeroAllocations("steady tick", TickAllocs);
    return Checksum == 0 || !ZeroAllocs ? 1 : 0;
  }

  std::ofstream Json("BENCH_hotpath.json");
  Json << "{\n  \"bench\": \"hotpath_decision\",\n  \"selectors\": {\n";
  for (size_t I = 0; I < Kinds.size(); ++I)
    Json << "    \"" << Kinds[I]
         << "\": {\"ns_per_decision\": " << SelectorRates[I].NsPerOp
         << ", \"decisions_per_sec\": " << SelectorRates[I].OpsPerSec
         << "}" << (I + 1 < Kinds.size() ? "," : "") << "\n";
  Json << "  },\n"
       << "  \"mixture\": {\"ns_per_decision\": " << MixtureRate.NsPerOp
       << ", \"decisions_per_sec\": " << MixtureRate.OpsPerSec << "},\n"
       << "  \"sim_loop\": {\"ns_per_tick\": " << TickRate.NsPerOp
       << ", \"ticks_per_sec\": " << TickRate.OpsPerSec
       << ", \"allocs_per_steady_tick\": " << TickAllocs << "},\n"
       << "  \"sim_loop_traced\": {\"ns_per_tick\": " << TracedRate.NsPerOp
       << ", \"ticks_per_sec\": " << TracedRate.OpsPerSec << "},\n"
       << "  \"sim_machinery\": {\"ns_per_tick\": " << MachineryRate.NsPerOp
       << ", \"ticks_per_sec\": " << MachineryRate.OpsPerSec << "},\n"
       << "  \"checksum\": " << Checksum << "\n}\n";
  std::cout << "\nwrote BENCH_hotpath.json\n";
  return Checksum == 0 ? 1 : 0;
}
