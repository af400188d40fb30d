//===-- bench/bench_driver_throughput.cpp - Experiment-engine throughput --------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// Wall-clock throughput of the parallel experiment engine: executes one
// fig08-style cell grid sequentially (jobs=1) and pooled (jobs=N) and
// reports cells/sec for each, so the perf trajectory of the engine is
// tracked across PRs. Results are written to BENCH_driver.json in the
// working directory.
//
//   bench_driver_throughput [--jobs N] [--smoke]
//
// --jobs N   pooled worker count (default: 4, the CI reference point)
// --smoke    tiny figure end-to-end instead of the timed dual pass; used
//            by the `bench-smoke` ctest label as a fast e2e check
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "workload/Catalog.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace medley;

namespace {

struct GridShape {
  std::vector<std::string> Targets;
  std::vector<std::string> Policies;
  exp::Scenario Scen = exp::Scenario::smallLow();
  unsigned Repeats = 3;

  /// Simulated co-execution runs in the grid: per target, one baseline
  /// per set plus one cell per (policy, set), each repeated.
  size_t runCount() const {
    size_t Sets = Scen.workloadSets().size();
    return Targets.size() * (Policies.size() + 1) * Sets * Repeats;
  }
};

/// Grid sweeps per timed pass; one sweep is only tens of milliseconds, so
/// several are timed together to push the region well above clock noise.
constexpr int SweepsPerPass = 5;

/// Executes SweepsPerPass grid sweeps at \p Jobs workers and returns the
/// total wall-clock seconds. The baseline cache is cleared before every
/// sweep so each one does identical work.
double timeGrid(const GridShape &Grid, unsigned Jobs) {
  exp::DriverOptions Options;
  Options.Repeats = Grid.Repeats;
  Options.Jobs = Jobs;
  exp::Driver Driver(Options);
  auto Start = std::chrono::steady_clock::now();
  for (int Sweep = 0; Sweep < SweepsPerPass; ++Sweep) {
    Driver.clearCache();
    exp::computeSpeedupMatrix(Driver, exp::PolicySet::instance(),
                              Grid.Targets, Grid.Policies, Grid.Scen);
  }
  std::chrono::duration<double> Elapsed =
      std::chrono::steady_clock::now() - Start;
  return Elapsed.count();
}

int runSmoke() {
  // One tiny figure end-to-end: plan, pooled execution, baseline cache,
  // reduction and reporting all on the real path, small enough for CI.
  exp::SpeedupMatrix Matrix = bench::runSpeedupFigure(
      "bench-smoke (tiny Figure 9-style grid)",
      "smoke check only — exercises the parallel experiment engine, not a "
      "paper claim",
      exp::Scenario::smallLow());
  return Matrix.Values.empty() ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Jobs = 4;
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--smoke")
      Smoke = true;
    else if (Arg == "--jobs" && I + 1 < Argc)
      Jobs = static_cast<unsigned>(bench::flagValue(
          "jobs", Argv[++I], 0, support::ThreadPool::maxSaneJobs()));
    else {
      std::cerr << "usage: bench_driver_throughput [--jobs N] [--smoke]\n";
      return 1;
    }
  }

  if (Smoke)
    return runSmoke();

  bench::printBanner(
      "experiment-engine throughput",
      "not a paper claim — tracks cells/sec of the harness itself");

  GridShape Grid;
  Grid.Targets = workload::Catalog::evaluationTargets();
  Grid.Policies = exp::PolicySet::standardPolicies();
  size_t Runs = Grid.runCount() * SweepsPerPass;

  // Train the policies outside the timed region (one-off process cost).
  for (const std::string &Policy : Grid.Policies)
    exp::PolicySet::instance().factory(Policy);

  std::cout << "grid: " << Grid.Targets.size() << " targets x "
            << Grid.Policies.size() << " policies (+default baseline) x "
            << Grid.Scen.workloadSets().size() << " sets x " << Grid.Repeats
            << " repeats x " << SweepsPerPass << " sweeps = " << Runs
            << " cell runs\n\n";

  double Seq = timeGrid(Grid, 1);
  double SeqRate = Runs / Seq;
  std::cout << "jobs=1: " << formatDouble(Seq, 2) << " s  ("
            << formatDouble(SeqRate, 1) << " cells/sec)\n";

  double Par = timeGrid(Grid, Jobs);
  double ParRate = Runs / Par;
  std::cout << "jobs=" << Jobs << ": " << formatDouble(Par, 2) << " s  ("
            << formatDouble(ParRate, 1) << " cells/sec)\n";

  double Speedup = Seq / Par;
  std::cout << "pool speedup: " << formatDouble(Speedup, 2) << "x ("
            << support::ThreadPool::defaultJobs()
            << " hardware job(s) available)\n";

  std::ofstream Json("BENCH_driver.json");
  Json << "{\n"
       << "  \"bench\": \"driver_throughput\",\n"
       << "  \"cell_runs\": " << Runs << ",\n"
       << "  \"jobs1\": {\"seconds\": " << Seq
       << ", \"cells_per_sec\": " << SeqRate << "},\n"
       << "  \"jobsN\": {\"jobs\": " << Jobs << ", \"seconds\": " << Par
       << ", \"cells_per_sec\": " << ParRate << "},\n"
       << "  \"speedup\": " << Speedup << ",\n"
       << "  \"hardware_jobs\": " << support::ThreadPool::defaultJobs()
       << "\n}\n";
  std::cout << "\nwrote BENCH_driver.json\n";
  return 0;
}
