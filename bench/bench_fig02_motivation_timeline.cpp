//===-- bench/bench_fig02_motivation_timeline.cpp - Figure 2 --------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// Figure 2: a snapshot of the dynamic system — target lu co-executing with
// workload mg while workload threads and available processors vary. The
// paper plots the thread counts chosen over time by the analytic policy,
// two single experts E1/E2, and the mixture, highlighting the analytic
// policy's delayed reaction and the mixture's expert switching.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "runtime/CoExecution.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "workload/Catalog.h"

#include <iostream>
#include <map>

using namespace medley;

namespace {

/// The Figure-2 environment: availability drops mid-run (t0), recovers,
/// and drops again — replayed identically for every policy.
runtime::CoExecutionConfig figure2Config() {
  runtime::CoExecutionConfig Config;
  Config.Machine = sim::MachineConfig::evaluationPlatform();
  Config.Availability = [] {
    return std::make_unique<sim::TraceAvailability>(
        std::vector<std::pair<double, unsigned>>{
            {0.0, 32}, {15.0, 16}, {35.0, 32}, {50.0, 8}, {65.0, 24}});
  };
  Config.WorkloadSeed = 0xF162;
  Config.WorkloadMaxThreads = 12;
  Config.RecordTraces = true;
  Config.MaxTime = 300.0;
  return Config;
}

/// Runs lu + mg under \p Factory and samples the chosen thread count every
/// \p Step seconds.
std::vector<unsigned> timeline(const policy::PolicyFactory &Factory,
                               double Horizon, double Step,
                               std::vector<runtime::TracePoint> *Trace) {
  runtime::CoExecutionConfig Config = figure2Config();
  auto Policy = Factory();
  runtime::CoExecutionResult Result = runCoExecution(
      Config, workload::Catalog::byName("lu"), *Policy,
      runtime::patternWorkload({"mg"}));

  std::vector<unsigned> Samples;
  size_t D = 0;
  for (double T = 0.0; T < Horizon; T += Step) {
    while (D + 1 < Result.TargetDecisions.size() &&
           Result.TargetDecisions[D + 1].Time <= T)
      ++D;
    Samples.push_back(
        Result.TargetDecisions.empty() ? 0
                                       : Result.TargetDecisions[D].Threads);
  }
  if (Trace)
    *Trace = std::move(Result.Trace);
  return Samples;
}

} // namespace

int main() {
  bench::printBanner(
      "Figure 2 (motivation timeline: lu vs mg)",
      "analytic reacts late to the availability drop at t0; the mixture "
      "switches between experts at the change points t1/t2");

  exp::PolicySet &Policies = exp::PolicySet::instance();
  const double Horizon = 70.0, Step = 2.5;

  std::map<std::string, std::vector<unsigned>> Rows;
  std::vector<runtime::TracePoint> Trace;
  Rows["analytic"] = timeline(Policies.factory("analytic"), Horizon, Step,
                              &Trace);
  // Section 3 uses the two-expert mixture: E1 and E2 individually, then
  // the mixture switching between them.
  Rows["expert E1"] =
      timeline(Policies.singleExpertFactory(2, 0), Horizon, Step, nullptr);
  Rows["expert E2"] =
      timeline(Policies.singleExpertFactory(2, 1), Horizon, Step, nullptr);
  Rows["mixture"] =
      timeline(Policies.mixtureFactory(2, "regime"), Horizon, Step, nullptr);

  // Top graph: workload threads and available cores over time.
  Table T("Environment and selected thread counts vs time (s)");
  T.addRow();
  T.addCell("t");
  for (double X = 0.0; X < Horizon; X += Step)
    T.addCell(formatDouble(X, 0));
  auto addEnvRow = [&](const std::string &Label, auto Extract) {
    T.addRow();
    T.addCell(Label);
    size_t I = 0;
    for (double X = 0.0; X < Horizon; X += Step) {
      while (I + 1 < Trace.size() && Trace[I + 1].Time <= X)
        ++I;
      T.addCell(Trace.empty() ? 0u : Extract(Trace[I]));
    }
  };
  addEnvRow("cores", [](const runtime::TracePoint &P) {
    return P.AvailableCores;
  });
  addEnvRow("workload", [](const runtime::TracePoint &P) {
    return P.WorkloadThreads;
  });
  for (const auto &[Name, Samples] : Rows) {
    T.addRow();
    T.addCell(Name);
    for (unsigned N : Samples)
      T.addCell(N);
  }
  T.print(std::cout);

  std::cout << "\nchange points: t0=15s (32->16 cores), t1=35s (recovery), "
               "t2=50s (32->8 cores)\n";
  return 0;
}
