//===-- perfbench/Grid.cpp - The Fig 8 grid workload ----------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The paper-reproduction workload: every dynamic scenario x evaluation
// target x standard policy, against the default-policy baselines, three
// repeats per cell (Fig 8's grid). It is bound by the simulator and
// exp::Driver; the mixture's decisions are a few percent of it.
//
// One operation is one co-execution run. Each (scenario, target) row of
// Figs 9-12 -- its baseline and policy cells for every workload set -- is
// executed and timed as one Driver::measureCells plan. One latency sample
// is one scenario's panel of those figures: the sum of its rows' times.
// Single rows (4-10 ms) are too short for steady percentiles: over five
// runs the median row's time spread more than twice as much as a sweep's.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "exp/Reporter.h"
#include "support/Statistics.h"
#include "workload/Catalog.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

using namespace medley;
using namespace medley::perfbench;

namespace {

const std::vector<std::string> &policyNames() {
  return exp::PolicySet::standardPolicies();
}

/// Deterministic counts of a set of co-execution runs.
struct RunCounts {
  uint64_t Runs = 0;
  uint64_t Decisions = 0;
  uint64_t SimTicks = 0; ///< Simulated target time in ticks.
  /// Runs whose target hit exp::Driver's MaxTime cap. Fig 8 prices them at
  /// MaxTime by design (some default-policy baselines in the large
  /// scenarios), so they are a deterministic output, not a failure.
  uint64_t Capped = 0;
  uint64_t Failed = 0; ///< Runs that threw even after exp::Driver's retries.

  void add(const exp::Measurement &M, double Tick) {
    for (const runtime::CoExecutionResult &Run : M.Runs) {
      ++Runs;
      Decisions += Run.TargetDecisions.size();
      SimTicks += static_cast<uint64_t>(std::llround(Run.TargetTime / Tick));
      Capped += Run.TargetFinished ? 0 : 1;
    }
    Failed += M.Failures.size();
  }
};

/// Speedups of every standard policy on \p Target in \p Scen — the cell
/// layout of exp::computeSpeedupMatrix restricted to one target, so the
/// values are bit-identical to that figure's row.
std::vector<double> measureRow(exp::Driver &D, exp::PolicySet &Policies,
                               const std::string &Target,
                               const exp::Scenario &Scen, RunCounts &Counts) {
  const auto Sets = setsOf(Scen);
  std::vector<policy::PolicyFactory> Factories;
  Factories.reserve(policyNames().size());
  std::vector<exp::CellSpec> Cells;
  for (const std::string &Policy : policyNames()) {
    Factories.push_back(Policies.factory(Policy));
    for (const workload::WorkloadSet *Set : Sets) {
      exp::CellSpec Base;
      Base.Target = Target;
      Base.Scen = &Scen;
      Base.Set = Set;
      Cells.push_back(Base);
      exp::CellSpec Cell = Base;
      Cell.Factory = &Factories.back();
      Cells.push_back(Cell);
    }
  }
  auto Results = D.measureCells(Cells);

  // Baseline cells of one set alias one measurement: count each once.
  std::vector<const exp::Measurement *> Seen;
  for (const auto &M : Results)
    if (std::find(Seen.begin(), Seen.end(), M.get()) == Seen.end()) {
      Seen.push_back(M.get());
      Counts.add(*M, D.options().Tick);
    }

  std::vector<double> Row;
  size_t Next = 0;
  for (size_t P = 0; P < policyNames().size(); ++P) {
    std::vector<double> PerSet;
    for (size_t S = 0; S < Sets.size(); ++S, Next += 2)
      PerSet.push_back(Results[Next]->MeanTargetTime /
                       Results[Next + 1]->MeanTargetTime);
    Row.push_back(harmonicMean(PerSet));
  }
  return Row;
}

/// The traced form of measureRow: one Driver::defaultMeasurement per
/// baseline and one Driver::measure per policy cell, each timed.
std::vector<double> measureRowTraced(exp::Driver &D, exp::PolicySet &Policies,
                                     const std::string &Target,
                                     const exp::Scenario &Scen,
                                     std::map<std::string, std::vector<double>>
                                         &CellMs) {
  const auto Sets = setsOf(Scen);
  std::vector<double> BaseTimes;
  for (const workload::WorkloadSet *Set : Sets) {
    Stopwatch W;
    BaseTimes.push_back(D.defaultMeasurement(Target, Scen, Set)->MeanTargetTime);
    CellMs["default"].push_back(W.seconds() * 1e3);
  }
  std::vector<double> Row;
  for (const std::string &Policy : policyNames()) {
    policy::PolicyFactory Factory = Policies.factory(Policy);
    std::vector<double> PerSet;
    for (size_t S = 0; S < Sets.size(); ++S) {
      Stopwatch W;
      exp::Measurement M = D.measure(Target, Factory, Scen, Sets[S]);
      CellMs[Policy].push_back(W.seconds() * 1e3);
      PerSet.push_back(BaseTimes[S] / M.MeanTargetTime);
    }
    Row.push_back(harmonicMean(PerSet));
  }
  return Row;
}

bool sameBits(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

} // namespace

GridShape::GridShape(bool Tiny)
    : Scenarios(exp::Scenario::dynamicScenarios()),
      Targets(workload::Catalog::evaluationTargets()) {
  if (Tiny) {
    Scenarios.resize(1);
    Targets.resize(3);
  }
}

std::vector<const workload::WorkloadSet *>
medley::perfbench::setsOf(const exp::Scenario &Scen) {
  std::vector<const workload::WorkloadSet *> Sets;
  for (const workload::WorkloadSet &Set : Scen.workloadSets())
    Sets.push_back(&Set);
  if (Sets.empty())
    Sets.push_back(nullptr);
  return Sets;
}

std::unique_ptr<exp::PolicySet>
medley::perfbench::trainPolicies(const std::vector<std::string> &Names) {
  auto Policies = std::make_unique<exp::PolicySet>();
  for (const std::string &Name : Names)
    Policies->factory(Name);
  return Policies;
}

Outcome medley::perfbench::runGrid(const RunOptions &Options) {
  Outcome Out;
  const GridShape Shape(Options.Tiny);
  const std::vector<exp::Scenario> &Scenarios = Shape.Scenarios;
  const std::vector<std::string> &Targets = Shape.Targets;

  // Setup: expert training. It is repeated between sweeps (setupDue) so
  // setup_s sees the whole run.
  std::vector<double> SetupS;
  Stopwatch Train;
  std::unique_ptr<exp::PolicySet> Policies = trainPolicies(policyNames());
  SetupS.push_back(Train.seconds());

  exp::DriverOptions DriverOpts;
  DriverOpts.Jobs = 1;
  DriverOpts.Seed += Options.Seed;
  exp::Driver D(DriverOpts);

  // Reference: the Fig 8 path itself, one computeSpeedupMatrix per
  // scenario. Every later sweep must reproduce it bit for bit.
  std::vector<double> Reference;
  D.clearCache();
  for (const exp::Scenario &Scen : Scenarios) {
    exp::SpeedupMatrix M =
        exp::computeSpeedupMatrix(D, *Policies, Targets, policyNames(), Scen);
    for (const auto &Row : M.Values)
      Reference.insert(Reference.end(), Row.begin(), Row.end());
  }

  // The traced sweep: the same grid cell by cell, each Driver call timed.
  RunCounts First; // Counts of sweep 0, which every later sweep repeats.
  uint64_t FailedRuns = 0, Mismatched = 0;
  std::map<std::string, std::vector<double>> CellMs;
  auto TracedSweep = [&] {
    D.clearCache();
    std::vector<double> Values;
    Stopwatch W;
    for (const exp::Scenario &Scen : Scenarios)
      for (const std::string &Target : Targets) {
        std::vector<double> Row =
            measureRowTraced(D, *Policies, Target, Scen, CellMs);
        Values.insert(Values.end(), Row.begin(), Row.end());
      }
    double Elapsed = W.seconds();
    Out.Attempted += First.Runs;
    if (!sameBits(Values, Reference))
      Mismatched += First.Runs;
    return Elapsed;
  };

  // Under --trace, every untraced sweep is followed by a traced one, so
  // both see the same host and their time ratio is the tracing overhead.
  RepeatedTimes Rows;
  std::vector<double> Overhead;
  unsigned Sweeps = 0;
  uint64_t CacheHits = 0, CacheLookups = 0;
  CpuRotation Rotation;
  Stopwatch Budget;
  do {
    Rotation.beforePass();
    if (setupDue(SetupS.size(), Budget.seconds(), Options.Seconds)) {
      Train.restart();
      trainPolicies(policyNames());
      SetupS.push_back(Train.seconds());
    }
    D.clearCache();
    exp::BaselineCache::instance().resetCounters();
    RunCounts Sweep;
    std::vector<double> Values;
    double SweepTime = 0.0;
    size_t Position = 0;
    for (const exp::Scenario &Scen : Scenarios)
      for (const std::string &Target : Targets) {
        Stopwatch W;
        std::vector<double> Row =
            measureRow(D, *Policies, Target, Scen, Sweep);
        double Elapsed = W.seconds();
        Rows.record(Position++, Elapsed);
        SweepTime += Elapsed;
        Values.insert(Values.end(), Row.begin(), Row.end());
      }
    CacheHits += exp::BaselineCache::instance().hits();
    CacheLookups += exp::BaselineCache::instance().hits() +
                    exp::BaselineCache::instance().misses();
    if (Sweeps == 0)
      First = Sweep;
    Out.Attempted += Sweep.Runs;
    FailedRuns += Sweep.Failed;
    if (!sameBits(Values, Reference) || Sweep.Runs != First.Runs ||
        Sweep.Decisions != First.Decisions ||
        Sweep.SimTicks != First.SimTicks || Sweep.Capped != First.Capped)
      Mismatched += Sweep.Runs - Sweep.Failed;
    ++Sweeps;
    if (Options.Trace)
      Overhead.push_back(TracedSweep() / SweepTime);
  } while (Budget.seconds() < Options.Seconds ||
           SetupS.size() < SetupSamples);
  if (FailedRuns)
    Out.fail(FailedRuns, std::to_string(FailedRuns) +
                             " co-execution runs failed in exp::Driver");
  if (Mismatched)
    Out.fail(Mismatched,
             "grid: " + std::to_string(Mismatched) +
                 " runs in sweeps whose speedups or run, decision and tick "
                 "counts differ from the computeSpeedupMatrix reference");

  // Fig 8's aggregates, from the reference grid.
  const size_t NumP = policyNames().size();
  const size_t MixP =
      std::find(policyNames().begin(), policyNames().end(), "mixture") -
      policyNames().begin();
  std::vector<double> MixtureAll;
  double MarginMin = 0.0;
  for (size_t S = 0; S < Scenarios.size(); ++S) {
    std::vector<double> Hmeans;
    for (size_t P = 0; P < NumP; ++P) {
      std::vector<double> Column;
      for (size_t T = 0; T < Targets.size(); ++T)
        Column.push_back(Reference[(S * Targets.size() + T) * NumP + P]);
      Hmeans.push_back(harmonicMean(Column));
      if (P == MixP)
        MixtureAll.insert(MixtureAll.end(), Column.begin(), Column.end());
    }
    double BestBaseline = 1.0; // The default policy, by definition.
    for (size_t P = 0; P < NumP; ++P)
      if (P != MixP)
        BestBaseline = std::max(BestBaseline, Hmeans[P]);
    double Margin = Hmeans[MixP] / BestBaseline;
    MarginMin = S == 0 ? Margin : std::min(MarginMin, Margin);
  }

  uint64_t Digest = support::fnv1aInit();
  for (double V : Reference)
    Digest = digest(Digest, V);
  Digest = digest(Digest, First.Runs);
  Digest = digest(Digest, First.Decisions);
  Digest = digest(Digest, First.SimTicks);
  Digest = digest(Digest, First.Capped);
  Out.Digest = Digest;

  Out.add("setup_s", fastest(SetupS), "s");
  const double Fastest = Rows.fastestPass();
  const std::vector<double> RowMs = Rows.fastestMs();
  std::vector<double> PanelMs(Scenarios.size(), 0.0);
  for (size_t R = 0; R < RowMs.size(); ++R)
    PanelMs[R / Targets.size()] += RowMs[R];
  Out.add("ops_per_s", static_cast<double>(First.Runs) / Fastest, "1/s");
  Out.add("decisions_per_s", static_cast<double>(First.Decisions) / Fastest,
          "1/s");
  Out.add("latency_ms_p50", quantile(PanelMs, 0.50), "ms");
  Out.add("latency_ms_p90", quantile(PanelMs, 0.90), "ms");
  Out.add("exp.policyset.train_s", fastest(SetupS), "s");
  Out.add("exp.mixture_speedup_hmean", harmonicMean(MixtureAll), "x");
  Out.add("exp.mixture_margin_min", MarginMin, "ratio");
  Out.add("exp.baseline_cache.hit_ratio",
          CacheLookups ? static_cast<double>(CacheHits) / CacheLookups : 0.0,
          "ratio");
  Out.add("exp.baseline_cache.lookups_per_sweep",
          static_cast<double>(CacheLookups) / Sweeps, "count");
  Out.add("sim.ticks_per_run",
          static_cast<double>(First.SimTicks) / First.Runs, "count");
  Out.add("sim.ns_per_sim_tick", Fastest * 1e9 / First.SimTicks, "ns");
  Out.add("sim.capped_runs_per_sweep", static_cast<double>(First.Capped),
          "count");

  if (!Options.Trace)
    return Out;
  Out.add("exp.driver.cell_ms.default", mean(CellMs["default"]), "ms");
  for (const std::string &Policy : policyNames())
    Out.add("exp.driver.cell_ms." + Policy, mean(CellMs[Policy]), "ms");
  Out.add("bench.trace_overhead_ratio.grid", median(Overhead), "ratio");
  return Out;
}
