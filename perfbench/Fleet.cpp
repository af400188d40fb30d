//===-- perfbench/Fleet.cpp - The sharded fleet workload ------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The `medley fleet` shape: 16 shards, 10^5 tenants, 8 rounds x 25 ticks,
// churn with bursts and four unplug-storm shards, every tenant under the
// mixture. The only workload that exercises the FleetEngine mailbox, churn
// and reduction; about half its time is decisions, half simulator
// machinery.
//
// The benchmark drives the engine's public round phases (drainInbox,
// stepShard, runChurn) in FleetEngine::run()'s order on one thread, so it
// can time every shard-tick exactly; the first thing each process checks
// is that this loop reproduces FleetScenario::run()'s checksums. One
// operation is one shard-tick.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "exp/Fleet.h"
#include "support/Statistics.h"

#include <optional>

using namespace medley;
using namespace medley::perfbench;

namespace {

exp::FleetScenarioConfig fleetConfig(const RunOptions &Options,
                                     const std::string &Policy) {
  exp::FleetScenarioConfig Config;
  Config.Jobs = 1;
  Config.StormShards = 4;
  Config.Policy = Policy;
  Config.Seed += Options.Seed;
  if (Options.Tiny) {
    Config.Shards = 4;
    Config.Tenants = 4000;
    Config.Rounds = 4;
    Config.StormShards = 1;
  }
  return Config;
}

/// Host time spent in each round phase (traced pass only).
struct PhaseTimes {
  double DrainS = 0.0;
  double StepS = 0.0;
  double ChurnS = 0.0;
  double ReduceS = 0.0;
  uint64_t Reductions = 0;
  uint64_t ShardRounds = 0;
  uint64_t TenantTicks = 0; ///< Live tenants summed over shard-ticks.
};

/// Runs the configured rounds in FleetEngine::run()'s phase order,
/// recording the host time of every shard-tick in \p Ticks and of every
/// drain and churn step in \p Between. Returns the reduced result;
/// \p LoopS receives the round loop's wall time.
exp::FleetResult driveFleet(exp::FleetScenario &Fleet, RepeatedTimes &Ticks,
                            RepeatedTimes &Between, double &LoopS,
                            PhaseTimes *Phases) {
  sim::FleetEngine &Engine = Fleet.engine();
  const exp::FleetScenarioConfig &Config = Fleet.config();
  const unsigned Shards = Engine.numShards();
  size_t TickPos = 0, BetweenPos = 0;
  Stopwatch Loop;
  for (uint64_t Round = 0; Round < Config.Rounds; ++Round) {
    for (unsigned S = 0; S < Shards; ++S) {
      Stopwatch Drain;
      Engine.drainInbox(S);
      double Elapsed = Drain.seconds();
      Between.record(BetweenPos++, Elapsed);
      if (Phases) {
        Phases->DrainS += Elapsed;
        ++Phases->ShardRounds;
      }
      for (unsigned T = 0; T < Config.TicksPerRound; ++T) {
        if (Phases)
          Phases->TenantTicks += Engine.shardSim(S).numTasks();
        Stopwatch Tick;
        Engine.stepShard(S, 1);
        Elapsed = Tick.seconds();
        Ticks.record(TickPos++, Elapsed);
        if (Phases)
          Phases->StepS += Elapsed;
      }
    }
    Stopwatch Churn;
    for (unsigned S = 0; S < Shards; ++S)
      Engine.runChurn(S, Round);
    double Elapsed = Churn.seconds();
    Between.record(BetweenPos++, Elapsed);
    if (Phases)
      Phases->ChurnS += Elapsed;
  }
  LoopS = Loop.seconds();
  Stopwatch Reduce;
  exp::FleetResult Result = Fleet.collect(LoopS);
  if (Phases) {
    Phases->ReduceS += Reduce.seconds();
    ++Phases->Reductions;
  }
  return Result;
}

uint64_t fleetDigest(const exp::FleetResult &R) {
  uint64_t H = support::fnv1aInit();
  H = digest(H, R.Stats.Checksum);
  H = digest(H, R.DecisionChecksum);
  H = digest(H, R.DecisionsTotal);
  const sim::FleetShardStats &T = R.Stats.Totals;
  for (uint64_t V : {T.Ticks, T.ArrivalsDelivered, T.DeparturesSent,
                     T.TasksAlive, T.RunnableThreads})
    H = digest(H, V);
  return H;
}

/// One seeded fleet: the setup half of a repetition.
struct SeededFleet {
  std::unique_ptr<exp::FleetScenario> Fleet;
  double TrainS = 0.0;
  double SeedS = 0.0;
};

SeededFleet setUpFleet(const exp::FleetScenarioConfig &Config) {
  SeededFleet Out;
  Stopwatch Train;
  trainPolicies({Config.Policy});
  Out.TrainS = Train.seconds();
  Stopwatch Seed;
  Out.Fleet = std::make_unique<exp::FleetScenario>(Config);
  Out.Fleet->seed();
  Out.SeedS = Seed.seconds();
  return Out;
}

} // namespace

Outcome medley::perfbench::runFleet(const RunOptions &Options) {
  Outcome Out;
  const exp::FleetScenarioConfig Config = fleetConfig(Options, "mixture");
  // FleetScenario binds through the process-wide policy set; train it once
  // here so every setup sample below costs the same.
  exp::PolicySet::instance().factory(Config.Policy);

  // The bench loop must reproduce FleetScenario::run() on a small fleet.
  bool LoopMatchesRun = false;
  {
    exp::FleetScenarioConfig Small = Config;
    Small.Shards = 4;
    Small.Tenants = 2000;
    Small.Rounds = 4;
    Small.StormShards = 1;
    exp::FleetScenario A(Small), B(Small);
    A.seed();
    B.seed();
    RepeatedTimes Untimed;
    double LoopS = 0.0;
    LoopMatchesRun = fleetDigest(A.run()) ==
                     fleetDigest(driveFleet(B, Untimed, Untimed, LoopS,
                                            nullptr));
  }

  std::vector<double> SetupS, TrainS, SeedS;
  // The traced pass reads its phase times from PhaseTimes instead.
  RepeatedTimes Ticks, Between, Untimed;
  std::optional<uint64_t> Digest;
  // Runs one repetition: set up, drive, check against the first digest.
  auto Repeat = [&](const exp::FleetScenarioConfig &C, PhaseTimes *Phases,
                    double &LoopS) {
    SeededFleet F = setUpFleet(C);
    exp::FleetResult R =
        Phases ? driveFleet(*F.Fleet, Untimed, Untimed, LoopS, Phases)
               : driveFleet(*F.Fleet, Ticks, Between, LoopS, nullptr);
    const uint64_t ShardTicks = R.Stats.Totals.Ticks;
    Out.Attempted += ShardTicks;
    const uint64_t H = fleetDigest(R);
    if (C.Policy == Config.Policy) {
      if (!Digest)
        Digest = H;
      else if (H != *Digest)
        Out.fail(ShardTicks, "fleet repetition: stats or decision checksums "
                             "differ from the first repetition");
    }
    if (Phases == nullptr) {
      SetupS.push_back(F.TrainS + F.SeedS);
      TrainS.push_back(F.TrainS);
      SeedS.push_back(F.SeedS);
    }
    return R;
  };

  // Under --trace, every untraced repetition is followed by a traced one
  // that times every round phase, so both see the same host and their
  // time ratio is the tracing overhead.
  exp::FleetResult Last;
  PhaseTimes Phases;
  double TracedBusy = 0.0;
  uint64_t TracedShardTicks = 0, TracedDecisions = 0;
  std::vector<double> Overhead;
  CpuRotation Rotation;
  Stopwatch Budget;
  do {
    Rotation.beforePass();
    double LoopS = 0.0;
    Last = Repeat(Config, nullptr, LoopS);
    if (!Options.Trace)
      continue;
    double TracedLoopS = 0.0;
    exp::FleetResult R = Repeat(Config, &Phases, TracedLoopS);
    TracedBusy += TracedLoopS;
    TracedShardTicks += R.Stats.Totals.Ticks;
    TracedDecisions += R.DecisionsTotal;
    Overhead.push_back(TracedLoopS / LoopS);
  } while (Budget.seconds() < Options.Seconds);
  Out.Digest = *Digest;
  if (!LoopMatchesRun)
    Out.fail(Out.Attempted, "fleet: the benchmark's round loop does not "
                            "reproduce FleetScenario::run() checksums");

  const double Fastest = Ticks.fastestPass() + Between.fastestPass();
  std::vector<double> TickMs = Ticks.fastestMs();
  Out.add("setup_s", fastest(SetupS), "s");
  Out.add("ops_per_s", static_cast<double>(Last.Stats.Totals.Ticks) / Fastest,
          "1/s");
  Out.add("decisions_per_s", static_cast<double>(Last.DecisionsTotal) / Fastest,
          "1/s");
  Out.add("latency_ms_p50", quantile(TickMs, 0.50), "ms");
  Out.add("latency_ms_p90", quantile(TickMs, 0.90), "ms");
  Out.add("exp.policyset.train_s", fastest(TrainS), "s");
  Out.add("exp.fleet.seed_s", fastest(SeedS), "s");
  const sim::FleetShardStats &Totals = Last.Stats.Totals;
  Out.add("sim.fleet.tenants_alive", static_cast<double>(Totals.TasksAlive),
          "count");
  Out.add("sim.fleet.arrivals", static_cast<double>(Totals.ArrivalsDelivered),
          "count");
  Out.add("sim.fleet.departures", static_cast<double>(Totals.DeparturesSent),
          "count");

  if (!Options.Trace)
    return Out;

  // The same fleet under the default policy: the machinery-only control.
  PhaseTimes Control;
  double ControlLoopS = 0.0;
  exp::FleetResult ControlResult =
      Repeat(fleetConfig(Options, "default"), &Control, ControlLoopS);

  const double TracedTicksD = static_cast<double>(TracedShardTicks);
  const double ShardRounds = static_cast<double>(Phases.ShardRounds);
  Out.add("sim.fleet.drain_us", Phases.DrainS * 1e6 / ShardRounds, "us");
  Out.add("sim.fleet.step_us_per_tick", Phases.StepS * 1e6 / TracedTicksD,
          "us");
  Out.add("sim.fleet.step_us_per_tick.default",
          Control.StepS * 1e6 /
              static_cast<double>(ControlResult.Stats.Totals.Ticks),
          "us");
  Out.add("sim.fleet.churn_us", Phases.ChurnS * 1e6 / ShardRounds, "us");
  Out.add("sim.fleet.reduce_ms",
          Phases.ReduceS * 1e3 / static_cast<double>(Phases.Reductions),
          "ms");
  Out.add("sim.fleet.unattributed_us",
          (TracedBusy - Phases.DrainS - Phases.StepS - Phases.ChurnS) * 1e6 /
              TracedTicksD,
          "us");
  Out.add("sim.fleet.decisions_per_tenant_tick",
          static_cast<double>(TracedDecisions) /
              static_cast<double>(Phases.TenantTicks),
          "ratio");
  Out.add("bench.trace_overhead_ratio.fleet", median(Overhead), "ratio");
  return Out;
}
