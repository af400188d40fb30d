//===-- exp/Fleet.cpp - The fleet scenario -------------------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exp/Fleet.h"

#include "exp/PolicySet.h"
#include "runtime/PolicyBinding.h"
#include "sim/AvailabilityPattern.h"
#include "support/Error.h"
#include "support/Fnv.h"
#include "workload/Catalog.h"

#include <algorithm>
#include <chrono>
#include <cmath>

using namespace medley;
using namespace medley::exp;

/// Per-shard policy plumbing. The policy instance, its chooser,
/// and the decision log every decision appends to — all touched only by
/// the shard's worker during a run. Tenants reach the chooser through a
/// closure holding only the Binding's address, which std::function stores
/// inline: a tenant costs no chooser copy on the heap.
struct FleetScenario::Binding {
  std::unique_ptr<policy::ThreadPolicy> Policy;
  workload::ThreadChooser Chooser;
  workload::RegionObserver Observer;
  FleetShardDecisions Log;

  /// One decision through Chooser, folded into Log.
  unsigned choose(const workload::RegionContext &Ctx) {
    unsigned Threads = Chooser(Ctx);
    ++Log.Count;
    Log.Checksum = support::fnv1aWord(
        Log.Checksum == 0 ? support::fnv1aInit() : Log.Checksum, Threads);
    return Threads;
  }
};

sim::MachineConfig FleetScenario::shardMachine(unsigned TenantsPerShard,
                                               unsigned TenantMaxThreads) {
  // A fleet shard models a rack-scale host, not the paper's 32-core
  // testbed: enough cores that the tenant population keeps a CPU share
  // near one (regions finish, decisions flow), bandwidth and memory
  // scaled with the same ratios the evaluation platform uses.
  sim::MachineConfig Machine = sim::MachineConfig::evaluationPlatform();
  unsigned Cores =
      std::max(32u, TenantsPerShard * std::max(1u, TenantMaxThreads));
  Machine.TotalCores = Cores;
  Machine.MemoryBandwidth = 0.45 * static_cast<double>(Cores);
  Machine.TotalMemoryMb =
      std::max(64.0 * 1024.0, 512.0 * static_cast<double>(TenantsPerShard));
  return Machine;
}

FleetScenario::FleetScenario(FleetScenarioConfig InConfig)
    : Config(InConfig) {
  if (Config.Shards == 0)
    reportFatalError("fleet scenario with zero shards");
  if (Config.TicksPerRound == 0)
    reportFatalError("fleet scenario with zero ticks per round");

  const unsigned PerShard =
      std::max(1u, Config.Tenants / std::max(1u, Config.Shards));

  sim::FleetConfig Fleet;
  Fleet.NumShards = Config.Shards;
  Fleet.Seed = Config.Seed;
  Fleet.Tick = 0.1;
  Fleet.Machine = shardMachine(PerShard, Config.TenantMaxThreads);

  const unsigned Cores = Fleet.Machine.TotalCores;
  Fleet.Availability = [Cores](unsigned, uint64_t ShardSeed) {
    return sim::PeriodicAvailability::standardLadder(Cores, 20.0, ShardSeed);
  };

  if (Config.StormShards > 0) {
    const double Horizon = static_cast<double>(Config.Rounds) *
                           Config.TicksPerRound * Fleet.Tick;
    const unsigned Storms = Config.StormShards;
    Fleet.Faults = [Storms, Horizon,
                    Cores](unsigned Shard,
                           uint64_t ShardSeed) -> std::unique_ptr<sim::FaultInjector> {
      if (Shard >= Storms)
        return nullptr; // Healthy shard: blast radius ends here.
      sim::FaultPlan Plan;
      // Two unplug storms and one dropout window per run, staggered so
      // every storm shard sees degradation early and late. Half the cores
      // stay up: a total outage would just freeze the shard's tenants.
      Plan.UnplugStorm.push_back({0.20 * Horizon, 0.30 * Horizon});
      Plan.UnplugStorm.push_back({0.60 * Horizon, 0.70 * Horizon});
      Plan.StormCores = Cores / 2;
      Plan.SensorDropout.push_back({0.35 * Horizon, 0.55 * Horizon});
      return std::make_unique<sim::FaultInjector>(Plan, ShardSeed);
    };
  }

  // Shared tenant catalog: every catalog program once, held by
  // shared_ptr so a hundred thousand tenants share the specs instead of
  // copying region vectors.
  auto Specs = std::make_shared<
      std::vector<std::shared_ptr<const workload::ProgramSpec>>>();
  for (const workload::ProgramSpec &Spec : workload::Catalog::allPrograms())
    Specs->push_back(std::make_shared<const workload::ProgramSpec>(Spec));

  // Per-shard policy instances from a factory resolved once.
  policy::PolicyFactory Factory = PolicySet::instance().factory(Config.Policy);

  Bindings = std::make_shared<std::vector<Binding>>();
  Bindings->reserve(Config.Shards);
  for (unsigned S = 0; S < Config.Shards; ++S) {
    Binding B;
    B.Policy = Factory();
    Bindings->push_back(std::move(B));
  }
  // Second pass, after the vector stopped growing: choosers and observers
  // hold references to their Binding's policy, and tenants to the Binding,
  // so storage must be final.
  for (unsigned S = 0; S < Config.Shards; ++S) {
    Binding &B = (*Bindings)[S];
    B.Chooser = runtime::bindPolicy(*B.Policy, Cores);
    B.Observer = runtime::bindObserver(*B.Policy);
  }

  // Tokens carry only a spec choice; the tenant is materialised on the
  // destination shard against that shard's own chooser and observer.
  auto BindingsRef = Bindings;
  unsigned MaxThreads = Config.TenantMaxThreads;
  MakeTenant = [Specs, BindingsRef, MaxThreads](
                   unsigned Shard,
                   uint64_t Token) -> std::shared_ptr<sim::Task> {
    Binding *B = &(*BindingsRef)[Shard];
    auto Tenant = std::make_shared<workload::Program>(
        (*Specs)[Token % Specs->size()],
        [B](const workload::RegionContext &Ctx) { return B->choose(Ctx); },
        MaxThreads, /*Looping=*/true);
    Tenant->setRegionObserver(B->Observer);
    return Tenant;
  };
  Fleet.TenantFactory = MakeTenant;

  Engine = std::make_unique<sim::FleetEngine>(std::move(Fleet));

  // Per-round churn: a ChurnRate fraction of the shard's tenants leave
  // (half migrating to a uniformly random shard, half departing), plus a
  // periodic burst of fresh arrivals scattered across the fleet. All
  // draws come from the shard's own churn stream.
  const unsigned NumShards = Config.Shards;
  const double Rate = Config.ChurnRate;
  const unsigned BurstEvery = Config.BurstEvery;
  const auto BurstSize = static_cast<uint64_t>(
      std::max(1.0, Config.BurstFraction * static_cast<double>(PerShard)));
  Engine->setChurnHook([NumShards, Rate, BurstEvery, BurstSize](
                           unsigned, uint64_t Round, Rng &R,
                           sim::Simulation &Sim, std::vector<size_t> &Gone,
                           sim::MailSink &Sink) {
    // The round-start task list, taken once. A removal only tombstones its
    // slot, so the list stays valid, and the table compacts once, when
    // runChurn counts the survivors.
    const std::vector<std::shared_ptr<sim::Task>> &Tasks = Sim.tasks();
    const size_t Alive = Tasks.size();
    double Want = Rate * static_cast<double>(Alive);
    auto Leavers = static_cast<uint64_t>(Want);
    if (R.bernoulli(Want - static_cast<double>(Leavers)))
      ++Leavers;
    Leavers = std::min<uint64_t>(Leavers, Alive);
    // Gone: round-start slots of this round's victims so far, ascending,
    // in the shard's scratch vector (empty here, its capacity kept).
    for (uint64_t I = 0; I < Leavers; ++I) {
      // Victim I is drawn among the Alive - I tenants still live, in
      // insertion order; skipping the earlier victims maps that rank to
      // its round-start slot.
      auto Slot = static_cast<size_t>(
          R.uniformInt(0, static_cast<int64_t>(Alive - I) - 1));
      size_t Pos = 0;
      for (; Pos < I && Gone[Pos] <= Slot; ++Pos)
        ++Slot;
      Gone.insert(Gone.begin() + static_cast<std::ptrdiff_t>(Pos), Slot);
      Sim.removeTask(Tasks[Slot].get());
      if (R.bernoulli(0.5))
        Sink.send(static_cast<unsigned>(R.uniformInt(0, NumShards - 1)),
                  R.next());
    }
    if (BurstEvery != 0 && (Round + 1) % BurstEvery == 0)
      for (uint64_t I = 0; I < BurstSize; ++I)
        Sink.send(static_cast<unsigned>(R.uniformInt(0, NumShards - 1)),
                  R.next());
  });
}

FleetScenario::~FleetScenario() = default;

void FleetScenario::seed() {
  const unsigned Shards = Config.Shards;
  const unsigned Base = Config.Tenants / Shards;
  const unsigned Extra = Config.Tenants % Shards;
  Engine->seedTenants([&](unsigned Shard, Rng &R, sim::Simulation &Sim) {
    const unsigned Count = Base + (Shard < Extra ? 1 : 0);
    // Seed-time arrivals take the exact token → tenant path mailbox
    // arrivals take, with tokens drawn from the shard's churn stream.
    for (unsigned I = 0; I < Count; ++I)
      Sim.addTask(MakeTenant(Shard, R.next()));
  });
}

FleetResult FleetScenario::run() {
  support::ThreadPool Pool(Config.Jobs);
  // Wall-clock timing feeds only the throughput half of the result
  // (WallSeconds and the rates derived from it), which is documented
  // non-deterministic; the checksummed half never sees it.
  // medley-lint: allow(nondeterminism) — host throughput measurement.
  auto Start = std::chrono::steady_clock::now();
  Engine->run(Pool, Config.Rounds, Config.TicksPerRound, Config.PlanSlots);
  std::chrono::duration<double> Elapsed =
      // medley-lint: allow(nondeterminism) — host throughput measurement.
      std::chrono::steady_clock::now() - Start;
  return collect(Elapsed.count());
}

FleetResult FleetScenario::collect(double WallSeconds) const {
  FleetResult Result;
  Result.Stats = Engine->reduce();
  Result.Decisions.reserve(Bindings->size());
  uint64_t Hash = support::fnv1aInit();
  for (const Binding &B : *Bindings) {
    Result.Decisions.push_back(B.Log);
    Result.DecisionsTotal += B.Log.Count;
    Hash = support::fnv1aWord(Hash, B.Log.Count);
    Hash = support::fnv1aWord(Hash, B.Log.Checksum);
  }
  Result.DecisionChecksum = Hash;
  Result.TickLatency = Engine->mergedLatency();
  Result.WallSeconds = WallSeconds;
  if (WallSeconds > 0.0) {
    Result.TicksPerSec =
        static_cast<double>(Result.Stats.Totals.Ticks) / WallSeconds;
    Result.DecisionsPerSec =
        static_cast<double>(Result.DecisionsTotal) / WallSeconds;
  }
  return Result;
}

FleetResult medley::exp::runFleetScenario(const FleetScenarioConfig &Config) {
  FleetScenario Scenario(Config);
  Scenario.seed();
  return Scenario.run();
}
