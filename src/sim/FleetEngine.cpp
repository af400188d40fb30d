//===-- sim/FleetEngine.cpp - Sharded fleet simulation engine ------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/FleetEngine.h"

#include "support/Error.h"
#include "support/Fnv.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace medley;
using namespace medley::sim;

namespace {

/// splitmix64 finaliser: the shard-seed derivation must scatter nearby
/// shard ids into unrelated streams, and must depend only on (fleet seed,
/// shard id) — never on placement.
uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

uint64_t fnvStats(uint64_t Hash, const FleetShardStats &S) {
  Hash = support::fnv1aWord(Hash, S.Ticks);
  Hash = support::fnv1aWord(Hash, S.ArrivalsDelivered);
  Hash = support::fnv1aWord(Hash, S.DeparturesSent);
  Hash = support::fnv1aWord(Hash, S.TasksAlive);
  Hash = support::fnv1aWord(Hash, S.RunnableThreads);
  return Hash;
}

} // namespace

/// The per-shard state block. Everything in here is owned exclusively by
/// the shard: during a round only the worker running the shard's slot
/// touches it (except the Inbox columns, each written by exactly one other
/// shard's worker under the round-phase barrier protocol).
struct FleetEngine::Shard {
  std::unique_ptr<Simulation> Sim;
  uint64_t Seed = 0;           ///< Derived (fleet seed, shard id) seed.
  Rng ChurnRng{0};             ///< Re-seeded in the engine constructor.
  std::vector<size_t> Scratch; ///< Churn-hook pick list; capacity persists.
  support::LatencyHistogram Latency;
  FleetShardStats Stats;
  /// Inbox[Src]: tokens posted by shard Src this round, drained by this
  /// shard in Src order at the start of the next round.
  std::vector<std::vector<uint64_t>> Inbox;
};

void MailSink::send(unsigned DstShard, uint64_t Token) {
  Engine.postMail(DstShard, SrcShard, Token);
}

FleetEngine::FleetEngine(FleetConfig InConfig) : Config(std::move(InConfig)) {
  if (Config.NumShards == 0)
    reportFatalError("fleet engine with zero shards");
  if (!Config.Availability)
    reportFatalError("fleet engine without an availability factory");

  Shards.reserve(Config.NumShards);
  for (unsigned S = 0; S < Config.NumShards; ++S) {
    auto Block = std::make_unique<Shard>();
    Block->Seed = mix64(Config.Seed ^ (0x9E3779B97F4A7C15ULL * (S + 1)));
    Block->Sim = std::make_unique<Simulation>(
        Config.Machine, Config.Availability(S, Block->Seed), Config.Tick);
    if (Config.Faults)
      if (auto Injector = Config.Faults(S, Block->Seed))
        Block->Sim->setFaultInjector(std::move(Injector));
    // Distinct sub-stream per purpose: churn draws must not correlate with
    // the availability/fault streams derived from the same shard seed.
    Block->ChurnRng = Rng(mix64(Block->Seed ^ 0x517CC1B727220A95ULL));
    Block->Inbox.resize(Config.NumShards);
    Shards.push_back(std::move(Block));
  }
}

FleetEngine::~FleetEngine() = default;

Simulation &FleetEngine::shardSim(unsigned Shard) {
  assert(Shard < Shards.size());
  return *Shards[Shard]->Sim;
}

Rng &FleetEngine::shardChurnRng(unsigned Shard) {
  assert(Shard < Shards.size());
  return Shards[Shard]->ChurnRng;
}

uint64_t FleetEngine::shardSeed(unsigned Shard) const {
  assert(Shard < Shards.size());
  return Shards[Shard]->Seed;
}

void FleetEngine::seedTenants(
    const std::function<void(unsigned Shard, Rng &ChurnRng, Simulation &Sim)>
        &Seeder) {
  for (unsigned S = 0; S < Shards.size(); ++S)
    Seeder(S, Shards[S]->ChurnRng, *Shards[S]->Sim);
}

void FleetEngine::setChurnHook(ChurnHook Hook) { Churn = std::move(Hook); }

void FleetEngine::stepShard(unsigned Shard, unsigned Ticks) {
  assert(Shard < Shards.size());
  struct Shard &S = *Shards[Shard];
  Simulation &Sim = *S.Sim;
  for (unsigned T = 0; T < Ticks; ++T) {
    // The tick-latency histogram measures the host, not the simulation:
    // it feeds the wall-clock half of the fleet result (p50..p99.9),
    // which is documented non-deterministic and never checksummed. The
    // deterministic half never reads these samples.
    // medley-lint: allow(nondeterminism) — host latency measurement.
    auto Begin = std::chrono::steady_clock::now();
    Sim.step();
    // medley-lint: allow(nondeterminism) — host latency measurement.
    auto End = std::chrono::steady_clock::now();
    S.Latency.record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(End - Begin)
            .count()));
  }
  S.Stats.Ticks += Ticks;
}

void FleetEngine::drainInbox(unsigned Shard) {
  assert(Shard < Shards.size());
  struct Shard &Dst = *Shards[Shard];
  // Source-id order: delivery order into the destination simulation (and
  // hence TaskTable insertion order, which fixes every later reduction
  // order) depends only on who sent what, never on worker interleaving.
  for (unsigned Src = 0; Src < Shards.size(); ++Src) {
    std::vector<uint64_t> &Box = Dst.Inbox[Src];
    if (Box.empty())
      continue;
    if (!Config.TenantFactory)
      reportFatalError("fleet mail delivered without a tenant factory");
    for (uint64_t Token : Box) {
      Dst.Sim->addTask(Config.TenantFactory(Shard, Token));
      ++Dst.Stats.ArrivalsDelivered;
    }
    Box.clear();
  }
}

void FleetEngine::runChurn(unsigned Shard, uint64_t Round) {
  assert(Shard < Shards.size());
  if (!Churn)
    return;
  struct Shard &S = *Shards[Shard];
  S.Scratch.clear();
  MailSink Sink(*this, Shard);
  Churn(Shard, Round, S.ChurnRng, *S.Sim, S.Scratch, Sink);
}

void FleetEngine::postMail(unsigned DstShard, unsigned SrcShard,
                           uint64_t Token) {
  assert(DstShard < Shards.size() && SrcShard < Shards.size());
  // (Dst, Src) slot: written only by Src's worker during the churn phase,
  // read only by Dst's worker during the next round's drain phase — the
  // phase barrier between them makes this a plain unsynchronised write.
  Shards[DstShard]->Inbox[SrcShard].push_back(Token);
  ++Shards[SrcShard]->Stats.DeparturesSent;
}

void FleetEngine::run(support::ThreadPool &Pool, uint64_t Rounds,
                      unsigned TicksPerRound, unsigned PlanSlots) {
  const unsigned NumShards = numShards();
  unsigned Slots = PlanSlots == 0 ? Pool.size() : PlanSlots;
  Slots = std::min(std::max(Slots, 1U), NumShards);

  // Fixed plan: slot I owns the contiguous shard range [Begin[I],
  // Begin[I+1]). The plan is a function of (NumShards, Slots) only — which
  // worker executes a slot varies run to run, but the shard grouping (and
  // thus every per-shard stream) does not.
  std::vector<unsigned> Begin(Slots + 1, 0);
  for (unsigned I = 0; I <= Slots; ++I)
    Begin[I] = static_cast<unsigned>(
        (static_cast<uint64_t>(NumShards) * I) / Slots);

  for (uint64_t Round = 0; Round < Rounds; ++Round) {
    // Phase 1 — adopt last round's mail, then tick. No shard writes
    // outside itself here, so phases 1 and 2 of *different* shards never
    // race; parallelFor's join is the barrier between the phases.
    Pool.parallelFor(Slots, [&](size_t Slot) {
      for (unsigned S = Begin[Slot]; S < Begin[Slot + 1]; ++S) {
        drainInbox(S);
        stepShard(S, TicksPerRound);
      }
    });
    // Phase 2 — churn: shards may post mail into other shards' inbox
    // columns (each column written by exactly one sender), drained only
    // after the next phase-1 barrier.
    Pool.parallelFor(Slots, [&](size_t Slot) {
      for (unsigned S = Begin[Slot]; S < Begin[Slot + 1]; ++S)
        runChurn(S, Round);
    });
  }
}

const support::LatencyHistogram &
FleetEngine::shardLatency(unsigned Shard) const {
  assert(Shard < Shards.size());
  return Shards[Shard]->Latency;
}

FleetStats FleetEngine::reduce() const {
  FleetStats Out;
  Out.Shards.reserve(Shards.size());
  uint64_t Hash = support::fnv1aInit();
  for (const std::unique_ptr<Shard> &S : Shards) {
    FleetShardStats Stats = S->Stats;
    // The liveness columns are read here and nowhere else, so a reduce()
    // between rounds (or before any round) reflects the simulations as
    // they are, and no round pays a pass over the shard's tasks for them.
    Stats.TasksAlive = S->Sim->numTasks();
    Stats.RunnableThreads = S->Sim->runnableThreads();

    Out.Totals.Ticks += Stats.Ticks;
    Out.Totals.ArrivalsDelivered += Stats.ArrivalsDelivered;
    Out.Totals.DeparturesSent += Stats.DeparturesSent;
    Out.Totals.TasksAlive += Stats.TasksAlive;
    Out.Totals.RunnableThreads += Stats.RunnableThreads;
    Hash = fnvStats(Hash, Stats);
    Out.Shards.push_back(Stats);
  }
  Out.Checksum = Hash;
  return Out;
}

support::LatencyHistogram FleetEngine::mergedLatency() const {
  support::LatencyHistogram Merged;
  for (const std::unique_ptr<Shard> &S : Shards)
    Merged.merge(S->Latency);
  return Merged;
}
