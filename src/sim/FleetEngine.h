//===-- sim/FleetEngine.h - Sharded fleet simulation engine -----*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scale axis of the project (DESIGN.md §16): N share-nothing machine
/// shards, each owning its own Simulation (task table, SystemMonitor), its
/// own churn Rng stream derived from the fleet seed and the shard id, its
/// own latency histogram and its own per-round scratch arena. Shards never
/// touch each other's state on the tick path; the only cross-shard channel
/// is a (dst, src) mailbox matrix of tenant tokens, written by the source
/// shard during its round and drained by the destination in source-id
/// order after the round barrier.
///
/// Determinism: every per-shard stream is derived from (fleet seed, shard
/// id), mailbox drains are src-ordered, and the two-level reduction merges
/// per-shard aggregates in shard-id order — so fleet results are
/// bit-identical at any worker count and any shard→worker placement, the
/// same discipline the experiment driver established in PR 1.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SIM_FLEETENGINE_H
#define MEDLEY_SIM_FLEETENGINE_H

#include "sim/Simulation.h"
#include "support/Arena.h"
#include "support/Histogram.h"
#include "support/ThreadPool.h"

#include <functional>
#include <memory>
#include <vector>

namespace medley::sim {

/// Configuration of a fleet of simulated machines.
struct FleetConfig {
  /// Number of share-nothing machine shards.
  unsigned NumShards = 16;

  /// Fleet master seed; every per-shard stream (churn, availability,
  /// faults) is derived from (Seed, shard id), never from placement.
  uint64_t Seed = 0xF1EE7;

  /// Scheduling quantum of every shard's simulation, in seconds.
  double Tick = 0.1;

  /// Machine model instantiated per shard.
  MachineConfig Machine;

  /// Availability pattern factory, one call per shard with that shard's
  /// derived seed. Required.
  std::function<std::unique_ptr<AvailabilityPattern>(unsigned Shard,
                                                     uint64_t ShardSeed)>
      Availability;

  /// Optional fault-injector factory (per-shard unplug storms, sensor
  /// faults); called once per shard, may return null for healthy shards.
  std::function<std::unique_ptr<FaultInjector>(unsigned Shard,
                                               uint64_t ShardSeed)>
      Faults;

  /// Materialises the tenant behind a mailbox token on its destination
  /// shard. Tokens — not task objects — cross shard boundaries, so a
  /// migrating tenant is rebuilt against the destination shard's own
  /// policy bindings and never carries references to its source shard.
  /// Required when the churn hook sends mail.
  std::function<std::shared_ptr<Task>(unsigned Shard, uint64_t Token)>
      TenantFactory;
};

/// Deterministic per-shard aggregates (no wall-clock quantities here; the
/// nondeterministic timing lives in the latency histograms).
struct FleetShardStats {
  uint64_t Ticks = 0;             ///< Simulation ticks executed.
  uint64_t ArrivalsDelivered = 0; ///< Tenants adopted from the mailbox.
  uint64_t DeparturesSent = 0;    ///< Tokens posted to other shards.
  uint64_t TasksAlive = 0;        ///< Live tenants after the last round.
  uint64_t RunnableThreads = 0;   ///< Runnable threads after the last round.
};

/// Fleet-wide reduction result: per-shard stats in shard-id order plus
/// their ordered merge and an order-sensitive checksum over the per-shard
/// values (two runs agree on the checksum iff they agree shard for shard).
struct FleetStats {
  std::vector<FleetShardStats> Shards;
  FleetShardStats Totals;
  uint64_t Checksum = 0;
};

/// Sink through which a shard's churn hook posts tenant tokens to other
/// shards (or to itself; self-mail is delivered next round like any
/// other). Write-side of the mailbox matrix: each (dst, src) slot is
/// written only by shard src, so no synchronisation is needed.
class MailSink {
public:
  void send(unsigned DstShard, uint64_t Token);

private:
  friend class FleetEngine;
  MailSink(class FleetEngine &Engine, unsigned SrcShard)
      : Engine(Engine), SrcShard(SrcShard) {}
  FleetEngine &Engine;
  unsigned SrcShard;
};

/// Per-round churn hook, invoked on the shard's worker after its ticks:
/// may remove tenants from the shard's simulation, post tokens via the
/// sink, and use the shard arena for transient pick lists (reset before
/// each invocation). \p Round is the 0-based round index. Must draw all
/// randomness from \p ChurnRng to stay placement-independent.
using ChurnHook = std::function<void(unsigned Shard, uint64_t Round,
                                     Rng &ChurnRng, Simulation &Sim,
                                     support::Arena &Scratch,
                                     MailSink &Sink)>;

/// N share-nothing machine shards driven rounds-at-a-time from a
/// ThreadPool under a fixed shard→slot plan.
class FleetEngine {
public:
  explicit FleetEngine(FleetConfig Config);
  ~FleetEngine();

  FleetEngine(const FleetEngine &) = delete;
  FleetEngine &operator=(const FleetEngine &) = delete;

  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }

  /// The shard's own simulation / churn stream / scratch arena. Outside a
  /// run these are safe from the caller; during run() they are owned by
  /// the shard's worker.
  Simulation &shardSim(unsigned Shard);
  Rng &shardChurnRng(unsigned Shard);
  support::Arena &shardArena(unsigned Shard);

  /// Derived seed of \p Shard (exposed so scenario builders can derive
  /// further per-shard streams that stay placement-independent).
  uint64_t shardSeed(unsigned Shard) const;

  /// Populates shards before the first round: \p Seeder runs once per
  /// shard with the shard's churn stream (deterministic, runs on the
  /// caller thread in shard-id order).
  void seedTenants(
      const std::function<void(unsigned Shard, Rng &ChurnRng,
                               Simulation &Sim)> &Seeder);

  /// Installs the per-round churn hook (may be null: no churn).
  void setChurnHook(ChurnHook Hook);

  /// Runs \p Rounds rounds of \p TicksPerRound ticks each. Shards are
  /// grouped into \p PlanSlots contiguous groups (0 = one slot per pool
  /// worker, capped at the shard count); each group is one unit of pool
  /// work per round. The grouping fixes which shards travel together —
  /// results are bit-identical for every plan, only wall-clock changes.
  void run(support::ThreadPool &Pool, uint64_t Rounds, unsigned TicksPerRound,
           unsigned PlanSlots = 0);

  /// The hot per-shard tick loop: exactly \p Ticks simulation steps with
  /// per-tick latency recording. No mailbox traffic, no churn, and — once
  /// per-shard capacities are warm — no heap allocation (the PR 4/6
  /// zero-alloc contract, enforced by bench_fleet's allocation counter
  /// and medley-lint L7/L12). Public so tests and the lint harness can
  /// drive a single shard.
  void stepShard(unsigned Shard, unsigned Ticks);

  /// Round phases around stepShard, exposed for tests: drainInbox adopts
  /// mailbox tokens in source-id order; runChurn invokes the churn hook.
  void drainInbox(unsigned Shard);
  void runChurn(unsigned Shard, uint64_t Round);

  /// Deterministic per-shard aggregates (valid between rounds / after
  /// run()).
  const FleetShardStats &shardStats(unsigned Shard) const;

  /// Per-shard tick-latency histogram (wall-clock; NOT deterministic).
  const support::LatencyHistogram &shardLatency(unsigned Shard) const;

  /// Two-level deterministic reduction: refreshes the liveness columns of
  /// every per-shard stat block, then merges them in shard-id order.
  FleetStats reduce() const;

  /// Merged tick-latency histogram (shard-id-ordered merge; the merge is
  /// commutative, so ordering is convention, not necessity).
  support::LatencyHistogram mergedLatency() const;

private:
  struct Shard;

  void postMail(unsigned DstShard, unsigned SrcShard, uint64_t Token);

  FleetConfig Config;
  ChurnHook Churn;
  std::vector<std::unique_ptr<Shard>> Shards;

  friend class MailSink;
};

} // namespace medley::sim

#endif // MEDLEY_SIM_FLEETENGINE_H
