//===-- tests/FleetTest.cpp - Fleet engine determinism / chaos tests ----------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The fleet suite (DESIGN.md §16): the sharded engine's deterministic
// half — per-shard stats, decision counts and checksums, and the
// two-level reduction — must be bit-identical at any worker count and
// any shard→slot plan; unplug storms and sensor dropout confined to a
// leading subset of shards must leave every healthy shard's results
// untouched. Plus unit coverage of the fixed-bucket latency histogram
// the engine records into. Runs under the `chaos` ctest label (`make
// chaos`), clean under ASan/TSan.
//
//===----------------------------------------------------------------------===//

#include "exp/Fleet.h"
#include "exp/PolicySet.h"
#include "support/Histogram.h"

#include <gtest/gtest.h>

#include <vector>

using namespace medley;
using namespace medley::exp;
using support::LatencyHistogram;

namespace {

/// A fleet small enough for a unit test but big enough that every moving
/// part engages: multiple shards per slot, churn with migration, bursts,
/// and (where enabled) storms on a strict prefix of the shards.
FleetScenarioConfig smallFleet() {
  FleetScenarioConfig Config;
  Config.Shards = 4;
  Config.Tenants = 1200;
  Config.Rounds = 3;
  Config.TicksPerRound = 10;
  Config.ChurnRate = 0.02;
  Config.BurstEvery = 2;
  Config.Seed = 0xF1EE7;
  return Config;
}

/// The deterministic half of two results must match bit for bit; the
/// wall-clock half (latency, rates) is intentionally not compared.
void expectDeterministicHalvesEqual(const FleetResult &A,
                                    const FleetResult &B,
                                    const std::string &What) {
  EXPECT_EQ(A.Stats.Checksum, B.Stats.Checksum) << What;
  EXPECT_EQ(A.DecisionChecksum, B.DecisionChecksum) << What;
  EXPECT_EQ(A.DecisionsTotal, B.DecisionsTotal) << What;
  ASSERT_EQ(A.Stats.Shards.size(), B.Stats.Shards.size()) << What;
  ASSERT_EQ(A.Decisions.size(), B.Decisions.size()) << What;
  for (size_t S = 0; S < A.Stats.Shards.size(); ++S) {
    const sim::FleetShardStats &SA = A.Stats.Shards[S];
    const sim::FleetShardStats &SB = B.Stats.Shards[S];
    EXPECT_EQ(SA.Ticks, SB.Ticks) << What << " shard " << S;
    EXPECT_EQ(SA.ArrivalsDelivered, SB.ArrivalsDelivered)
        << What << " shard " << S;
    EXPECT_EQ(SA.DeparturesSent, SB.DeparturesSent) << What << " shard " << S;
    EXPECT_EQ(SA.TasksAlive, SB.TasksAlive) << What << " shard " << S;
    EXPECT_EQ(SA.RunnableThreads, SB.RunnableThreads)
        << What << " shard " << S;
    EXPECT_EQ(A.Decisions[S].Count, B.Decisions[S].Count)
        << What << " shard " << S;
    EXPECT_EQ(A.Decisions[S].Checksum, B.Decisions[S].Checksum)
        << What << " shard " << S;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// LatencyHistogram: buckets, percentiles, merge, saturation
//===----------------------------------------------------------------------===//

TEST(LatencyHistogramTest, BucketIndexIsMonotoneAndEdgesRoundTrip) {
  // Indices never decrease as values grow, and every bucket's inclusive
  // upper edge maps back into that bucket.
  size_t Prev = 0;
  for (uint64_t Ns = 0; Ns < 4096; ++Ns) {
    size_t Index = LatencyHistogram::bucketIndex(Ns);
    EXPECT_GE(Index, Prev) << Ns;
    Prev = Index;
  }
  uint64_t PrevEdge = 0;
  for (size_t I = 0; I + 1 < LatencyHistogram::NumBuckets; ++I) {
    uint64_t Edge = LatencyHistogram::bucketUpperEdge(I);
    EXPECT_EQ(LatencyHistogram::bucketIndex(Edge), I);
    EXPECT_EQ(LatencyHistogram::bucketIndex(Edge + 1), I + 1);
    if (I > 0) {
      EXPECT_GT(Edge, PrevEdge) << I;
    }
    PrevEdge = Edge;
  }
}

TEST(LatencyHistogramTest, PercentilesBoundKnownDataWithinBucketError) {
  // 1..1000 ns uniformly: the reported quantile is the upper edge of the
  // bucket holding the exact quantile, so it is >= the exact value and
  // within the documented 12.5% relative bucket error.
  LatencyHistogram H;
  for (uint64_t Ns = 1; Ns <= 1000; ++Ns)
    H.record(Ns);
  EXPECT_EQ(H.total(), 1000u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_EQ(H.sum(), 500500u);
  EXPECT_DOUBLE_EQ(H.meanNs(), 500.5);
  EXPECT_GE(H.p50(), 500u);
  EXPECT_LE(H.p50(), 563u); // 500 * 1.125
  EXPECT_GE(H.p95(), 950u);
  EXPECT_LE(H.p95(), 1069u);
  EXPECT_EQ(H.percentileNs(0.0), 1u); // first occupied bucket's edge >= 1
  LatencyHistogram Empty;
  EXPECT_EQ(Empty.percentileNs(0.5), 0u);
  EXPECT_EQ(Empty.total(), 0u);
}

TEST(LatencyHistogramTest, MergeMatchesSequentialRecording) {
  LatencyHistogram Left, Right, Together;
  for (uint64_t Ns = 0; Ns < 500; ++Ns) {
    uint64_t Value = Ns * 37 % 100000;
    (Ns % 2 ? Left : Right).record(Value);
    Together.record(Value);
  }
  Left.merge(Right);
  EXPECT_EQ(Left.total(), Together.total());
  EXPECT_EQ(Left.sum(), Together.sum());
  EXPECT_EQ(Left.max(), Together.max());
  for (double Q : {0.5, 0.95, 0.99, 0.999})
    EXPECT_EQ(Left.percentileNs(Q), Together.percentileNs(Q)) << Q;
}

TEST(LatencyHistogramTest, TailSaturatesIntoLastBucketAndReportsExactMax) {
  // Values past the last bucket edge all land in the final bucket; the
  // extreme quantile reports the exact maximum rather than the (smaller)
  // saturated bucket edge.
  uint64_t Huge = ~0ULL / 2;
  EXPECT_EQ(LatencyHistogram::bucketIndex(Huge),
            LatencyHistogram::NumBuckets - 1);
  LatencyHistogram H;
  H.record(1);
  H.record(Huge);
  EXPECT_EQ(H.max(), Huge);
  EXPECT_EQ(H.percentileNs(1.0), Huge);
}

//===----------------------------------------------------------------------===//
// Fleet determinism: jobs, placement
//===----------------------------------------------------------------------===//

TEST(FleetDeterminismTest, BitIdenticalAcrossWorkerCounts) {
  // The whole deterministic half — stats, per-shard decision logs, both
  // fleet-level checksums — must not depend on how many workers execute
  // the fixed shard→slot plan. Storms on to exercise the fault path too.
  std::vector<FleetResult> Results;
  for (unsigned Jobs : {1u, 4u, 16u}) {
    FleetScenarioConfig Config = smallFleet();
    Config.StormShards = 2;
    Config.Jobs = Jobs;
    Results.push_back(runFleetScenario(Config));
  }
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_GT(Results[0].DecisionsTotal, 0u);
  EXPECT_GT(Results[0].Stats.Totals.Ticks, 0u);
  expectDeterministicHalvesEqual(Results[0], Results[1], "jobs 1 vs 4");
  expectDeterministicHalvesEqual(Results[0], Results[2], "jobs 1 vs 16");
}

TEST(FleetDeterminismTest, InvariantUnderShardToSlotPlacement) {
  // PlanSlots changes which shards share a slot (and hence a worker); the
  // per-shard streams are derived from (fleet seed, shard id) only, so
  // every grouping must produce the same deterministic half.
  std::vector<FleetResult> Results;
  for (unsigned Slots : {1u, 2u, 3u, 4u}) {
    FleetScenarioConfig Config = smallFleet();
    Config.Jobs = 4;
    Config.PlanSlots = Slots;
    Results.push_back(runFleetScenario(Config));
  }
  for (size_t I = 1; I < Results.size(); ++I)
    expectDeterministicHalvesEqual(Results[0], Results[I],
                                   "slots 1 vs " + std::to_string(I + 1));
}

//===----------------------------------------------------------------------===//
// Chaos: storm blast radius confined to the shard prefix
//===----------------------------------------------------------------------===//

TEST(FleetChaosTest, StormBlastRadiusStaysInsideTheShardPrefix) {
  // Storms and sensor dropout on shards [0, 2) of 4. Membership flow
  // (churn draws, migrations, bursts) is availability-independent, so a
  // stormy fleet delivers the exact same arrival streams as a healthy
  // one — every healthy shard must come out bit-identical to its
  // counterpart in the stormless run, while the storm shards' decision
  // streams must actually feel the faults.
  FleetScenarioConfig Healthy = smallFleet();
  FleetScenarioConfig Stormy = smallFleet();
  Stormy.StormShards = 2;

  FleetResult H = runFleetScenario(Healthy);
  FleetResult S = runFleetScenario(Stormy);
  ASSERT_EQ(H.Stats.Shards.size(), 4u);
  ASSERT_EQ(S.Stats.Shards.size(), 4u);

  for (size_t Shard = 2; Shard < 4; ++Shard) {
    const sim::FleetShardStats &HS = H.Stats.Shards[Shard];
    const sim::FleetShardStats &SS = S.Stats.Shards[Shard];
    EXPECT_EQ(HS.Ticks, SS.Ticks) << Shard;
    EXPECT_EQ(HS.ArrivalsDelivered, SS.ArrivalsDelivered) << Shard;
    EXPECT_EQ(HS.DeparturesSent, SS.DeparturesSent) << Shard;
    EXPECT_EQ(HS.TasksAlive, SS.TasksAlive) << Shard;
    EXPECT_EQ(HS.RunnableThreads, SS.RunnableThreads) << Shard;
    EXPECT_EQ(H.Decisions[Shard].Count, S.Decisions[Shard].Count) << Shard;
    EXPECT_EQ(H.Decisions[Shard].Checksum, S.Decisions[Shard].Checksum)
        << Shard;
  }
  // The faults must have had an observable effect somewhere in the storm
  // prefix — otherwise this test would pass vacuously.
  bool StormPrefixDiffers = false;
  for (size_t Shard = 0; Shard < 2; ++Shard)
    StormPrefixDiffers =
        StormPrefixDiffers ||
        H.Decisions[Shard].Checksum != S.Decisions[Shard].Checksum ||
        H.Stats.Shards[Shard].RunnableThreads !=
            S.Stats.Shards[Shard].RunnableThreads;
  EXPECT_TRUE(StormPrefixDiffers);
}

TEST(FleetChaosTest, ChurnConservesTenantsUpToMigrationInFlight) {
  // Seeded tenants minus permanent departures plus delivered arrivals
  // equals the population still alive plus mail still in flight. The
  // engine's counters must reconcile exactly — a lost or duplicated
  // token would show up here.
  FleetScenarioConfig Config = smallFleet();
  Config.StormShards = 1;
  FleetResult R = runFleetScenario(Config);

  uint64_t Alive = R.Stats.Totals.TasksAlive;
  uint64_t Sent = R.Stats.Totals.DeparturesSent;
  uint64_t Delivered = R.Stats.Totals.ArrivalsDelivered;
  // Every delivered arrival was previously sent; what was sent but not
  // delivered is still sitting in an inbox (the final churn phase posts
  // mail that no later round drains).
  EXPECT_LE(Delivered, Sent);
  EXPECT_GT(Alive, 0u);
  EXPECT_EQ(R.Stats.Totals.Ticks,
            uint64_t(Config.Shards) * Config.Rounds * Config.TicksPerRound);
}
