//===-- bench/bench_fleet.cpp - Fleet-scale throughput & tail latency ----------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The scale benchmark of the sharded fleet engine (DESIGN.md §16): 10^5
// tenants across 16 share-nothing shards, reporting simulated ticks/sec,
// policy decisions/sec, per-tick tail latency (p50/p95/p99/p99.9) and the
// steady-tick heap-allocation count. Results land in BENCH_fleet.json for
// the bench-compare perf gate; the gated metrics are fleet.ns_per_tick
// (>15% regression fails) and fleet.allocs_per_steady_tick (any increase
// fails — the zero-allocation contract).
//
//   bench_fleet [--smoke] [--shards N] [--tenants N] [--rounds N]
//               [--ticks N] [--jobs N]
//
// --smoke   small fleet run end to end; no JSON written; fails on any
//           steady-tick heap allocation
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "CountingAllocator.h"

#include "exp/Fleet.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

using namespace medley;

namespace {

/// Heap allocations of one steady fleet tick: a churn-free single-shard
/// engine, warmed past every sticky-capacity phase, then metered tick by
/// tick. The minimum is the steady-state figure; the gate is zero.
size_t steadyTickAllocs() {
  exp::FleetScenarioConfig Config;
  Config.Shards = 1;
  Config.Tenants = 512;
  Config.ChurnRate = 0.0;
  Config.BurstEvery = 0;
  Config.StormShards = 0;
  exp::FleetScenario Scenario(Config);
  Scenario.seed();

  sim::FleetEngine &Engine = Scenario.engine();
  Engine.stepShard(0, 128); // Warm-up: capacities settle.
  size_t Min = std::numeric_limits<size_t>::max();
  for (int I = 0; I < 64; ++I) {
    size_t Before = bench::allocationCount();
    Engine.stepShard(0, 1);
    Min = std::min(Min, bench::allocationCount() - Before);
  }
  return Min;
}

void printResult(const char *Label, const exp::FleetResult &R) {
  const support::LatencyHistogram &H = R.TickLatency;
  std::cout << "  " << padRight(Label, 10) << "  "
            << padLeft(formatDouble(R.WallSeconds, 2), 7) << " s   "
            << padLeft(formatDouble(R.TicksPerSec / 1e3, 1), 8)
            << " Kticks/s  "
            << padLeft(formatDouble(R.DecisionsPerSec / 1e6, 2), 6)
            << " Mdec/s   tick p50/p95/p99/p99.9 "
            << H.p50() << '/' << H.p95() << '/' << H.p99() << '/' << H.p999()
            << " ns\n";
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  exp::FleetScenarioConfig Config;
  Config.Shards = 16;
  Config.Tenants = 100000;
  Config.Rounds = 8;
  Config.TicksPerRound = 25;
  Config.StormShards = 4;

  const uint64_t Max = std::numeric_limits<unsigned>::max();
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--smoke")
      Smoke = true;
    else if (Arg == "--shards" && I + 1 < Argc)
      Config.Shards =
          static_cast<unsigned>(bench::flagValue("shards", Argv[++I], 1, Max));
    else if (Arg == "--tenants" && I + 1 < Argc)
      Config.Tenants =
          static_cast<unsigned>(bench::flagValue("tenants", Argv[++I], 1, Max));
    else if (Arg == "--rounds" && I + 1 < Argc)
      Config.Rounds = bench::flagValue(
          "rounds", Argv[++I], 1, std::numeric_limits<uint64_t>::max());
    else if (Arg == "--ticks" && I + 1 < Argc)
      Config.TicksPerRound =
          static_cast<unsigned>(bench::flagValue("ticks", Argv[++I], 1, Max));
    else if (Arg == "--jobs" && I + 1 < Argc)
      Config.Jobs = static_cast<unsigned>(bench::flagValue(
          "jobs", Argv[++I], 0, support::ThreadPool::maxSaneJobs()));
    else {
      std::cerr << "usage: bench_fleet [--smoke] [--shards N] [--tenants N]"
                   " [--rounds N] [--ticks N] [--jobs N]\n";
      return 1;
    }
  }
  if (Smoke) {
    Config.Shards = 4;
    Config.Tenants = 2000;
    Config.Rounds = 2;
    Config.TicksPerRound = 10;
    Config.StormShards = 1;
  }

  bench::printBanner(
      "fleet-scale mapping throughput",
      "not a paper claim — 10^5 concurrent tenants across share-nothing "
      "shards with deterministic reduction");

  std::cout << "  " << Config.Tenants << " tenants, " << Config.Shards
            << " shards, " << Config.Rounds << " rounds x "
            << Config.TicksPerRound << " ticks, policy '" << Config.Policy
            << "'\n\n";

  exp::FleetResult Plain = exp::runFleetScenario(Config);
  printResult("fleet", Plain);

  size_t TickAllocs = steadyTickAllocs();
  std::cout << "  steady tick: " << TickAllocs << " heap allocations\n";

  if (Smoke) {
    std::cout << "\nsmoke run -- BENCH_fleet.json not written\n";
    return Plain.DecisionsTotal == 0 ||
                   !bench::zeroAllocations("steady tick", TickAllocs)
               ? 1
               : 0;
  }

  double NsPerTick =
      Plain.WallSeconds * 1e9 /
      static_cast<double>(std::max<uint64_t>(1, Plain.Stats.Totals.Ticks));
  const support::LatencyHistogram &H = Plain.TickLatency;

  std::ofstream Json("BENCH_fleet.json");
  Json << "{\n  \"bench\": \"fleet\",\n"
       << "  \"shape\": {\"shards\": " << Config.Shards
       << ", \"tenants\": " << Config.Tenants
       << ", \"rounds\": " << Config.Rounds
       << ", \"ticks_per_round\": " << Config.TicksPerRound << "},\n"
       << "  \"fleet\": {\"ns_per_tick\": " << NsPerTick
       << ", \"ticks_per_sec\": " << Plain.TicksPerSec
       << ", \"decisions_per_sec\": " << Plain.DecisionsPerSec
       << ", \"allocs_per_steady_tick\": " << TickAllocs << "},\n"
       << "  \"tick_latency\": {\"p50_ns\": " << H.p50()
       << ", \"p95_ns\": " << H.p95() << ", \"p99_ns\": " << H.p99()
       << ", \"p999_ns\": " << H.p999() << ", \"max_ns\": " << H.max()
       << "},\n"
       << "  \"determinism\": {\"stats_checksum\": " << Plain.Stats.Checksum
       << ", \"decision_checksum\": " << Plain.DecisionChecksum
       << ", \"decisions_total\": " << Plain.DecisionsTotal << "}\n}\n";
  std::cout << "\nwrote BENCH_fleet.json\n";
  return Plain.DecisionsTotal == 0 ? 1 : 0;
}
