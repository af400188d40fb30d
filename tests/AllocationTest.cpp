//===-- tests/AllocationTest.cpp - Zero-allocation contract and smoke runs ===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The zero-allocation contract (DESIGN.md §13.2): a steady co-execution
// tick, a steady fleet shard tick, a warm churn round and a warm decision
// of every policy and every mixture selector make no heap allocation. This
// binary replaces the global operator new with a counting one, the only
// such replacement in the tree. ASan and TSan intercept the allocator
// themselves, so there the replacement is compiled out and the counting
// tests skip.
//
// Two end-to-end runs ride along for the sanitizer matrix
// (tools/sanitize-matrix.sh): a traced small/low co-execution whose trace
// stays within its reserved rows and exports as CSV, and a churning
// 4-shard storm fleet on a worker pool, which drives the churn hook and
// the mailbox.
//
//===----------------------------------------------------------------------===//

#include "exp/Fleet.h"
#include "exp/PolicySet.h"
#include "exp/Scenario.h"
#include "runtime/CoExecution.h"
#include "sim/AvailabilityPattern.h"
#include "support/Random.h"
#include "workload/Catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MEDLEY_COUNTING_ALLOC 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MEDLEY_COUNTING_ALLOC 0
#else
#define MEDLEY_COUNTING_ALLOC 1
#endif
#else
#define MEDLEY_COUNTING_ALLOC 1
#endif

namespace {
std::atomic<size_t> GAllocCount{0};
} // namespace

#if MEDLEY_COUNTING_ALLOC
static void *countedAlloc(std::size_t Size) {
  ++GAllocCount;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

static void *countedAlignedAlloc(std::size_t Size, std::size_t Align) {
  ++GAllocCount;
  std::size_t Rounded = (Size + Align - 1) / Align * Align;
  if (void *P = std::aligned_alloc(Align, Rounded ? Rounded : Align))
    return P;
  throw std::bad_alloc();
}

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, static_cast<std::size_t>(Align));
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, static_cast<std::size_t>(Align));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
#endif // MEDLEY_COUNTING_ALLOC

using namespace medley;

namespace {

#define SKIP_WITHOUT_COUNTING()                                                \
  if (!MEDLEY_COUNTING_ALLOC)                                                  \
  GTEST_SKIP() << "ASan/TSan keep the stock allocator; nothing is counted"

/// Heap allocations made while \p F runs.
template <typename Fn> size_t allocationsDuring(Fn F) {
  size_t Before = GAllocCount.load();
  F();
  return GAllocCount.load() - Before;
}

} // namespace

TEST(AllocationTest, SteadyCoExecutionTickAllocatesNothing) {
  SKIP_WITHOUT_COUNTING();
  // runCoExecution's construction from its public pieces: a mixture-bound
  // cg target against pattern-driven bt and is, on the evaluation
  // platform's availability ladder.
  runtime::CoExecutionConfig Config;
  Config.Availability = [] {
    return sim::PeriodicAvailability::standardLadder(32, 20.0, 42);
  };
  Config.WorkloadSeed = 42;
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
    Sim.addTask(std::make_shared<workload::Program>(
        workload::Catalog::byName(Name),
        workload::ThreadPattern::makeChooser(
            Seed, Config.WorkloadMinThreads, Config.WorkloadMaxThreads,
            Config.WorkloadChangePeriod),
        TotalCores, /*Looping=*/true));
  }

  for (int I = 0; I < 32; ++I) // Warm-up: capacities settle.
    Sim.step();
  EXPECT_EQ(allocationsDuring([&] {
              for (int I = 0; I < 64; ++I)
                Sim.step();
            }),
            0u);
}

TEST(AllocationTest, SteadyFleetShardTickAllocatesNothing) {
  SKIP_WITHOUT_COUNTING();
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
  EXPECT_EQ(allocationsDuring([&] { Engine.stepShard(0, 64); }), 0u);
}

TEST(AllocationTest, WarmChurnHookAllocatesNothing) {
  SKIP_WITHOUT_COUNTING();
  // One churning shard, no bursts: every round about 40 of its 4,000
  // tenants leave, half of them mailed back to the shard itself. Delivery
  // builds tenants, so only the churn phase is counted.
  exp::FleetScenarioConfig Config;
  Config.Shards = 1;
  Config.Tenants = 4000;
  Config.ChurnRate = 0.01;
  Config.BurstEvery = 0;
  Config.StormShards = 0;
  exp::FleetScenario Scenario(Config);
  Scenario.seed();

  sim::FleetEngine &Engine = Scenario.engine();
  uint64_t Round = 0;
  for (; Round < 4; ++Round) { // Warm-up: the pick list and inbox grow.
    Engine.drainInbox(0);
    Engine.runChurn(0, Round);
  }
  size_t Allocations = 0;
  for (; Round < 12; ++Round) {
    Engine.drainInbox(0);
    Allocations += allocationsDuring([&] { Engine.runChurn(0, Round); });
  }
  EXPECT_EQ(Allocations, 0u) << "heap allocations over 8 warm churn rounds";
}

namespace {

class DecisionAllocationTest : public ::testing::TestWithParam<std::string> {};

/// The policy a parameter names: a `--policy` name, a mixture selector
/// kind over 4 experts, or "fixed", the mixture pinned to expert 1.
std::unique_ptr<policy::ThreadPolicy> makePolicy(const std::string &Name) {
  exp::PolicySet &Set = exp::PolicySet::instance();
  const std::vector<std::string> &Names = exp::PolicySet::policyNames();
  if (std::find(Names.begin(), Names.end(), Name) != Names.end())
    return Set.factory(Name)();
  if (Name == "fixed")
    return Set.singleExpertFactory(4, 1)();
  return Set.mixtureFactory(4, Name)();
}

} // namespace

TEST_P(DecisionAllocationTest, WarmDecisionsAllocateNothing) {
  SKIP_WITHOUT_COUNTING();
  // Decisions through the binding a Program uses: feature assembly, the
  // policy's select, the clamp, then the completed region's feedback. The
  // stream walks cg's regions under a drifting environment with simulated
  // time advancing, so analytic explores and holds many times over.
  auto Policy = makePolicy(GetParam());
  const workload::ProgramSpec &Spec = workload::Catalog::byName("cg");
  const unsigned TotalCores = 32;
  workload::ThreadChooser Choose = runtime::bindPolicy(*Policy, TotalCores);
  workload::RegionObserver Observe = runtime::bindObserver(*Policy);

  Rng Gen(0xA110C);
  workload::RegionContext Context;
  Context.Program = &Spec;
  Context.MaxThreads = TotalCores;
  size_t Decisions = 0;
  auto Decide = [&] {
    size_t R = Decisions++ % Spec.Regions.size();
    Context.Region = &Spec.Regions[R];
    Context.RegionIndex = R;
    Context.Iteration = Decisions;
    Context.Now = 0.1 * static_cast<double>(Decisions);
    Context.Env.Processors = static_cast<double>(Gen.uniformInt(4, 32));
    Context.Env.WorkloadThreads = Gen.uniform(0.0, 24.0);
    Context.Env.RunQueue = Context.Env.WorkloadThreads + Gen.uniform(0, 16);
    Context.Env.LoadAvg1 = Gen.uniform(0.0, 32.0);
    Context.Env.LoadAvg5 = Gen.uniform(0.0, 32.0);
    Context.Env.CachedMemory = Gen.uniform(0.0, 1.0);
    Context.Env.PageFreeRate = Gen.uniform(0.0, 0.1);
    unsigned Threads = Choose(Context);

    workload::RegionOutcome Outcome;
    Outcome.Region = Context.Region;
    Outcome.Threads = Threads;
    Outcome.Work = 1.0;
    Outcome.Duration = 0.05 + 1.0 / Threads + Gen.uniform(0.0, 0.05);
    Outcome.EndTime = Context.Now;
    Observe(Outcome);
  };

  for (int I = 0; I < 100; ++I) // Warm-up: scratch capacities settle.
    Decide();
  EXPECT_EQ(allocationsDuring([&] {
              for (int I = 0; I < 1900; ++I)
                Decide();
            }),
            0u)
      << "heap allocations over 1900 warm '" << GetParam() << "' decisions";
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, DecisionAllocationTest,
    ::testing::ValuesIn(exp::PolicySet::policyNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

// `mixture` runs the regime selector; these are the mixture's other gates.
INSTANTIATE_TEST_SUITE_P(
    AllSelectors, DecisionAllocationTest,
    ::testing::Values("accuracy", "binned", "perceptron", "hyperplane",
                      "random", "fixed"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

TEST(SanitizerSmokeTest, TracedSmallLowCoExecutionRoundTrips) {
  // The small/low scenario's first cell: cg under the mixture against the
  // first small workload set, on the 20 s availability ladder.
  exp::Scenario Scen = exp::Scenario::smallLow();
  runtime::CoExecutionConfig Config;
  Config.RecordTraces = true;
  const unsigned Cores = Config.Machine.TotalCores;
  const double Period = Scen.availabilityPeriod();
  Config.Availability = [Cores, Period] {
    return sim::PeriodicAvailability::standardLadder(Cores, Period, 7);
  };
  auto Policy = exp::PolicySet::instance().factory("mixture")();
  runtime::CoExecutionResult R = runtime::runCoExecution(
      Config, workload::Catalog::byName("cg"), *Policy,
      runtime::patternWorkload(Scen.workloadSets().front().Programs));
  ASSERT_TRUE(R.TargetFinished);
  ASSERT_GT(R.Trace.size(), 100u);
  // The rows fit the reservation made before the first tick, so no
  // traced tick reallocated.
  EXPECT_EQ(R.Trace.capacity(),
            static_cast<size_t>(Config.MaxTime / Config.Tick) + 1);

  // The CSV: one header line, then one line per row in ascending time.
  std::ostringstream Csv;
  runtime::exportCsv(R.Trace, Csv);
  std::istringstream Lines(Csv.str());
  std::string Line;
  ASSERT_TRUE(std::getline(Lines, Line));
  EXPECT_EQ(Line, "time,available_cores,workload_threads,target_threads,"
                  "env_norm");
  size_t Rows = 0;
  double LastTime = -1.0;
  while (std::getline(Lines, Line)) {
    double Time = std::stod(Line.substr(0, Line.find(',')));
    ASSERT_GT(Time, LastTime) << "line " << Rows + 2 << ": " << Line;
    ASSERT_EQ(std::count(Line.begin(), Line.end(), ','), 4) << Line;
    LastTime = Time;
    ++Rows;
  }
  EXPECT_EQ(Rows, R.Trace.size());
}

TEST(SanitizerSmokeTest, StormFleetChurnsAcrossShards) {
  // 2,000 tenants on 4 shards with storms on shard 0, churning every round
  // on a 4-worker pool.
  exp::FleetScenarioConfig Config;
  Config.Shards = 4;
  Config.Tenants = 2000;
  Config.Rounds = 2;
  Config.TicksPerRound = 10;
  Config.StormShards = 1;
  Config.Jobs = 4;
  exp::FleetResult R = exp::runFleetScenario(Config);
  EXPECT_GT(R.DecisionsTotal, 0u);
  EXPECT_EQ(R.Stats.Totals.Ticks, 4u * 2u * 10u);
  EXPECT_GT(R.Stats.Totals.DeparturesSent, 0u);
  EXPECT_GT(R.Stats.Totals.ArrivalsDelivered, 0u);
  EXPECT_GT(R.Stats.Totals.TasksAlive, 0u);
}
