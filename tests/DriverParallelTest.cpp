//===-- tests/DriverParallelTest.cpp - pooled experiment engine tests ---------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The determinism contract of the parallel experiment engine: a cell plan
// executed across the thread pool must produce bit-identical results to
// the sequential path at every job count, and baseline cells must be
// served from the process-wide cache instead of being recomputed for
// every policy.
//
//===----------------------------------------------------------------------===//

#include "core/MoeStats.h"
#include "exp/BaselineCache.h"
#include "exp/Driver.h"
#include "exp/PolicySet.h"
#include "exp/Reporter.h"

#include <gtest/gtest.h>

using namespace medley;
using namespace medley::exp;

namespace {

/// A seed of its own keeps these tests' baseline-cache keys disjoint from
/// every other test in the binary.
DriverOptions gridOptions(unsigned Jobs) {
  DriverOptions Options;
  Options.Repeats = 2;
  Options.Seed = 0x9A11E7;
  Options.Jobs = Jobs;
  return Options;
}

SpeedupMatrix runGrid(unsigned Jobs) {
  Driver D(gridOptions(Jobs));
  // Pooled and sequential passes must both *compute* their baselines for
  // the comparison to exercise the full plan.
  D.clearCache();
  // The analytic policy's factory hands out seeds in instantiation order,
  // so it is the policy most sensitive to plan-order mistakes.
  return computeSpeedupMatrix(D, PolicySet::instance(), {"cg", "lu"},
                              {"online", "analytic"}, Scenario::smallLow());
}

} // namespace

TEST(DriverParallelTest, PooledMatrixIsBitIdenticalToSequential) {
  SpeedupMatrix Sequential = runGrid(1);
  SpeedupMatrix Pooled = runGrid(4);

  ASSERT_EQ(Sequential.Targets, Pooled.Targets);
  ASSERT_EQ(Sequential.Policies, Pooled.Policies);
  ASSERT_EQ(Sequential.Values.size(), Pooled.Values.size());
  for (size_t T = 0; T < Sequential.Values.size(); ++T) {
    ASSERT_EQ(Sequential.Values[T].size(), Pooled.Values[T].size());
    for (size_t P = 0; P < Sequential.Values[T].size(); ++P)
      // EXPECT_EQ, not EXPECT_NEAR: the contract is bit-identity.
      EXPECT_EQ(Sequential.Values[T][P], Pooled.Values[T][P])
          << Sequential.Targets[T] << " under " << Sequential.Policies[P];
  }
}

TEST(DriverParallelTest, PooledMeasureMatchesSequential) {
  Scenario S = Scenario::smallLow();
  const workload::WorkloadSet &Set = S.workloadSets()[0];
  PolicySet &Policies = PolicySet::instance();

  Driver Sequential(gridOptions(1));
  Driver Pooled(gridOptions(4));
  Measurement A = Sequential.measure("mg", Policies.factory("online"), S, &Set);
  Measurement B = Pooled.measure("mg", Policies.factory("online"), S, &Set);

  EXPECT_EQ(A.MeanTargetTime, B.MeanTargetTime);
  EXPECT_EQ(A.MeanWorkloadThroughput, B.MeanWorkloadThroughput);
  ASSERT_EQ(A.Runs.size(), B.Runs.size());
  for (size_t R = 0; R < A.Runs.size(); ++R) {
    EXPECT_EQ(A.Runs[R].TargetTime, B.Runs[R].TargetTime);
    EXPECT_EQ(A.Runs[R].WorkloadThroughput, B.Runs[R].WorkloadThroughput);
  }
}

TEST(DriverParallelTest, BaselineComputedOnceAcrossPolicies) {
  DriverOptions Options = gridOptions(2);
  Options.Seed = 0x7E57CACE; // Fresh keys: every baseline starts uncached.
  Driver D(Options);
  PolicySet &Policies = PolicySet::instance();
  Scenario S = Scenario::smallLow();
  size_t NumSets = S.workloadSets().size();
  ASSERT_GT(NumSets, 0u);

  BaselineCache &Cache = BaselineCache::instance();
  Cache.resetCounters();

  double First = D.speedup("cg", Policies.factory("online"), S);
  EXPECT_EQ(Cache.misses(), NumSets);
  EXPECT_EQ(Cache.hits(), 0u);

  // A second policy over the same cells must hit every baseline instead
  // of recomputing it.
  double Second = D.speedup("cg", Policies.factory("analytic"), S);
  EXPECT_EQ(Cache.misses(), NumSets);
  EXPECT_EQ(Cache.hits(), NumSets);

  EXPECT_GT(First, 0.0);
  EXPECT_GT(Second, 0.0);
}

TEST(DriverParallelTest, BatchDeduplicatesBaselineCells) {
  DriverOptions Options = gridOptions(2);
  Options.Seed = 0xDEDD0B; // Distinct from every other test's seed.
  Driver D(Options);
  Scenario S = Scenario::isolatedStatic();

  // The same baseline cell three times in one batch: one computation, one
  // shared result object.
  CellSpec Base;
  Base.Target = "cg";
  Base.Scen = &S;
  std::vector<CellSpec> Cells = {Base, Base, Base};

  BaselineCache &Cache = BaselineCache::instance();
  Cache.resetCounters();
  auto Results = D.measureCells(Cells);
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_EQ(Results[0].get(), Results[1].get());
  EXPECT_EQ(Results[0].get(), Results[2].get());
  EXPECT_EQ(Cache.misses(), 1u); // Duplicates alias within the batch.
}

namespace {

/// Every count of \p H up to its largest value, in value order.
std::vector<size_t> countsOf(const Histogram &H) {
  std::vector<size_t> Counts;
  for (unsigned V = 0; V <= H.maxValue(); ++V)
    Counts.push_back(H.count(V));
  return Counts;
}

} // namespace

TEST(DriverParallelTest, SharedMixtureStatsMatchAtAnyJobs) {
  // One MoeStats shared by every mixture instance of a plan, as the
  // Fig 15a/15b/17 benches share it: at 4 jobs the instances record into
  // it concurrently, and the totals must still equal the 1-job run's.
  auto Collect = [](unsigned Jobs) {
    auto Stats = std::make_shared<core::MoeStats>(4);
    Driver D(gridOptions(Jobs));
    D.speedup("cg", PolicySet::instance().mixtureFactory(4, "regime", Stats),
              Scenario::smallLow());
    return Stats;
  };
  std::shared_ptr<core::MoeStats> Sequential = Collect(1);
  std::shared_ptr<core::MoeStats> Pooled = Collect(4);

  EXPECT_GT(Sequential->MixtureThreads.total(), 0u);
  EXPECT_EQ(Sequential->SelectionCounts, Pooled->SelectionCounts);
  EXPECT_EQ(Sequential->EnvAccurate, Pooled->EnvAccurate);
  EXPECT_EQ(Sequential->EnvTotal, Pooled->EnvTotal);
  EXPECT_EQ(Sequential->MixtureEnvAccurate, Pooled->MixtureEnvAccurate);
  EXPECT_EQ(Sequential->MixtureEnvTotal, Pooled->MixtureEnvTotal);
  EXPECT_EQ(countsOf(Sequential->MixtureThreads),
            countsOf(Pooled->MixtureThreads));
  for (size_t E = 0; E < 4; ++E)
    EXPECT_EQ(countsOf(Sequential->ExpertThreads[E]),
              countsOf(Pooled->ExpertThreads[E]))
        << "expert " << E;
}
