// Differential suite for morsel-parallel execution: for random databases,
// plans lowered with PlanOptions::parallelism ∈ {2, 4, 8} (force_parallel,
// so the cardinality threshold cannot quietly serialize them) must produce
// results identical to
//  * the single-thread plan (parallelism = 1, the exact legacy path),
//  * the whole-relation algebra kernels,
//  * the materializing interpreter,
// over scans, restrictions, hash/natural joins and grouped aggregates.
// Identity is asserted both as set equality and as exact rendered output:
// every parallel merge happens in morsel order, so the parallel stream is
// deterministic and tuple-for-tuple equal to the serial one, not merely
// set-equal. Every (hrql, parallelism) execution is additionally swept
// over the batch-size axis (tests/differential_util.h), so batching and
// parallelism are proven independent. Plus directed checks of the
// planner's parallelism decisions (threshold fallback, PlanStats
// morsel/worker counters).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/aggregate.h"
#include "algebra/join.h"
#include "differential_util.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "test_seeds.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm::query {
namespace {

constexpr char kSeedEnv[] = "HRDM_PARALLEL_FUZZ_SEEDS";

/// Drains `hrql` through a plan with the given parallelism (bypassing the
/// cardinality threshold, so small fuzz relations really run parallel),
/// swept over the batch-size axis.
Result<Relation> RunAtThreads(const storage::Database& db,
                              const std::string& hrql, size_t threads) {
  PlanOptions options;
  options.parallelism = threads;
  options.force_parallel = threads > 1;
  return hrdm::testing::RunBatchInvariant(db, hrql, options);
}

/// Runs `hrql` serially and at 2/4/8 workers, asserting the parallel
/// results are tuple-for-tuple identical to the serial one (and to
/// `reference` / the materializing interpreter).
void ExpectParallelMatchesSerial(const storage::Database& db,
                                 const std::string& hrql,
                                 const Relation* reference) {
  auto serial = RunAtThreads(db, hrql, 1);
  ASSERT_TRUE(serial.ok()) << hrql << ": " << serial.status().ToString();
  for (size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(hrql + " @ " + std::to_string(threads) + " threads");
    auto parallel = RunAtThreads(db, hrql, threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_TRUE(parallel->EqualsAsSet(*serial))
        << "parallel:\n"
        << parallel->ToString() << "serial:\n"
        << serial->ToString();
    // Morsel-order merges make the parallel plan deterministic and
    // order-identical to serial, not merely set-equal.
    EXPECT_EQ(parallel->ToString(), serial->ToString());
  }
  hrdm::testing::ExpectMatchesOracle(db, hrql, *serial, reference);
}

/// The shared four-relation fuzz database at this suite's historical
/// tuple counts (see tests/differential_util.h for the shape).
storage::Database RandomParallelDb(uint64_t seed) {
  return hrdm::testing::RandomJoinStyleDb(
      seed, {.ra_tuples = 12, .na_tuples = 9, .nb_tuples = 7});
}

TEST(ParallelDifferentialTest, RandomDatabases) {
  // ≥100 random databases; override with HRDM_PARALLEL_FUZZ_SEEDS=....
  for (uint64_t seed : hrdm::testing::SeedsFromEnv(
           kSeedEnv, hrdm::testing::DefaultFuzzSeeds())) {
    SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, seed));
    auto db = RandomParallelDb(seed);
    const Relation& ra = **db.Get("ra");
    const Relation& rb = **db.Get("rb");
    const Relation& na = **db.Get("na");
    const Relation& nb = **db.Get("nb");

    // Parallel scan leaf, bare and under streaming restrictions.
    ExpectParallelMatchesSerial(db, "ra", &ra);
    ExpectParallelMatchesSerial(db, "select_when(ra, A0 <= 50)", nullptr);
    ExpectParallelMatchesSerial(db, "timeslice(ra, {[5, 40]})", nullptr);

    // Parallel hash equi-join (build partitioning + parallel probe).
    auto equi = EquiJoin(ra, "A0", rb, "B0");
    ASSERT_TRUE(equi.ok());
    ExpectParallelMatchesSerial(db, "join(ra, rb, A0 = B0)", &*equi);

    // Natural join with occasionally-varying shared attribute D.
    auto nat = NaturalJoin(na, nb);
    ASSERT_TRUE(nat.ok());
    ExpectParallelMatchesSerial(db, "natjoin(na, nb)", &*nat);

    // Parallel aggregate fold: grouped count/sum (varying D keys included)
    // and an ungrouped avg.
    auto grouped = Aggregate(na, {AggregateFn::kCount, "", {"D"}});
    ASSERT_TRUE(grouped.ok());
    ExpectParallelMatchesSerial(db, "aggregate(na, count by D)", &*grouped);
    ExpectParallelMatchesSerial(db, "aggregate(na, sum X by D)", nullptr);
    ExpectParallelMatchesSerial(db, "aggregate(ra, avg A0)", nullptr);

    // Composed pipeline: parallel scan → join → aggregate in one plan.
    ExpectParallelMatchesSerial(
        db, "aggregate(natjoin(na, nb), count by D)", nullptr);
  }
}

// ---------------------------------------------------------------------------
// Directed planner/stats checks.
// ---------------------------------------------------------------------------

TEST(ParallelPlanTest, ThresholdKeepsSmallPlansSerial) {
  // Without force_parallel, a relation far below kParallelMinTuples stays
  // serial no matter how many workers are requested.
  auto db = RandomParallelDb(7);
  auto expr = ParseExpr("join(ra, rb, A0 = B0)");
  ASSERT_TRUE(expr.ok());
  PlanOptions options;
  options.parallelism = 8;
  const auto pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin), options);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->Drain().ok());
  EXPECT_EQ(plan->stats().parallelism, 1u);
  EXPECT_EQ(plan->stats().parallel_operators, 0u);
  EXPECT_EQ(plan->stats().morsels_dispatched, 0u);
  EXPECT_TRUE(plan->stats().worker_tuples.empty());
}

TEST(ParallelPlanTest, ForcedParallelPlanRecordsMorselTraffic) {
  auto db = RandomParallelDb(7);
  auto expr = ParseExpr("aggregate(natjoin(na, nb), count by D)");
  ASSERT_TRUE(expr.ok());
  PlanOptions options;
  options.parallelism = 4;
  options.force_parallel = true;
  const auto pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin), options);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->Drain().ok());
  const PlanStats& stats = plan->stats();
  EXPECT_EQ(stats.parallelism, 4u);
  // Two scan leaves, the hash join and the aggregate all ran parallel
  // phases (the natural join has a shared attribute, so the chooser picks
  // hash for it on these schemes).
  EXPECT_GE(stats.parallel_operators, 3u);
  EXPECT_GT(stats.morsels_dispatched, 0u);
  EXPECT_GT(stats.partitions_merged, 0u);
  // Every processed tuple is attributed to some worker.
  size_t worker_sum = 0;
  for (size_t n : stats.worker_tuples) worker_sum += n;
  EXPECT_GT(worker_sum, 0u);
}

TEST(ParallelPlanTest, ExplicitSingleThreadMatchesDefaultSerialPlan) {
  // parallelism = 1 is the exact legacy path: identical output and
  // identical serial counters to an options-free lowering.
  auto db = RandomParallelDb(11);
  auto expr = ParseExpr("join(ra, rb, A0 = B0)");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto legacy = Plan::Lower(*expr, VersionResolver(*pin));
  ASSERT_TRUE(legacy.ok());
  auto legacy_out = legacy->Drain();
  ASSERT_TRUE(legacy_out.ok());
  PlanOptions options;
  options.parallelism = 1;
  auto single = Plan::Lower(*expr, VersionResolver(*pin), options);
  ASSERT_TRUE(single.ok());
  auto single_out = single->Drain();
  ASSERT_TRUE(single_out.ok());
  EXPECT_EQ(single_out->ToString(), legacy_out->ToString());
  EXPECT_EQ(single->stats().join_pairs_tested,
            legacy->stats().join_pairs_tested);
  EXPECT_EQ(single->stats().peak_buffered, legacy->stats().peak_buffered);
  EXPECT_EQ(single->stats().parallelism, 1u);
  EXPECT_EQ(single->stats().morsels_dispatched, 0u);
}

}  // namespace
}  // namespace hrdm::query
