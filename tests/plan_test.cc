// The physical plan layer: streaming/materializing parity (property-tested
// over random databases for every operator), copy-on-write relation
// semantics, and the end-to-end streaming guarantee for deep unary
// pipelines (peak intermediate tuples == 0).

#include "query/plan.h"

#include <gtest/gtest.h>

#include "query/executor.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "test_seeds.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm::query {
namespace {

constexpr char kSeedEnv[] = "HRDM_PLAN_SEEDS";

/// Two union-compatible random relations r0/r1 (overlapping key spaces,
/// random ALS gaps, a time-valued Ref attribute for dynslice).
storage::Database RandomDb(uint64_t seed) {
  Rng rng(seed);
  storage::Database db;
  for (int i = 0; i < 2; ++i) {
    workload::RandomRelationConfig config;
    config.name = "r" + std::to_string(i);
    config.num_tuples = 20;
    config.num_value_attrs = 2;
    config.horizon = 60;
    config.with_time_attribute = true;
    config.random_attribute_lifespans = true;
    config.key_space = 30;  // overlap between r0 and r1
    auto rel = workload::MakeRandomRelation(&rng, config);
    EXPECT_TRUE(rel.ok());
    EXPECT_TRUE(db.CreateRelation(rel->scheme()).ok());
    for (const Tuple& t : *rel) {
      EXPECT_TRUE(db.Insert(config.name, t).ok());
    }
  }
  return db;
}

/// Two small relations with disjoint attribute sets (for × and the joins);
/// lft carries a time-valued Ref for timejoin.
storage::Database JoinDb(uint64_t seed) {
  Rng rng(seed);
  const Lifespan full = Span(0, 59);
  SchemePtr left = *RelationScheme::Make(
      "lft",
      {{"LId", DomainType::kString, full, InterpolationKind::kDiscrete},
       {"LV", DomainType::kInt, full, InterpolationKind::kStepwise},
       {"Ref", DomainType::kTime, full, InterpolationKind::kStepwise}},
      {"LId"});
  SchemePtr right = *RelationScheme::Make(
      "rgt",
      {{"RId", DomainType::kString, full, InterpolationKind::kDiscrete},
       {"RV", DomainType::kInt, full, InterpolationKind::kStepwise}},
      {"RId"});
  storage::Database db;
  EXPECT_TRUE(db.CreateRelation(left).ok());
  EXPECT_TRUE(db.CreateRelation(right).ok());
  for (int i = 0; i < 8; ++i) {
    const TimePoint b = rng.Uniform(0, 30);
    const TimePoint e = b + rng.Uniform(5, 25);
    Tuple::Builder lb(left, Span(b, std::min<TimePoint>(e, 59)));
    std::string lid = "l";  // two-step concat: GCC 12 -Wrestrict false positive
    lid += std::to_string(i);
    lb.SetConstant("LId", Value::String(std::move(lid)));
    lb.SetConstant("LV", Value::Int(rng.Uniform(0, 100)));
    lb.SetConstant("Ref", Value::Time(rng.Uniform(0, 59)));
    EXPECT_TRUE(db.Insert("lft", *std::move(lb).Build()).ok());
  }
  for (int i = 0; i < 6; ++i) {
    const TimePoint b = rng.Uniform(0, 30);
    const TimePoint e = b + rng.Uniform(5, 25);
    Tuple::Builder rb(right, Span(b, std::min<TimePoint>(e, 59)));
    std::string rid = "r";
    rid += std::to_string(i);
    rb.SetConstant("RId", Value::String(std::move(rid)));
    rb.SetConstant("RV", Value::Int(rng.Uniform(0, 100)));
    EXPECT_TRUE(db.Insert("rgt", *std::move(rb).Build()).ok());
  }
  return db;
}

/// Asserts the streaming plan and the materializing interpreter agree on
/// `hrql` (as sets of tuples).
void ExpectParity(const storage::Database& db, const std::string& hrql) {
  auto expr = ParseExpr(hrql);
  ASSERT_TRUE(expr.ok()) << hrql << ": " << expr.status().ToString();

  const auto pin = db.CurrentVersion();
  auto streamed = Eval(*expr, *pin);
  auto materialized = EvalMaterializing(*expr, VersionResolver(*pin));
  ASSERT_EQ(streamed.ok(), materialized.ok())
      << hrql << ": " << streamed.status().ToString() << " vs "
      << materialized.status().ToString();
  if (!streamed.ok()) return;
  EXPECT_TRUE(streamed->EqualsAsSet(*materialized))
      << hrql << "\nstreaming:\n"
      << streamed->ToString() << "materializing:\n"
      << materialized->ToString();
}

class PlanParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanParityTest, UnaryOperators) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, GetParam()));
  auto db = RandomDb(GetParam());
  ExpectParity(db, "r0");
  ExpectParity(db, "timeslice(r0, {[10,40]})");
  ExpectParity(db, "timeslice(r0, {[0,4],[50,59]})");
  ExpectParity(db, "select_if(r0, A0 >= 50, exists)");
  ExpectParity(db, "select_if(r0, A1 < 30, forall)");
  ExpectParity(db, "select_if(r0, A0 >= 50, forall, {[5,25]})");
  ExpectParity(db, "select_when(r0, A0 >= 50)");
  ExpectParity(db, "project(r0, Id, A1)");
  ExpectParity(db, "project(r0, A0)");
  ExpectParity(db, "dynslice(r0, Ref)");
}

TEST_P(PlanParityTest, SetOperators) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, GetParam()));
  auto db = RandomDb(GetParam());
  ExpectParity(db, "union(r0, r1)");
  ExpectParity(db, "intersect(r0, r1)");
  ExpectParity(db, "minus(r0, r1)");
  ExpectParity(db, "ounion(r0, r1)");
  ExpectParity(db, "ointersect(r0, r1)");
  ExpectParity(db, "ominus(r0, r1)");
}

TEST_P(PlanParityTest, ProductsAndJoins) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, GetParam()));
  auto db = JoinDb(GetParam());
  ExpectParity(db, "product(lft, rgt)");
  ExpectParity(db, "join(lft, rgt, LV >= RV)");
  ExpectParity(db, "join(lft, rgt, LV != RV)");
  ExpectParity(db, "natjoin(lft, rgt)");
  ExpectParity(db, "timejoin(lft, rgt, Ref)");
  ExpectParity(db, "project(join(lft, rgt, LV >= RV), LId, RId)");
  // Error parity with an empty right input: the left side's runtime error
  // must surface even though the product itself is trivially empty.
  ExpectParity(db,
               "product(select_if(lft, Bogus = 1, exists), "
               "timeslice(rgt, {[200,210]}))");
  ExpectParity(db, "product(lft, timeslice(rgt, {[200,210]}))");
}

TEST_P(PlanParityTest, ComposedPipelinesAndWindows) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, GetParam()));
  auto db = RandomDb(GetParam());
  ExpectParity(db,
               "project(select_when(timeslice(r0, {[5,50]}), A0 >= 40), Id, "
               "A0)");
  ExpectParity(db, "timeslice(r0, when(select_when(r1, A0 >= 30)))");
  ExpectParity(db,
               "select_if(union(r0, r1), A0 >= 20, exists, "
               "lunion({[0,9]}, {[30,59]}))");
  ExpectParity(db, "minus(timeslice(r0, {[0,30]}), select_when(r1, A1 < 80))");
  ExpectParity(db,
               "ounion(timeslice(r0, {[0,29]}), timeslice(r0, {[30,59]}))");
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PlanParityTest,
    ::testing::ValuesIn(hrdm::testing::SeedsFromEnv(
        kSeedEnv, {1u, 2u, 3u, 7u, 42u, 1987u})));

// ---------------------------------------------------------------------------
// Streaming guarantees.
// ---------------------------------------------------------------------------

TEST(PlanStreamingTest, DeepUnaryPipelineBuffersNothing) {
  auto db = RandomDb(42);
  // The optimizer-favored shape: project(select_when(timeslice(r, L), p), X).
  auto expr = ParseExpr(
      "project(select_when(timeslice(r0, {[5,50]}), A0 >= 20), Id, A0)");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin));
  ASSERT_TRUE(plan.ok());
  auto rel = plan->Drain();
  ASSERT_TRUE(rel.ok());
  EXPECT_FALSE(rel->empty());
  // No intermediate Relation was materialized anywhere in the pipeline.
  EXPECT_EQ(plan->stats().peak_buffered, 0u);
  EXPECT_EQ(plan->stats().buffered_now, 0u);
  EXPECT_GT(plan->stats().tuples_scanned, 0u);
  EXPECT_EQ(plan->stats().tuples_returned, rel->size());
}

TEST(PlanStreamingTest, LongerChainStillStreams) {
  auto db = RandomDb(7);
  auto expr = ParseExpr(
      "project(select_if(select_when(timeslice(dynslice(r0, Ref), "
      "{[0,55]}), A0 >= 10), A1 >= 0, exists), Id)");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin));
  ASSERT_TRUE(plan.ok());
  auto rel = plan->Drain();
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(plan->stats().peak_buffered, 0u);
}

TEST(PlanStreamingTest, BlockingOperatorsAccountForBuffering) {
  auto db = RandomDb(3);
  auto expr = ParseExpr("union(r0, r1)");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin));
  ASSERT_TRUE(plan.ok());
  auto rel = plan->Drain();
  ASSERT_TRUE(rel.ok());
  // Both inputs (and the result) were buffered — the counter sees them.
  EXPECT_GT(plan->stats().peak_buffered, 0u);
}

TEST(PlanStreamingTest, ProductBuffersOnlyRightInput) {
  auto db = JoinDb(11);
  auto expr = ParseExpr("product(lft, rgt)");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin));
  ASSERT_TRUE(plan.ok());
  auto rel = plan->Drain();
  ASSERT_TRUE(rel.ok());
  const size_t right_size = (*db.Get("rgt"))->size();
  EXPECT_EQ(plan->stats().peak_buffered, right_size);
  // × lowers to the nested-loop join cursor, which tests every pair.
  const size_t left_size = (*db.Get("lft"))->size();
  EXPECT_EQ(plan->stats().joins_nested_loop, 1u);
  EXPECT_EQ(plan->stats().join_pairs_tested, left_size * right_size);
}

TEST(PlanStreamingTest, HashJoinBuffersOnlyBuildSide) {
  auto db = JoinDb(11);
  // Equality θ on comparable int domains: the optimizer picks the hash
  // strategy and builds on the smaller input (rgt, 6 < 8 tuples).
  auto expr = ParseExpr("join(lft, rgt, LV = RV)");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->Drain().ok());
  EXPECT_EQ(plan->stats().joins_hash, 1u);
  EXPECT_EQ(plan->stats().joins_nested_loop, 0u);
  const size_t right_size = (*db.Get("rgt"))->size();
  // Only the build side is ever buffered — not the probe side, not the
  // result.
  EXPECT_EQ(plan->stats().peak_buffered, right_size);
  // The digest partitioning tested far fewer pairs than the 8×6 product.
  const size_t left_size = (*db.Get("lft"))->size();
  EXPECT_LT(plan->stats().join_pairs_tested, left_size * right_size);
}

TEST(PlanStreamingTest, HashBuildSideFollowsLiveSize) {
  auto db = JoinDb(11);
  // Erase lft tuples (EndLifespan at their first chronon leaves nothing)
  // until lft, 8 tuples at first, is the smaller input (3 < 6).
  std::vector<std::vector<Value>> keys;
  std::vector<TimePoint> births;
  for (const Tuple& t : **db.Get("lft")) {
    keys.push_back(t.KeyValues());
    births.push_back(t.lifespan().Min());
  }
  ASSERT_EQ(keys.size(), 8u);
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.EndLifespan("lft", keys[i], births[i]).ok());
  }
  const size_t left_size = (*db.Get("lft"))->size();
  const size_t right_size = (*db.Get("rgt"))->size();
  ASSERT_EQ(left_size, 3u);
  ASSERT_LT(left_size, right_size);

  auto expr = ParseExpr("join(lft, rgt, LV = RV)");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto plan =
      Plan::Lower(*expr, VersionResolver(*pin), VersionPlanOptions(*pin));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->Drain().ok());
  EXPECT_EQ(plan->stats().joins_hash, 1u);
  // The planner read the live sizes, so the now-smaller lft is the build
  // side and the only input ever buffered.
  EXPECT_EQ(plan->stats().peak_buffered, left_size);
}

TEST(PlanStreamingTest, NestedLoopJoinBuffersOnlyRightInput) {
  auto db = JoinDb(11);
  // Inequality θ: no hashable pattern, nested loop (which still buffers
  // only the right input — better than draining both sides whole).
  auto expr = ParseExpr("join(lft, rgt, LV >= RV)");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->Drain().ok());
  EXPECT_EQ(plan->stats().joins_nested_loop, 1u);
  EXPECT_EQ(plan->stats().joins_hash, 0u);
  const size_t left_size = (*db.Get("lft"))->size();
  const size_t right_size = (*db.Get("rgt"))->size();
  EXPECT_EQ(plan->stats().peak_buffered, right_size);
  // The fallback really is the full pair space.
  EXPECT_EQ(plan->stats().join_pairs_tested, left_size * right_size);
}

TEST(PlanStreamingTest, MergeStrategySelectedForTimeJoin) {
  auto db = JoinDb(11);
  auto expr = ParseExpr("timejoin(lft, rgt, Ref)");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->Drain().ok());
  EXPECT_EQ(plan->stats().joins_merge, 1u);
  // The merge buffers both (sorted) sides, never the result.
  const size_t both =
      (*db.Get("lft"))->size() + (*db.Get("rgt"))->size();
  EXPECT_GT(plan->stats().peak_buffered, 0u);
  EXPECT_LE(plan->stats().peak_buffered, both);
}

TEST(PlanStreamingTest, ForcedStrategyFallsBackWhenIneligible) {
  auto db = JoinDb(11);
  // Forcing hash onto a non-equality θ must not mis-execute: the node is
  // ineligible and lowers to nested loop.
  auto expr = ParseExpr("join(lft, rgt, LV >= RV)");
  ASSERT_TRUE(expr.ok());
  PlanOptions options;
  options.force_join_strategy = JoinStrategy::kHash;
  const auto pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin), options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->stats().joins_hash, 0u);
  EXPECT_EQ(plan->stats().joins_nested_loop, 1u);
}

TEST(PlanStreamingTest, ParallelScanReleasesEachEmittedBatch) {
  // The morsel-parallel scan interpolates its whole input up front; each
  // handle leaves its buffer as it is emitted, so under a blocking
  // aggregate the peak stays within one batch of the serial plan's.
  Rng rng(5);
  auto emp = workload::MakePersonnel(
      &rng, workload::PersonnelConfig{.num_employees = 400});
  ASSERT_TRUE(emp.ok());
  storage::Database db;
  ASSERT_TRUE(db.CreateRelation(emp->scheme()).ok());
  for (const Tuple& t : *emp) ASSERT_TRUE(db.Insert("emp", t).ok());
  auto expr = ParseExpr("aggregate(emp, sum Salary by Dept)");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto peak = [&](size_t parallelism) -> size_t {
    PlanOptions options;
    options.parallelism = parallelism;
    options.force_parallel = parallelism > 1;
    options.batch_size = 16;
    auto plan = Plan::Lower(*expr, VersionResolver(*pin), options);
    EXPECT_TRUE(plan.ok());
    if (!plan.ok()) return 0;
    EXPECT_TRUE(plan->Drain().ok());
    EXPECT_EQ(plan->stats().parallelism, parallelism);
    EXPECT_EQ(plan->stats().buffered_now, 0u);
    return plan->stats().peak_buffered;
  };
  const size_t serial = peak(1);
  EXPECT_GT(serial, 0u);
  EXPECT_LE(peak(4), serial + 16);
}

TEST(PlanStreamingTest, WhenWindowBufferingIsCounted) {
  auto db = RandomDb(9);
  // A when() window materializes its subquery; that buffering must be
  // visible in the outer plan's stats (the pipeline is NOT fully
  // streaming, and the counter must not pretend it is).
  auto expr = ParseExpr("timeslice(r0, when(select_when(r1, A0 >= 0)))");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->Drain().ok());
  EXPECT_GT(plan->stats().peak_buffered, 0u);
  EXPECT_EQ(plan->stats().buffered_now, 0u);
}

TEST(PlanStreamingTest, ErrorsPropagateFromCursors) {
  auto db = RandomDb(1);
  // Unknown predicate attribute: surfaces from Drain(), not Lower().
  auto expr = ParseExpr("select_if(r0, Bogus = 1, exists)");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin));
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->Drain().ok());
  // Incompatible schemes: surfaces at plan-build time with the same error
  // the whole-relation operator raises.
  auto bad = ParseExpr("union(r0, project(r0, Id))");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(Plan::Lower(*bad, VersionResolver(*pin)).ok());
}

// ---------------------------------------------------------------------------
// Copy-on-write relations.
// ---------------------------------------------------------------------------

TEST(CowRelationTest, CopySharesTuples) {
  auto db = RandomDb(5);
  const Relation* stored = *db.Get("r0");
  Relation copy = *stored;  // COW: shares every tuple
  ASSERT_EQ(copy.size(), stored->size());
  for (size_t i = 0; i < copy.size(); ++i) {
    EXPECT_EQ(copy.tuple_ptr(i).get(), stored->tuple_ptr(i).get());
  }
}

TEST(CowRelationTest, BareRelationRefDoesNotDeepCopy) {
  auto db = RandomDb(5);
  const Relation* stored = *db.Get("r0");
  auto result = hrdm::query::Run("r0", *db.CurrentVersion());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), stored->size());
  for (size_t i = 0; i < result->size(); ++i) {
    // Eval on a bare kRelationRef shares the stored tuples outright.
    EXPECT_EQ(result->tuple_ptr(i).get(), stored->tuple_ptr(i).get());
  }
}

TEST(CowRelationTest, CopiedRelationUnaffectedByMutation) {
  auto db = RandomDb(5);
  Relation snapshot = **db.Get("r0");
  const size_t n = snapshot.size();
  const TuplePtr first = snapshot.tuple_ptr(0);
  // Mutating the stored relation must not disturb the snapshot.
  ASSERT_TRUE((*db.Get("r0")) != nullptr);
  storage::Database db2 = std::move(db);
  ASSERT_TRUE(db2.EndLifespan("r0", snapshot.tuple(0).KeyValues(), 1).ok());
  EXPECT_EQ(snapshot.size(), n);
  EXPECT_EQ(snapshot.tuple_ptr(0).get(), first.get());
}

}  // namespace
}  // namespace hrdm::query
