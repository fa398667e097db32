// Directed batch-boundary coverage for every batched cursor: with
// PlanOptions::batch_size = B = 4, each operator is driven over input
// sizes 0, 1, B−1, B, B+1 and 2B+1 and its root batch stream inspected
// directly through Plan::NextBatch — asserting the protocol (batches are
// never empty, never exceed B, EOS is stable) and that the collected
// output is set-equal to the materializing oracle at every size. Plus a
// selective filter that empties whole input batches mid-stream (the
// "skip, don't emit []" clause), pair-walk resumption cases where one
// probe/left tuple's matches straddle several output batches (hash probe,
// nested loop, product, merge time-join), and error parity for joins whose
// right input is empty under an erroring left input.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "storage/database.h"

namespace hrdm::query {
namespace {

constexpr size_t kB = 4;  // the swept batch size
const Lifespan kFull = Span(0, 9);

/// r(Id*, V) with `n` tuples: V = i, lifespans all [0,9].
storage::Database IntDb(size_t n, const char* name = "r") {
  storage::Database db;
  auto scheme = *RelationScheme::Make(
      std::string(name),
      {{"Id", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"V", DomainType::kInt, kFull, InterpolationKind::kStepwise}},
      {"Id"});
  EXPECT_TRUE(db.CreateRelation(scheme).ok());
  for (size_t i = 0; i < n; ++i) {
    Tuple::Builder b(scheme, kFull);
    b.SetConstant("Id", Value::String(name + std::to_string(i)));
    b.SetConstant("V", Value::Int(static_cast<int64_t>(i)));
    EXPECT_TRUE(db.Insert(name, *std::move(b).Build()).ok());
  }
  return db;
}

/// Adds a second relation r2(Id2*, W) with `n` tuples, W = i (the join
/// partner: W values overlap V's).
void AddJoinPartner(storage::Database& db, size_t n) {
  auto scheme = *RelationScheme::Make(
      "r2",
      {{"Id2", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"W", DomainType::kInt, kFull, InterpolationKind::kStepwise}},
      {"Id2"});
  ASSERT_TRUE(db.CreateRelation(scheme).ok());
  for (size_t i = 0; i < n; ++i) {
    Tuple::Builder b(scheme, kFull);
    b.SetConstant("Id2", Value::String("q" + std::to_string(i)));
    b.SetConstant("W", Value::Int(static_cast<int64_t>(i)));
    ASSERT_TRUE(db.Insert("r2", *std::move(b).Build()).ok());
  }
}

/// Adds tl(TId*, At) with `n` tuples, At = the chronon i % 10 (time-valued),
/// lifespans all [0,9] — the TIME-JOIN left input (`timejoin(tl, _, At)`).
void AddTimeLeft(storage::Database& db, size_t n) {
  auto scheme = *RelationScheme::Make(
      "tl",
      {{"TId", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"At", DomainType::kTime, kFull, InterpolationKind::kStepwise}},
      {"TId"});
  ASSERT_TRUE(db.CreateRelation(scheme).ok());
  for (size_t i = 0; i < n; ++i) {
    Tuple::Builder b(scheme, kFull);
    b.SetConstant("TId", Value::String("t" + std::to_string(i)));
    b.SetConstant("At", Value::Time(static_cast<TimePoint>(i % 10)));
    ASSERT_TRUE(db.Insert("tl", *std::move(b).Build()).ok());
  }
}

/// Drains `plan` through NextBatch, asserting the batch protocol at every
/// step, and returns the collected output as a set-semantics Relation.
Relation DrainCheckingProtocol(Plan& plan, size_t batch_size) {
  Relation out(plan.scheme());
  while (true) {
    auto batch = plan.NextBatch();
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch.ok() || *batch == nullptr) break;
    EXPECT_FALSE((*batch)->empty()) << "protocol: batches are never empty";
    EXPECT_LE((*batch)->size(), batch_size)
        << "protocol: batches never exceed the configured size";
    for (TuplePtr& t : **batch) {
      EXPECT_TRUE(out.InsertDedup(std::move(t)).ok());
    }
  }
  // EOS is stable: pulling past the end keeps returning null.
  auto again = plan.NextBatch();
  EXPECT_TRUE(again.ok());
  if (again.ok()) {
    EXPECT_EQ(*again, nullptr) << "protocol: EOS must be stable";
  }
  out.set_materialized(true);
  return out;
}

/// Lowers `hrql` at batch size B, drains with protocol checks, and
/// compares against the materializing oracle.
void ExpectBoundaryClean(const storage::Database& db, const std::string& hrql,
                         const PlanOptions& extra = {}) {
  SCOPED_TRACE(hrql);
  auto expr = ParseExpr(hrql);
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  PlanOptions options = extra;
  options.batch_size = kB;
  const storage::DatabaseVersionPtr pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin), options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Relation got = DrainCheckingProtocol(*plan, kB);
  auto oracle = EvalMaterializing(*expr, VersionResolver(*pin));
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_TRUE(oracle->EqualsAsSet(got))
      << "oracle:\n"
      << oracle->ToString() << "plan:\n"
      << got.ToString();
  // Consistency of the batch counters: every returned tuple was carried by
  // some batch, and the average fill can't exceed the configured size.
  const PlanStats& stats = plan->stats();
  EXPECT_GE(stats.batch_tuples, stats.batches_emitted);  // non-empty batches
  if (stats.batches_emitted > 0) {
    EXPECT_LE(stats.batch_tuples, kB * stats.batches_emitted);
  }
}

// Input sizes straddling every boundary of B = 4: empty stream, single
// tuple, one-less-than-full, exactly-full, one-over, and two-full-plus-one.
const size_t kSizes[] = {0, 1, kB - 1, kB, kB + 1, 2 * kB + 1};

TEST(BatchBoundaryTest, ScanCursor) {
  for (size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto db = IntDb(n);
    ExpectBoundaryClean(db, "r");
  }
}

TEST(BatchBoundaryTest, SelectIfCursor) {
  for (size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto db = IntDb(n);
    ExpectBoundaryClean(db, "select_if(r, V <= 100, exists)");  // all pass
    ExpectBoundaryClean(db, "select_if(r, V < 0, exists)");     // none pass
    ExpectBoundaryClean(db, "select_if(r, V <= 4, exists)");    // some pass
  }
}

TEST(BatchBoundaryTest, SelectWhenCursor) {
  for (size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto db = IntDb(n);
    ExpectBoundaryClean(db, "select_when(r, V <= 100)");  // pass-through path
    ExpectBoundaryClean(db, "select_when(r, V < 0)");     // all dropped
    ExpectBoundaryClean(db, "select_when(r, V <= 4)");
  }
}

TEST(BatchBoundaryTest, ProjectCursor) {
  for (size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto db = IntDb(n);
    // Key-dropping projection: structural duplicates reach the root, so
    // dedup-at-drain is also exercised at every boundary size.
    ExpectBoundaryClean(db, "project(r, V)");
    ExpectBoundaryClean(db, "project(r, Id, V)");
  }
}

TEST(BatchBoundaryTest, TimeSliceCursor) {
  for (size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto db = IntDb(n);
    // Static slices run as one-window SelectWhenCursor chains.
    ExpectBoundaryClean(db, "timeslice(r, {[0, 9]})");  // pass-through path
    ExpectBoundaryClean(db, "timeslice(r, {[2, 5]})");  // restriction path
    ExpectBoundaryClean(db, "timeslice(r, {[20, 30]})");  // all dropped
    // The dynamic slice is TimeSliceCursor's one mode.
    AddTimeLeft(db, n);
    ExpectBoundaryClean(db, "dynslice(tl, At)");
  }
}

TEST(BatchBoundaryTest, HashEquiJoinCursor) {
  for (size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto db = IntDb(n);
    AddJoinPartner(db, n);
    PlanOptions forced;
    forced.force_join_strategy = JoinStrategy::kHash;
    ExpectBoundaryClean(db, "join(r, r2, V = W)", forced);
  }
}

TEST(BatchBoundaryTest, NestedLoopJoinCursor) {
  for (size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto db = IntDb(n);
    AddJoinPartner(db, n);
    PlanOptions forced;
    forced.force_join_strategy = JoinStrategy::kNestedLoop;
    ExpectBoundaryClean(db, "join(r, r2, V = W)", forced);
    ExpectBoundaryClean(db, "join(r, r2, V < W)");  // θ: no other strategy
    ExpectBoundaryClean(db, "product(r, r2)");      // × runs here too
  }
}

TEST(BatchBoundaryTest, MergeTimeJoinCursor) {
  for (size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto db = IntDb(n);
    AddTimeLeft(db, n);
    PlanOptions forced;
    forced.force_join_strategy = JoinStrategy::kMerge;
    ExpectBoundaryClean(db, "timejoin(tl, r, At)", forced);
  }
}

TEST(BatchBoundaryTest, HashAggregateCursor) {
  for (size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto db = IntDb(n);
    // V % 3 isn't expressible, but V itself gives n groups (streamed out
    // of the buffered result across ⌈n/B⌉ batches) and count gives one.
    ExpectBoundaryClean(db, "aggregate(r, count by V)");
    ExpectBoundaryClean(db, "aggregate(r, count)");
  }
}

TEST(BatchBoundaryTest, SetOpCursor) {
  for (size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto db = IntDb(n);
    // A second relation with the same attribute names, overlapping keys.
    auto scheme = *RelationScheme::Make(
        "s",
        {{"Id", DomainType::kString, kFull, InterpolationKind::kDiscrete},
         {"V", DomainType::kInt, kFull, InterpolationKind::kStepwise}},
        {"Id"});
    ASSERT_TRUE(db.CreateRelation(scheme).ok());
    for (size_t i = 0; i < n; i += 2) {
      Tuple::Builder b(scheme, kFull);
      b.SetConstant("Id", Value::String("r" + std::to_string(i)));
      b.SetConstant("V", Value::Int(static_cast<int64_t>(i)));
      ASSERT_TRUE(db.Insert("s", *std::move(b).Build()).ok());
    }
    ExpectBoundaryClean(db, "union(r, s)");
    ExpectBoundaryClean(db, "intersect(r, s)");
    ExpectBoundaryClean(db, "minus(r, s)");
  }
}

TEST(BatchBoundaryTest, FilterEmptiesWholeBatchesMidStream) {
  // 3B tuples where the middle B (V ∈ [4,7]) all fail the predicate: the
  // filter's second input batch filters to nothing and must be *skipped*,
  // not emitted empty — DrainCheckingProtocol would catch an empty batch.
  auto db = IntDb(3 * kB);
  ExpectBoundaryClean(db, "select_when(r, V < 4)");          // head survives
  ExpectBoundaryClean(db, "select_when(r, V >= 8)");         // tail survives
  ExpectBoundaryClean(db, "select_if(r, V >= 4, exists)");
  // Only the middle batch survives (V ∈ [4,7]) — both neighbors empty out.
  ExpectBoundaryClean(db, "select_when(select_when(r, V >= 4), V <= 7)");
}

TEST(BatchBoundaryTest, ProbeMatchesStraddleOutputBatches) {
  // One probe tuple matching many build tuples: r2 holds 2B+1 tuples with
  // W = 0, r holds the single tuple V = 0, so the lone probe's candidate
  // walk must suspend when the output batch fills and resume mid-bucket.
  // The same shape drives the nested-loop walk over its right buffer (θ
  // and ×) and, with tl's single At = chronon 0, the merge sweep over its
  // active set.
  auto db = IntDb(1);
  AddTimeLeft(db, 1);
  {
    auto scheme = *RelationScheme::Make(
        "r2",
        {{"Id2", DomainType::kString, kFull, InterpolationKind::kDiscrete},
         {"W", DomainType::kInt, kFull, InterpolationKind::kStepwise}},
        {"Id2"});
    ASSERT_TRUE(db.CreateRelation(scheme).ok());
    for (size_t i = 0; i < 2 * kB + 1; ++i) {
      Tuple::Builder b(scheme, kFull);
      b.SetConstant("Id2", Value::String("q" + std::to_string(i)));
      b.SetConstant("W", Value::Int(0));
      ASSERT_TRUE(db.Insert("r2", *std::move(b).Build()).ok());
    }
  }
  PlanOptions forced;
  forced.force_join_strategy = JoinStrategy::kHash;
  ExpectBoundaryClean(db, "join(r, r2, V = W)", forced);
  PlanOptions nested;
  nested.force_join_strategy = JoinStrategy::kNestedLoop;
  ExpectBoundaryClean(db, "join(r, r2, V = W)", nested);
  ExpectBoundaryClean(db, "product(r, r2)");
  PlanOptions merge;
  merge.force_join_strategy = JoinStrategy::kMerge;
  ExpectBoundaryClean(db, "timejoin(tl, r2, At)", merge);
  // And the transposed shape: many probes, one build tuple.
  auto db2 = IntDb(2 * kB + 1);
  AddJoinPartner(db2, 1);
  ExpectBoundaryClean(db2, "join(r2, r, W = V)", forced);
}

TEST(BatchBoundaryTest, EmptyRightInputStillEvaluatesErroringLeft) {
  // The right input is empty, so no pair can join — but the left input
  // (a predicate on an unknown attribute) must still be evaluated, so the
  // plan fails exactly like the materializing oracle, which evaluates
  // both operands before applying the operator.
  auto db = IntDb(kB + 1);
  AddTimeLeft(db, kB + 1);
  AddJoinPartner(db, 0);
  PlanOptions nested;
  nested.force_join_strategy = JoinStrategy::kNestedLoop;
  PlanOptions merge;
  merge.force_join_strategy = JoinStrategy::kMerge;
  const std::pair<std::string, PlanOptions> cases[] = {
      {"join(select_if(r, Bogus = 1, exists), r2, V = W)", nested},
      {"product(select_if(r, Bogus = 1, exists), r2)", PlanOptions{}},
      {"timejoin(select_if(tl, Bogus = 1, exists), r2, At)", merge},
  };
  for (const auto& [hrql, extra] : cases) {
    SCOPED_TRACE(hrql);
    auto expr = ParseExpr(hrql);
    ASSERT_TRUE(expr.ok()) << expr.status().ToString();
    PlanOptions options = extra;
    options.batch_size = kB;
    const storage::DatabaseVersionPtr pin = db.CurrentVersion();
    auto plan = Plan::Lower(*expr, VersionResolver(*pin), options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto drained = plan->Drain();
    auto oracle = EvalMaterializing(*expr, VersionResolver(*pin));
    ASSERT_FALSE(oracle.ok());
    ASSERT_FALSE(drained.ok()) << "the empty right input skipped the left";
    EXPECT_EQ(drained.status().ToString(), oracle.status().ToString());
  }
}

TEST(BatchBoundaryTest, BatchSizeOneDegeneratesToTupleAtATime) {
  auto db = IntDb(kB + 1);
  auto expr = ParseExpr("select_when(r, V <= 100)");
  ASSERT_TRUE(expr.ok());
  PlanOptions options;
  options.batch_size = 1;
  const storage::DatabaseVersionPtr pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin), options);
  ASSERT_TRUE(plan.ok());
  Relation got = DrainCheckingProtocol(*plan, 1);
  EXPECT_EQ(got.size(), kB + 1);
  // Every batch carried exactly one tuple.
  EXPECT_EQ(plan->stats().batches_emitted, plan->stats().batch_tuples);
}

}  // namespace
}  // namespace hrdm::query
