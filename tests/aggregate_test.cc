// Temporal aggregation: directed semantics cases (time-varying COUNT/SUM/
// MIN/MAX/AVG, grouped and ungrouped, lifespan gaps, varying group keys,
// empty groups), scheme/parser validation, PlanStats accounting for the
// streaming HashAggregateCursor, and the three-way differential fuzz —
// streaming plan ≡ whole-relation kernel ≡ materializing interpreter,
// structurally identical over 100 random databases
// (HRDM_AGG_FUZZ_SEEDS=<seed> to replay one).

#include "algebra/aggregate.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "differential_util.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/plan.h"
#include "test_seeds.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm {
namespace {

constexpr char kSeedEnv[] = "HRDM_AGG_FUZZ_SEEDS";

const Lifespan kFull = Span(0, 9);

/// emp(Name*, Salary, Dept) over chronons 0–9:
///  * john  — {[0,3],[6,9]} (fired and re-hired), salary 30000 then 40000,
///            dept "toys" then "tools" (a *varying* group key);
///  * mary  — [2,7], salary 30000, dept "toys";
///  * bob   — [5,9], salary 50000, dept "tools".
storage::Database EmpDb() {
  auto scheme = *RelationScheme::Make(
      "emp",
      {{"Name", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"Salary", DomainType::kInt, kFull, InterpolationKind::kStepwise},
       {"Dept", DomainType::kString, kFull, InterpolationKind::kStepwise}},
      {"Name"});
  storage::Database db;
  EXPECT_TRUE(db.CreateRelation(scheme).ok());
  {
    Tuple::Builder b(scheme,
                     Lifespan::FromIntervals({Interval(0, 3), Interval(6, 9)}));
    b.SetConstant("Name", Value::String("john"));
    b.Set("Salary", *TemporalValue::FromSegments(
                        {{Interval(0, 3), Value::Int(30000)},
                         {Interval(6, 9), Value::Int(40000)}}));
    b.Set("Dept", *TemporalValue::FromSegments(
                      {{Interval(0, 3), Value::String("toys")},
                       {Interval(6, 9), Value::String("tools")}}));
    EXPECT_TRUE(db.Insert("emp", *std::move(b).Build()).ok());
  }
  {
    Tuple::Builder b(scheme, Span(2, 7));
    b.SetConstant("Name", Value::String("mary"));
    b.SetConstant("Salary", Value::Int(30000));
    b.SetConstant("Dept", Value::String("toys"));
    EXPECT_TRUE(db.Insert("emp", *std::move(b).Build()).ok());
  }
  {
    Tuple::Builder b(scheme, Span(5, 9));
    b.SetConstant("Name", Value::String("bob"));
    b.SetConstant("Salary", Value::Int(50000));
    b.SetConstant("Dept", Value::String("tools"));
    EXPECT_TRUE(db.Insert("emp", *std::move(b).Build()).ok());
  }
  return db;
}

Result<Relation> RunHrql(const storage::Database& db, const std::string& q) {
  return query::Run(q, *db.CurrentVersion());
}

/// The single tuple of an ungrouped aggregate result.
const Tuple& OnlyTuple(const Relation& r) {
  EXPECT_EQ(r.size(), 1u);
  return r.tuple(0);
}

// --- directed semantics -------------------------------------------------------

TEST(AggregateTest, UngroupedCountIsAFunctionOfTime) {
  auto db = EmpDb();
  auto r = RunHrql(db, "aggregate(emp, count)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Tuple& t = OnlyTuple(*r);
  // Lifespan: the chronons where any employee exists.
  EXPECT_EQ(t.lifespan(), kFull);
  // Hand-computed head count: john; john+mary; mary; mary+bob;
  // john+mary+bob; john+bob.
  EXPECT_EQ(t.value(0).ToString(),
            "{[0,1]->1, [2,3]->2, [4]->1, [5]->2, [6,7]->3, [8,9]->2}");
}

TEST(AggregateTest, GroupedCountWithVaryingGroupKey) {
  auto db = EmpDb();
  auto r = RunHrql(db, "aggregate(emp, count by Dept)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);  // toys, tools
  for (const Tuple& t : *r) {
    const std::string dept = t.value(0).ConstantValue().AsString();
    if (dept == "toys") {
      // john [0,3] + mary [2,7].
      EXPECT_EQ(t.lifespan(), Span(0, 7));
      EXPECT_EQ(t.value(1).ToString(), "{[0,1]->1, [2,3]->2, [4,7]->1}");
    } else {
      // john [6,9] (after his dept change — the per-chronon fallback must
      // split his lifespan across the two groups) + bob [5,9].
      EXPECT_EQ(dept, "tools");
      EXPECT_EQ(t.lifespan(), Span(5, 9));
      EXPECT_EQ(t.value(1).ToString(), "{[5]->1, [6,9]->2}");
    }
  }
}

TEST(AggregateTest, SumMinMaxAvgTimelines) {
  auto db = EmpDb();
  auto sum = RunHrql(db, "aggregate(emp, sum Salary)");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(OnlyTuple(*sum).value(0).ValueAt(0), Value::Int(30000));
  EXPECT_EQ(OnlyTuple(*sum).value(0).ValueAt(2), Value::Int(60000));
  EXPECT_EQ(OnlyTuple(*sum).value(0).ValueAt(6), Value::Int(120000));
  EXPECT_EQ(OnlyTuple(*sum).value(0).ValueAt(8), Value::Int(90000));

  auto min = RunHrql(db, "aggregate(emp, min Salary)");
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(OnlyTuple(*min).value(0).ValueAt(6), Value::Int(30000));
  EXPECT_EQ(OnlyTuple(*min).value(0).ValueAt(8), Value::Int(40000));

  auto avg = RunHrql(db, "aggregate(emp, avg Salary)");
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(OnlyTuple(*avg).value(0).ValueAt(6), Value::Double(40000.0));

  auto max = RunHrql(db, "aggregate(emp, max Salary by Dept)");
  ASSERT_TRUE(max.ok());
  ASSERT_EQ(max->size(), 2u);
  for (const Tuple& t : *max) {
    if (t.value(0).ConstantValue().AsString() == "tools") {
      EXPECT_EQ(t.value(1).ValueAt(6), Value::Int(50000));
    }
  }
}

TEST(AggregateTest, MinMaxOverStringsOrderLexicographically) {
  auto db = EmpDb();
  auto r = RunHrql(db, "aggregate(emp, min Dept)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // At chronon 6 all three are alive: min("tools","toys","tools")="tools";
  // at 4 only mary: "toys".
  EXPECT_EQ(OnlyTuple(*r).value(0).ValueAt(6), Value::String("tools"));
  EXPECT_EQ(OnlyTuple(*r).value(0).ValueAt(4), Value::String("toys"));
}

TEST(AggregateTest, EmptyRelationAggregatesToEmptyRelation) {
  auto db = EmpDb();
  // No employee satisfies the criterion, so no group is ever inhabited —
  // no zero-count row, the result relation is simply empty.
  auto r = RunHrql(db,
                   "aggregate(select_if(emp, Salary = 1, exists), count)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(AggregateTest, GroupWithNowhereDefinedValueKeepsItsLifespan) {
  // Bonus has ALS [0,4]; a tuple living on [5,9] is counted alive there,
  // but contributes no Bonus value — the group exists with an empty
  // aggregate function (heterogeneous historical tuples, Figure 8).
  auto scheme = *RelationScheme::Make(
      "r",
      {{"Id", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"Bonus", DomainType::kInt, Span(0, 4), InterpolationKind::kStepwise}},
      {"Id"});
  storage::Database db;
  ASSERT_TRUE(db.CreateRelation(scheme).ok());
  Tuple::Builder b(scheme, Span(5, 9));
  b.SetConstant("Id", Value::String("late"));
  ASSERT_TRUE(db.Insert("r", *std::move(b).Build()).ok());

  auto r = RunHrql(db, "aggregate(r, sum Bonus)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Tuple& t = OnlyTuple(*r);
  EXPECT_EQ(t.lifespan(), Span(5, 9));
  EXPECT_TRUE(t.value(0).empty());
}

TEST(AggregateTest, LifespanGapsSplitTheAggregate) {
  auto db = EmpDb();
  auto r = RunHrql(db, "aggregate(select_if(emp, Name = \"john\", exists), "
                       "count)");
  ASSERT_TRUE(r.ok());
  const Tuple& t = OnlyTuple(*r);
  // john's reincarnation gap [4,5] stays outside the result.
  EXPECT_EQ(t.lifespan(),
            Lifespan::FromIntervals({Interval(0, 3), Interval(6, 9)}));
  EXPECT_EQ(t.value(0).ToString(), "{[0,3]->1, [6,9]->1}");
}

TEST(AggregateTest, StreamDuplicatesCollapseBeforeAggregation) {
  // Projecting away the key makes the two tuples structurally identical;
  // set semantics collapse them to one, and the streaming aggregate must
  // count 1, not 2 (the set boundary inside HashAggregateCursor).
  auto scheme = *RelationScheme::Make(
      "r",
      {{"Id", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"V", DomainType::kInt, kFull, InterpolationKind::kStepwise}},
      {"Id"});
  storage::Database db;
  ASSERT_TRUE(db.CreateRelation(scheme).ok());
  for (const char* id : {"k1", "k2"}) {
    Tuple::Builder b(scheme, kFull);
    b.SetConstant("Id", Value::String(id));
    b.SetConstant("V", Value::Int(7));
    ASSERT_TRUE(db.Insert("r", *std::move(b).Build()).ok());
  }
  auto streamed = RunHrql(db, "aggregate(project(r, V), count)");
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(OnlyTuple(*streamed).value(0).ValueAt(0), Value::Int(1));
  auto expr = query::ParseExpr("aggregate(project(r, V), count)");
  ASSERT_TRUE(expr.ok());
  auto materialized = query::EvalMaterializing(
      *expr, query::VersionResolver(*db.CurrentVersion()));
  ASSERT_TRUE(materialized.ok());
  EXPECT_TRUE(streamed->EqualsAsSet(*materialized));
}

// --- scheme & parser validation ----------------------------------------------

TEST(AggregateTest, SchemeValidation) {
  auto db = EmpDb();
  const SchemePtr scheme = (*db.Get("emp"))->scheme();
  EXPECT_FALSE(AggregateScheme(scheme, {AggregateFn::kSum, "Dept", {}}).ok());
  EXPECT_FALSE(AggregateScheme(scheme, {AggregateFn::kAvg, "Name", {}}).ok());
  EXPECT_FALSE(AggregateScheme(scheme, {AggregateFn::kCount, "Salary", {}})
                   .ok());
  EXPECT_FALSE(AggregateScheme(scheme, {AggregateFn::kSum, "", {}}).ok());
  EXPECT_FALSE(
      AggregateScheme(scheme, {AggregateFn::kCount, "", {"Nope"}}).ok());
  EXPECT_FALSE(AggregateScheme(scheme,
                               {AggregateFn::kCount, "", {"Dept", "Dept"}})
                   .ok());

  auto ok = AggregateScheme(scheme, {AggregateFn::kAvg, "Salary", {"Dept"}});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)->arity(), 2u);
  EXPECT_EQ((*ok)->attribute(0).name, "Dept");
  EXPECT_EQ((*ok)->attribute(1).name, "avg_Salary");
  EXPECT_EQ((*ok)->attribute(1).type, DomainType::kDouble);
  EXPECT_TRUE((*ok)->key().empty());  // derived, keyless
}

TEST(AggregateTest, ParserRoundTrip) {
  for (const char* q : {
           "aggregate(emp, count)",
           "aggregate(emp, count by Dept)",
           "aggregate(emp, sum Salary)",
           "aggregate(emp, avg Salary by Dept, Name)",
           "aggregate(select_when(emp, Salary = 30000), max Salary by Dept)",
       }) {
    auto e = query::ParseExpr(q);
    ASSERT_TRUE(e.ok()) << q << ": " << e.status().ToString();
    EXPECT_EQ((*e)->ToString(), q);
    auto back = query::ParseExpr((*e)->ToString());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ((*back)->ToString(), (*e)->ToString());
  }
  auto e = query::ParseExpr("aggregate(emp, AVG Salary BY Dept)");
  ASSERT_TRUE(e.ok());  // keywords are case-insensitive
  EXPECT_EQ((*e)->agg_fn, AggregateFn::kAvg);
  EXPECT_EQ((*e)->attr_a, "Salary");
  EXPECT_EQ((*e)->attrs, (std::vector<std::string>{"Dept"}));

  EXPECT_FALSE(query::ParseExpr("aggregate(emp)").ok());
  EXPECT_FALSE(query::ParseExpr("aggregate(emp, median Salary)").ok());
  EXPECT_FALSE(query::ParseExpr("aggregate(emp, sum)").ok());
  EXPECT_FALSE(query::ParseExpr("aggregate(emp, count by)").ok());
  // Omitted attribute: a precise parse error, not "sum of an attribute
  // named by" or a misleading "expected )".
  auto missing = query::ParseExpr("aggregate(emp, sum by Dept)");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().ToString().find("attribute before 'by'"),
            std::string::npos)
      << missing.status().ToString();
}

TEST(AggregateTest, ContiguousGroupKeyFlipSplitsAtTheBoundary) {
  // Unlike john (whose dept change coincides with a lifespan gap), dave's
  // key flips mid-interval: the fallback must cut exactly at the segment
  // boundary inside one contiguous lifespan.
  auto scheme = *RelationScheme::Make(
      "r",
      {{"Id", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"Dept", DomainType::kString, kFull, InterpolationKind::kStepwise}},
      {"Id"});
  storage::Database db;
  ASSERT_TRUE(db.CreateRelation(scheme).ok());
  Tuple::Builder b(scheme, kFull);
  b.SetConstant("Id", Value::String("dave"));
  b.Set("Dept", *TemporalValue::FromSegments(
                    {{Interval(0, 4), Value::String("a")},
                     {Interval(5, 9), Value::String("b")}}));
  ASSERT_TRUE(db.Insert("r", *std::move(b).Build()).ok());

  auto r = RunHrql(db, "aggregate(r, count by Dept)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  for (const Tuple& t : *r) {
    const bool is_a = t.value(0).ConstantValue().AsString() == "a";
    EXPECT_EQ(t.lifespan(), is_a ? Span(0, 4) : Span(5, 9));
    EXPECT_EQ(t.value(1).ToString(),
              is_a ? "{[0,4]->1}" : "{[5,9]->1}");
  }
}

// --- plan accounting ----------------------------------------------------------

TEST(AggregateTest, PlanStatsCountGroupsAndFallbacks) {
  auto db = EmpDb();
  auto expr = query::ParseExpr("aggregate(emp, count by Dept)");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto plan = query::Plan::Lower(*expr, query::VersionResolver(*pin),
                                 query::VersionPlanOptions(*pin));
  ASSERT_TRUE(plan.ok());
  auto out = plan->Drain();
  ASSERT_TRUE(out.ok());
  const query::PlanStats& stats = plan->stats();
  EXPECT_EQ(stats.aggregates, 1u);
  EXPECT_EQ(stats.agg_groups_built, 2u);    // toys, tools
  EXPECT_EQ(stats.agg_fallback_tuples, 1u);  // john's dept changes
  EXPECT_EQ(stats.tuples_returned, 2u);
  EXPECT_EQ(stats.tuples_scanned, 3u);
  // Blocking, but all buffering is transient: the input handles are
  // released once the groups are built, and Drain took the result
  // wholesale (TakeBuffered), so nothing stays accounted.
  EXPECT_EQ(stats.buffered_now, 0u);
  // Peak: the 3 retained input handles plus the 2 result tuples.
  EXPECT_GE(stats.peak_buffered, 3u);
}

TEST(AggregateTest, GroupEstimateFeedsThePlanner) {
  auto db = EmpDb();
  auto grouped = query::ParseExpr("aggregate(emp, count by Dept)");
  auto ungrouped = query::ParseExpr("aggregate(emp, count)");
  ASSERT_TRUE(grouped.ok());
  ASSERT_TRUE(ungrouped.ok());
  const auto pin = db.CurrentVersion();
  const query::PlanOptions options = query::VersionPlanOptions(*pin);
  // The planner's size source: the stored relations' exact sizes.
  const query::CardinalityFn card =
      [&pin](std::string_view name) -> std::optional<size_t> {
    auto rel = pin->Get(name);
    if (!rel.ok()) return std::nullopt;
    return (*rel)->size();
  };
  EXPECT_EQ(query::EstimateGroupCount(**ungrouped, card), 1u);
  EXPECT_GE(query::EstimateGroupCount(**grouped, card), 1u);
  // And the estimate is what the lowered plan records.
  auto plan =
      query::Plan::Lower(*grouped, query::VersionResolver(*pin), options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->stats().agg_groups_estimated,
            query::EstimateGroupCount(**grouped, card));
}

// --- differential fuzz --------------------------------------------------------

/// Asserts the three execution paths agree structurally on `hrql`:
///  1. the streaming plan (HashAggregateCursor), swept over the batch-size
///     axis (tests/differential_util.h),
///  2. the materializing interpreter (whole-relation Aggregate inside),
///  3. the whole-relation kernel applied directly to the materialized
///     input of the aggregate node.
void ExpectAggParity(const storage::Database& db, const std::string& hrql) {
  auto expr = query::ParseExpr(hrql);
  ASSERT_TRUE(expr.ok()) << hrql << ": " << expr.status().ToString();

  const auto pin = db.CurrentVersion();
  auto streamed =
      hrdm::testing::RunBatchInvariant(db, *expr, query::PlanOptions{});
  auto materialized =
      query::EvalMaterializing(*expr, query::VersionResolver(*pin));
  ASSERT_EQ(streamed.ok(), materialized.ok())
      << hrql << ": " << streamed.status().ToString() << " vs "
      << materialized.status().ToString();
  if (!streamed.ok()) return;
  EXPECT_TRUE(streamed->EqualsAsSet(*materialized))
      << hrql << "\nstreaming:\n"
      << streamed->ToString() << "materializing:\n"
      << materialized->ToString();

  if ((*expr)->kind == query::ExprKind::kAggregate) {
    auto input =
        query::EvalMaterializing((*expr)->left, query::VersionResolver(*pin));
    ASSERT_TRUE(input.ok()) << hrql;
    AggregateSpec spec{(*expr)->agg_fn, (*expr)->attr_a, (*expr)->attrs};
    auto whole = Aggregate(*input, spec);
    ASSERT_TRUE(whole.ok()) << hrql << ": " << whole.status().ToString();
    EXPECT_TRUE(whole->EqualsAsSet(*streamed))
        << hrql << "\nwhole-relation kernel:\n"
        << whole->ToString() << "plan:\n"
        << streamed->ToString();
  }
}

TEST(AggregateDifferentialTest, RandomDatabases) {
  // ≥100 random databases; override seeds with HRDM_AGG_FUZZ_SEEDS=....
  for (uint64_t seed : hrdm::testing::SeedsFromEnv(
           kSeedEnv, hrdm::testing::DefaultFuzzSeeds())) {
    SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, seed));
    auto db = hrdm::testing::RandomUnionCompatibleDb(seed);
    // Every function, grouped and ungrouped, over a varying group key
    // (A0/A1 change within lifespans → the per-chronon fallback), a
    // constant one (Id), and a time-valued one (Ref).
    ExpectAggParity(db, "aggregate(r0, count)");
    ExpectAggParity(db, "aggregate(r0, count by A0)");
    ExpectAggParity(db, "aggregate(r0, count by Ref)");
    ExpectAggParity(db, "aggregate(r0, sum A0)");
    ExpectAggParity(db, "aggregate(r0, sum A0 by Id)");
    ExpectAggParity(db, "aggregate(r0, avg A0)");
    ExpectAggParity(db, "aggregate(r0, avg A0 by A1)");
    ExpectAggParity(db, "aggregate(r0, min A0 by A1)");
    ExpectAggParity(db, "aggregate(r0, max A1)");
    // Composed inputs: restriction (may create stream duplicates),
    // key-dropping projection (does create them), union, slice.
    ExpectAggParity(db, "aggregate(select_when(r0, A0 <= 50), count by Id)");
    ExpectAggParity(db, "aggregate(project(r0, A0), count)");
    ExpectAggParity(db, "aggregate(union(r0, r1), count)");
    ExpectAggParity(db, "aggregate(timeslice(r0, {[10, 40]}), sum A0)");
    // Aggregates compose downstream too: slice of an aggregate.
    ExpectAggParity(db, "timeslice(aggregate(r0, count by A0), {[5, 25]})");
  }
}

}  // namespace
}  // namespace hrdm
