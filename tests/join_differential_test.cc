// Differential join suite: for random databases, every physical join
// strategy (nested loop, hash, merge) must produce results tuple-for-tuple,
// chronon-for-chronon identical to
//  * each other,
//  * the SELECT-WHEN ∘ × plan, × executed by the nested-loop join cursor
//    (the paper's Section 5 equivalence: JOIN ≡ the appropriate
//    SELECT-WHEN of the Cartesian product),
//  * the whole-relation ThetaJoin/EquiJoin/NaturalJoin/TimeJoin APIs (and
//    the bare product vs CartesianProduct),
//  * the materializing interpreter,
// with every plan execution swept over the batch-size axis (exact
// rendered-output equality across sizes — see tests/differential_util.h).
// Plus directed lifespan edge cases: empty inputs, single-chronon
// overlaps, join attributes whose value changes inside the overlap window,
// and the no-shared-attribute NATURAL-JOIN degenerate product.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/join.h"
#include "algebra/setops.h"
#include "differential_util.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "test_seeds.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm::query {
namespace {

constexpr char kSeedEnv[] = "HRDM_JOIN_DIFF_SEEDS";

/// Drains `hrql` through a plan with the given forced join strategy, swept
/// over the batch-size axis.
Result<Relation> RunForced(const storage::Database& db,
                           const std::string& hrql, JoinStrategy strategy) {
  PlanOptions options;
  options.force_join_strategy = strategy;
  return hrdm::testing::RunBatchInvariant(db, hrql, options);
}

/// Runs `hrql` under all three forced strategies (each batch-size-swept)
/// plus the materializing interpreter, asserts pairwise set equality, and
/// returns one result. `reference`, if non-null, is additionally compared
/// (the whole-relation API answer).
void ExpectAllStrategiesAgree(const storage::Database& db,
                              const std::string& hrql,
                              const Relation* reference) {
  auto nested = RunForced(db, hrql, JoinStrategy::kNestedLoop);
  auto hash = RunForced(db, hrql, JoinStrategy::kHash);
  auto merge = RunForced(db, hrql, JoinStrategy::kMerge);
  ASSERT_TRUE(nested.ok()) << hrql << ": " << nested.status().ToString();
  ASSERT_TRUE(hash.ok()) << hrql << ": " << hash.status().ToString();
  ASSERT_TRUE(merge.ok()) << hrql << ": " << merge.status().ToString();
  EXPECT_TRUE(hash->EqualsAsSet(*nested))
      << hrql << "\nhash:\n"
      << hash->ToString() << "nested loop:\n"
      << nested->ToString();
  EXPECT_TRUE(merge->EqualsAsSet(*nested))
      << hrql << "\nmerge:\n"
      << merge->ToString() << "nested loop:\n"
      << nested->ToString();
  hrdm::testing::ExpectMatchesOracle(db, hrql, *nested, reference);
}

TEST(JoinDifferentialTest, RandomDatabases) {
  // ≥100 random databases; override seeds with HRDM_JOIN_DIFF_SEEDS=....
  for (uint64_t seed : hrdm::testing::SeedsFromEnv(
           kSeedEnv, hrdm::testing::DefaultFuzzSeeds())) {
    SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, seed));
    auto db = hrdm::testing::RandomJoinStyleDb(
        seed, {.ra_tuples = 10, .na_tuples = 8, .nb_tuples = 7});
    const Relation& ra = **db.Get("ra");
    const Relation& rb = **db.Get("rb");
    const Relation& na = **db.Get("na");
    const Relation& nb = **db.Get("nb");

    // EQUIJOIN: every strategy vs the whole-relation API...
    auto equi = EquiJoin(ra, "A0", rb, "B0");
    ASSERT_TRUE(equi.ok());
    ExpectAllStrategiesAgree(db, "join(ra, rb, A0 = B0)", &*equi);
    // ...and vs SELECT-WHEN ∘ × (Section 5), batch-size-swept.
    const std::string via_product_q = "select_when(product(ra, rb), A0 = B0)";
    auto via_product =
        hrdm::testing::RunBatchInvariant(db, via_product_q, PlanOptions{});
    ASSERT_TRUE(via_product.ok()) << via_product.status().ToString();
    hrdm::testing::ExpectMatchesOracle(db, via_product_q, *via_product,
                                       &*equi);

    // The bare product vs the whole-relation CartesianProduct.
    auto cart = CartesianProduct(ra, rb);
    ASSERT_TRUE(cart.ok());
    auto product =
        hrdm::testing::RunBatchInvariant(db, "product(ra, rb)", PlanOptions{});
    ASSERT_TRUE(product.ok()) << product.status().ToString();
    hrdm::testing::ExpectMatchesOracle(db, "product(ra, rb)", *product,
                                       &*cart);

    // General θ (no equi pattern → every strategy falls back identically,
    // but the whole-relation comparison still bites).
    auto theta = ThetaJoin(ra, "A0", CompareOp::kLe, rb, "B0");
    ASSERT_TRUE(theta.ok());
    ExpectAllStrategiesAgree(db, "join(ra, rb, A0 <= B0)", &*theta);

    // NATURAL-JOIN with a shared attribute (some values varying in time).
    auto nat = NaturalJoin(na, nb);
    ASSERT_TRUE(nat.ok());
    ExpectAllStrategiesAgree(db, "natjoin(na, nb)", &*nat);

    // TIME-JOIN driven by ra.Ref.
    auto tj = TimeJoin(ra, "Ref", rb);
    ASSERT_TRUE(tj.ok());
    ExpectAllStrategiesAgree(db, "timejoin(ra, rb, Ref)", &*tj);
  }
}

// ---------------------------------------------------------------------------
// Directed lifespan edge cases.
// ---------------------------------------------------------------------------

const Lifespan kFull = Span(0, 49);

SchemePtr LeftScheme() {
  return *RelationScheme::Make(
      "el",
      {{"LId", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"LV", DomainType::kInt, kFull, InterpolationKind::kStepwise}},
      {"LId"});
}

SchemePtr RightScheme() {
  return *RelationScheme::Make(
      "er",
      {{"RId", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"RV", DomainType::kInt, kFull, InterpolationKind::kStepwise}},
      {"RId"});
}

storage::Database EdgeDb(const std::vector<std::pair<Lifespan, int>>& lefts,
                         const std::vector<std::pair<Lifespan, int>>& rights) {
  storage::Database db;
  auto ls = LeftScheme();
  auto rs = RightScheme();
  EXPECT_TRUE(db.CreateRelation(ls).ok());
  EXPECT_TRUE(db.CreateRelation(rs).ok());
  int i = 0;
  for (const auto& [l, v] : lefts) {
    Tuple::Builder b(ls, l);
    b.SetConstant("LId", Value::String("l" + std::to_string(i++)));
    b.SetConstant("LV", Value::Int(v));
    EXPECT_TRUE(db.Insert("el", *std::move(b).Build()).ok());
  }
  i = 0;
  for (const auto& [l, v] : rights) {
    Tuple::Builder b(rs, l);
    b.SetConstant("RId", Value::String("r" + std::to_string(i++)));
    b.SetConstant("RV", Value::Int(v));
    EXPECT_TRUE(db.Insert("er", *std::move(b).Build()).ok());
  }
  return db;
}

TEST(JoinEdgeCaseTest, EmptyInputsOnEitherSide) {
  // Empty build side, empty probe side, both empty: every strategy yields
  // the empty relation and stays well-behaved.
  auto both = EdgeDb({}, {});
  auto left_only = EdgeDb({{Span(0, 9), 1}}, {});
  auto right_only = EdgeDb({}, {{Span(0, 9), 1}});
  for (auto* db : {&both, &left_only, &right_only}) {
    for (JoinStrategy s : {JoinStrategy::kNestedLoop, JoinStrategy::kHash}) {
      auto r = RunForced(*db, "join(el, er, LV = RV)", s);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(r->empty());
    }
  }
}

TEST(JoinEdgeCaseTest, NonOverlappingLifespansProduceNothing) {
  // Equal values but disjoint lifespans: the θ condition never holds at a
  // common chronon — the "empty joined lifespan" case.
  auto db = EdgeDb({{Span(0, 9), 7}}, {{Span(20, 29), 7}});
  auto equi = EquiJoin(**db.Get("el"), "LV", **db.Get("er"), "RV");
  ASSERT_TRUE(equi.ok());
  EXPECT_TRUE(equi->empty());
  for (JoinStrategy s : {JoinStrategy::kNestedLoop, JoinStrategy::kHash}) {
    auto r = RunForced(db, "join(el, er, LV = RV)", s);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->empty());
  }
}

TEST(JoinEdgeCaseTest, SingleChrononOverlap) {
  // Lifespans touch at exactly chronon 10.
  auto db = EdgeDb({{Span(0, 10), 7}}, {{Span(10, 29), 7}});
  auto equi = EquiJoin(**db.Get("el"), "LV", **db.Get("er"), "RV");
  ASSERT_TRUE(equi.ok());
  ASSERT_EQ(equi->size(), 1u);
  EXPECT_EQ(equi->tuple(0).lifespan().ToString(), "{[10]}");
  for (JoinStrategy s : {JoinStrategy::kNestedLoop, JoinStrategy::kHash}) {
    auto r = RunForced(db, "join(el, er, LV = RV)", s);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->EqualsAsSet(*equi));
  }
}

TEST(JoinEdgeCaseTest, ValueChangesInsideOverlapWindow) {
  // The left join attribute flips from 7 to 8 at chronon 10 while both
  // tuples live on [0,19]: the joined lifespan must be exactly the
  // sub-window where the equality holds, and the hash join must take its
  // varying-attribute fallback rather than missing the partial match.
  storage::Database db;
  auto ls = LeftScheme();
  auto rs = RightScheme();
  ASSERT_TRUE(db.CreateRelation(ls).ok());
  ASSERT_TRUE(db.CreateRelation(rs).ok());
  {
    Tuple::Builder b(ls, Span(0, 19));
    b.SetConstant("LId", Value::String("flip"));
    b.Set("LV", *TemporalValue::FromSegments(
                    {{Interval(0, 9), Value::Int(7)},
                     {Interval(10, 19), Value::Int(8)}}));
    ASSERT_TRUE(db.Insert("el", *std::move(b).Build()).ok());
  }
  {
    Tuple::Builder b(rs, Span(0, 19));
    b.SetConstant("RId", Value::String("const"));
    b.SetConstant("RV", Value::Int(7));
    ASSERT_TRUE(db.Insert("er", *std::move(b).Build()).ok());
  }
  auto equi = EquiJoin(**db.Get("el"), "LV", **db.Get("er"), "RV");
  ASSERT_TRUE(equi.ok());
  ASSERT_EQ(equi->size(), 1u);
  EXPECT_EQ(equi->tuple(0).lifespan().ToString(), "{[0,9]}");
  for (JoinStrategy s : {JoinStrategy::kNestedLoop, JoinStrategy::kHash}) {
    auto r = RunForced(db, "join(el, er, LV = RV)", s);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->EqualsAsSet(*equi)) << JoinStrategyName(s);
  }
}

TEST(JoinEdgeCaseTest, NaturalJoinWithoutSharedAttributesIsProduct) {
  // No shared attribute name: NATURAL-JOIN degenerates to the product over
  // the common lifespan (here [5,9]); the chooser must not pick hash.
  auto db = EdgeDb({{Span(0, 9), 1}}, {{Span(5, 14), 2}});
  auto expr = ParseExpr("natjoin(el, er)");
  ASSERT_TRUE(expr.ok());
  const auto pin = db.CurrentVersion();
  auto plan = Plan::Lower(*expr, VersionResolver(*pin));
  ASSERT_TRUE(plan.ok());
  auto streamed = plan->Drain();
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(plan->stats().joins_nested_loop, 1u);
  EXPECT_EQ(plan->stats().joins_hash, 0u);
  auto nat = NaturalJoin(**db.Get("el"), **db.Get("er"));
  ASSERT_TRUE(nat.ok());
  ASSERT_EQ(nat->size(), 1u);
  EXPECT_EQ(nat->tuple(0).lifespan().ToString(), "{[5,9]}");
  EXPECT_TRUE(streamed->EqualsAsSet(*nat));
}

TEST(JoinEdgeCaseTest, ReincarnationLifespanConstantKeyHashes) {
  // A constant join value over a fragmented (reincarnation) lifespan is
  // still a CD member: the hash join may digest it, and the joined
  // lifespan honors the gap.
  auto db = EdgeDb({{Lifespan::FromIntervals({Interval(0, 4),
                                              Interval(20, 24)}),
                     7}},
                   {{Span(0, 29), 7}});
  auto equi = EquiJoin(**db.Get("el"), "LV", **db.Get("er"), "RV");
  ASSERT_TRUE(equi.ok());
  ASSERT_EQ(equi->size(), 1u);
  EXPECT_EQ(equi->tuple(0).lifespan().ToString(), "{[0,4],[20,24]}");
  for (JoinStrategy s : {JoinStrategy::kNestedLoop, JoinStrategy::kHash}) {
    auto r = RunForced(db, "join(el, er, LV = RV)", s);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->EqualsAsSet(*equi)) << JoinStrategyName(s);
  }
}

}  // namespace
}  // namespace hrdm::query
