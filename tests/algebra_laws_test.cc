// Cross-operator algebraic laws, verified directly at the algebra level:
// the Section 5 identities (commutativity of the selects, TIME-SLICE /
// SELECT-WHEN commutation, distribution over the set operators) plus laws
// about the object-based operators that the paper implies but never
// states.
//
// Note the asymmetry the paper glosses over when it claims TIME-SLICE
// distributes over "the binary set-theoretic operators": TIME-SLICE and
// SELECT-WHEN *rewrite* tuples, so they distribute over ∪ but not over ∩
// or − (two different tuples can become equal after restriction);
// SELECT-IF filters whole tuples and distributes over all three.
// AlgebraCounterexampleTest pins the counterexample for −.

#include <gtest/gtest.h>

#include "algebra/join.h"
#include "algebra/project.h"
#include "algebra/select.h"
#include "algebra/setops.h"
#include "algebra/timeslice.h"
#include "algebra/when.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm {
namespace {

class AlgebraLawsTest : public ::testing::TestWithParam<uint64_t> {};

std::pair<Relation, Relation> Pair(uint64_t seed, double overlap = 0.6) {
  Rng rng(seed);
  workload::RandomRelationConfig config;
  config.num_tuples = 12;
  config.num_value_attrs = 2;
  return *workload::MakeMergeablePair(&rng, config, overlap);
}

/// Two union-compatible relations where r2 holds every other tuple of r1
/// verbatim plus the other side of a mergeable pair, so r1 ∩ r2 and
/// r1 − r2 are both non-trivial and shared keys carry different histories.
std::pair<Relation, Relation> Overlapping(uint64_t seed) {
  auto [r1, other] = Pair(seed);
  Relation r2(r1.scheme());
  size_t i = 0;
  for (const TuplePtr& t : r1.tuple_ptrs()) {
    if (i++ % 2 == 0) {
      EXPECT_TRUE(r2.InsertDedup(t).ok());
    }
  }
  for (const TuplePtr& t : other.tuple_ptrs()) {
    EXPECT_TRUE(r2.InsertDedup(t).ok());
  }
  return {std::move(r1), std::move(r2)};
}

Relation One(uint64_t seed) {
  Rng rng(seed);
  workload::RandomRelationConfig config;
  config.num_tuples = 12;
  config.num_value_attrs = 2;
  config.random_attribute_lifespans = true;
  return *workload::MakeRandomRelation(&rng, config);
}

TEST_P(AlgebraLawsTest, TimesliceFusion) {
  Relation r = One(GetParam());
  const Lifespan l1 = Lifespan::FromIntervals({Interval(0, 25),
                                               Interval(40, 55)});
  const Lifespan l2 = Span(10, 45);
  auto nested = *TimeSlice(*TimeSlice(r, l1), l2);
  auto fused = *TimeSlice(r, l1.Intersect(l2));
  EXPECT_TRUE(nested.EqualsAsSet(fused));
}

TEST_P(AlgebraLawsTest, TimesliceSelectWhenCommute) {
  Relation r = One(GetParam() * 3 + 1);
  Predicate p = Predicate::AttrConst("A0", CompareOp::kLe, Value::Int(60));
  const Lifespan l = Span(5, 40);
  auto slice_first = *SelectWhen(*TimeSlice(r, l), p);
  auto select_first = *TimeSlice(*SelectWhen(r, p), l);
  EXPECT_TRUE(slice_first.EqualsAsSet(select_first));
}

TEST_P(AlgebraLawsTest, SelectWhenCommutativity) {
  Relation r = One(GetParam() * 5 + 2);
  Predicate p1 = Predicate::AttrConst("A0", CompareOp::kLe, Value::Int(70));
  Predicate p2 = Predicate::AttrConst("A1", CompareOp::kGe, Value::Int(20));
  auto a = *SelectWhen(*SelectWhen(r, p1), p2);
  auto b = *SelectWhen(*SelectWhen(r, p2), p1);
  EXPECT_TRUE(a.EqualsAsSet(b));
}

TEST_P(AlgebraLawsTest, TimesliceDistributesOverUnion) {
  auto [r1, r2] = Pair(GetParam() * 41 + 12);
  const Lifespan l = Lifespan::FromIntervals({Interval(4, 22),
                                              Interval(35, 50)});
  auto sliced_union = *TimeSlice(*Union(r1, r2), l);
  auto union_of_slices = *Union(*TimeSlice(r1, l), *TimeSlice(r2, l));
  EXPECT_TRUE(sliced_union.EqualsAsSet(union_of_slices));
}

TEST_P(AlgebraLawsTest, SelectWhenDistributesOverUnion) {
  auto [r1, r2] = Pair(GetParam() * 43 + 13);
  Predicate p = Predicate::AttrConst("A0", CompareOp::kLe, Value::Int(50));
  auto selected_union = *SelectWhen(*Union(r1, r2), p);
  auto union_of_selects = *Union(*SelectWhen(r1, p), *SelectWhen(r2, p));
  EXPECT_TRUE(selected_union.EqualsAsSet(union_of_selects));
}

TEST_P(AlgebraLawsTest, SelectIfWithWindowDistributesOverSetOps) {
  // SELECT-IF keeps or drops whole tuples, so it distributes over all
  // three standard set operators, under either quantifier.
  auto [r1, r2] = Overlapping(GetParam() * 47 + 14);
  Predicate p = Predicate::AttrConst("A0", CompareOp::kLe, Value::Int(40));
  const Lifespan window = Span(0, 59);
  using SetOp = Result<Relation> (*)(const Relation&, const Relation&);
  for (const auto& [name, op] : {std::pair<const char*, SetOp>{"∪", &Union},
                                 {"∩", &Intersect},
                                 {"−", &Difference}}) {
    for (Quantifier q : {Quantifier::kExists, Quantifier::kForall}) {
      SCOPED_TRACE(std::string(name) + " " +
                   std::string(QuantifierName(q)));
      auto selected = *SelectIf(*op(r1, r2), p, q, window);
      auto distributed =
          *op(*SelectIf(r1, p, q, window), *SelectIf(r2, p, q, window));
      EXPECT_TRUE(selected.EqualsAsSet(distributed));
    }
  }
}

TEST(AlgebraCounterexampleTest, TimesliceDoesNotDistributeOverDifference) {
  // Two tuples of one object that differ overall but become identical
  // after slicing: distributing TIME-SLICE over − changes the answer. This
  // refines the paper's blanket claim that TIME-SLICE distributes over
  // "the binary set-theoretic operators".
  const Lifespan full = Span(0, 19);
  auto scheme = *RelationScheme::Make(
      "d",
      {{"Id", DomainType::kString, full, InterpolationKind::kDiscrete},
       {"X", DomainType::kInt, full, InterpolationKind::kDiscrete}},
      {"Id"});
  Relation r1(scheme), r2(scheme);
  {
    Tuple::Builder b(scheme, Span(0, 19));  // long history
    b.SetConstant("Id", Value::String("a"));
    b.SetConstant("X", Value::Int(1));
    ASSERT_TRUE(r1.Insert(*std::move(b).Build()).ok());
  }
  {
    Tuple::Builder b(scheme, Span(0, 9));  // short history, same values
    b.SetConstant("Id", Value::String("a"));
    b.SetConstant("X", Value::Int(1));
    ASSERT_TRUE(r2.Insert(*std::move(b).Build()).ok());
  }
  const Lifespan window = Span(0, 9);
  // LHS: slice(r1 − r2): r1's tuple ∉ r2 (different lifespan), survives,
  // then sliced to [0,9].
  auto lhs = *TimeSlice(*Difference(r1, r2), window);
  EXPECT_EQ(lhs.size(), 1u);
  // RHS: slice(r1) − slice(r2): after slicing both tuples are identical,
  // so the difference is empty.
  auto rhs = *Difference(*TimeSlice(r1, window), *TimeSlice(r2, window));
  EXPECT_TRUE(rhs.empty());
  EXPECT_FALSE(lhs.EqualsAsSet(rhs));
}

TEST_P(AlgebraLawsTest, ProjectFusion) {
  Relation r = One(GetParam() * 7 + 3);
  auto nested = *Project(*Project(r, {"Id", "A0", "A1"}), {"Id", "A1"});
  auto fused = *Project(r, {"Id", "A1"});
  EXPECT_TRUE(nested.EqualsAsSet(fused));
}

TEST_P(AlgebraLawsTest, ObjectUnionCommutes) {
  auto [r1, r2] = Pair(GetParam() * 11 + 4);
  auto a = *UnionO(r1, r2);
  auto b = *UnionO(r2, r1);
  EXPECT_TRUE(a.EqualsAsSet(b));
}

TEST_P(AlgebraLawsTest, ObjectUnionIdempotent) {
  auto [r1, r2] = Pair(GetParam() * 13 + 5);
  auto m1 = *MaterializeRelation(r1);
  auto self = *UnionO(r1, r1);
  EXPECT_TRUE(self.EqualsAsSet(m1));
}

TEST_P(AlgebraLawsTest, ObjectIntersectCommutesOnLifespans) {
  // ∩ₒ value functions come from the left operand by definition, but on
  // mergeable pairs (consistent values) the operator is fully commutative.
  auto [r1, r2] = Pair(GetParam() * 17 + 6);
  auto a = *IntersectO(r1, r2);
  auto b = *IntersectO(r2, r1);
  EXPECT_TRUE(a.EqualsAsSet(b));
}

TEST_P(AlgebraLawsTest, ObjectOpsPartitionLifespans) {
  // For an object present on both sides: its −ₒ lifespan and ∩ₒ lifespan
  // partition its r1 lifespan (disjoint, union = t1.l).
  auto [r1, r2] = Pair(GetParam() * 19 + 7);
  auto diff = *DifferenceO(r1, r2);
  auto inter = *IntersectO(r1, r2);
  for (const Tuple& t1 : r1) {
    auto d = diff.FindByKey(t1.KeyValues());
    auto i = inter.FindByKey(t1.KeyValues());
    Lifespan covered;
    if (d.has_value()) covered = covered.Union(diff.tuple(*d).lifespan());
    if (i.has_value()) covered = covered.Union(inter.tuple(*i).lifespan());
    if (d.has_value() && i.has_value()) {
      EXPECT_FALSE(diff.tuple(*d).lifespan().Overlaps(
          inter.tuple(*i).lifespan()));
    }
    // The partner exists iff the key exists in r2 (mergeable workloads).
    if (r2.FindByKey(t1.KeyValues()).has_value()) {
      EXPECT_EQ(covered, t1.lifespan());
    } else {
      ASSERT_TRUE(d.has_value());
      EXPECT_EQ(diff.tuple(*d).lifespan(), t1.lifespan());
    }
  }
}

TEST_P(AlgebraLawsTest, WhenDistributesOverUnion) {
  auto [r1, r2] = Pair(GetParam() * 23 + 8);
  auto u = *Union(r1, r2);
  EXPECT_EQ(When(u), When(r1).Union(When(r2)));
  auto uo = *UnionO(r1, r2);
  EXPECT_EQ(When(uo), When(r1).Union(When(r2)));
}

TEST_P(AlgebraLawsTest, WhenOfTimesliceIsBounded) {
  Relation r = One(GetParam() * 29 + 9);
  const Lifespan l = Lifespan::FromIntervals({Interval(3, 18),
                                              Interval(33, 44)});
  auto sliced = *TimeSlice(r, l);
  EXPECT_TRUE(l.ContainsAll(When(sliced)));
  EXPECT_EQ(When(sliced), When(r).Intersect(l));
}

TEST_P(AlgebraLawsTest, SelectIfForallImpliesExistsOnCoveredScopes) {
  // Whenever the window actually intersects the tuple's lifespan, ∀ is
  // strictly stronger than ∃.
  Relation r = One(GetParam() * 31 + 10);
  Predicate p = Predicate::AttrConst("A0", CompareOp::kLe, Value::Int(50));
  const Lifespan window = Span(0, 59);  // covers the whole horizon
  auto forall = *SelectIf(r, p, Quantifier::kForall, window);
  auto exists = *SelectIf(r, p, Quantifier::kExists, window);
  for (const Tuple& t : forall) {
    if (t.lifespan().Overlaps(window)) {
      EXPECT_TRUE(exists.FindByKey(t.KeyValues()).has_value());
    }
  }
}

TEST_P(AlgebraLawsTest, ProductLifespanIsUnionOfOperands) {
  Rng rng(GetParam() * 37 + 11);
  workload::RandomRelationConfig c1;
  c1.name = "pa";
  c1.num_tuples = 5;
  c1.num_value_attrs = 1;
  c1.key_prefix = "x";
  Relation r1 = *workload::MakeRandomRelation(&rng, c1);
  auto scheme2 = *RelationScheme::Make(
      "pb",
      {{"Id2", DomainType::kString, Span(0, 59),
        InterpolationKind::kDiscrete},
       {"B0", DomainType::kInt, Span(0, 59), InterpolationKind::kStepwise}},
      {"Id2"});
  Relation r2(scheme2);
  Relation src = *workload::MakeRandomRelation(&rng, c1);
  for (const Tuple& t : src) {
    std::vector<TemporalValue> vals = {t.value(0), t.value(1)};
    ASSERT_TRUE(
        r2.Insert(Tuple::FromParts(scheme2, t.lifespan(), vals)).ok());
  }
  auto product = *CartesianProduct(r1, r2);
  // Every product tuple's lifespan is t1.l ∪ t2.l for some pair; the
  // relation-level WHEN is therefore the union of the operand WHENs
  // (when both operands are non-empty).
  if (!r1.empty() && !r2.empty()) {
    EXPECT_EQ(When(product), When(r1).Union(When(r2)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraLawsTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 42u, 1000u));

}  // namespace
}  // namespace hrdm
