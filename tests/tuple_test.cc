// Tests for Tuple = <v, l> (Section 3): builder validation, vls (Figures
// 7–8), restriction, merge (Section 4.1) and materialization (Figure 9).

#include "core/tuple.h"

#include <gtest/gtest.h>

namespace hrdm {
namespace {

const Lifespan kFull = Span(0, 99);

SchemePtr EmpScheme() {
  static SchemePtr scheme = *RelationScheme::Make(
      "emp",
      {{"Name", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"Salary", DomainType::kInt, kFull, InterpolationKind::kStepwise},
       {"Dept", DomainType::kString, kFull, InterpolationKind::kStepwise}},
      {"Name"});
  return scheme;
}

/// Scheme whose Dept attribute is only defined over [0,49] — the Figure 7
/// attribute-lifespan interaction.
SchemePtr GappedScheme() {
  static SchemePtr scheme = *RelationScheme::Make(
      "emp2",
      {{"Name", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"Dept", DomainType::kString, Span(0, 49),
        InterpolationKind::kStepwise}},
      {"Name"});
  return scheme;
}

TEST(TupleBuilderTest, BuildsValidTuple) {
  Tuple::Builder b(EmpScheme(), Span(10, 30));
  b.SetConstant("Name", Value::String("john"));
  b.SetConstant("Salary", Value::Int(30000));
  b.SetAt("Dept", 10, Value::String("tools"));
  auto t = std::move(b).Build();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->lifespan().ToString(), "{[10,30]}");
  EXPECT_EQ(t->ValueAt(0, 15), Value::String("john"));
  EXPECT_EQ(t->ValueAt(1, 30), Value::Int(30000));
}

TEST(TupleBuilderTest, RejectsEmptyLifespan) {
  Tuple::Builder b(EmpScheme(), Lifespan::Empty());
  b.SetConstant("Name", Value::String("x"));
  EXPECT_FALSE(std::move(b).Build().ok());
}

TEST(TupleBuilderTest, RejectsUnknownAttribute) {
  Tuple::Builder b(EmpScheme(), Span(0, 5));
  b.SetConstant("Name", Value::String("x"));
  b.SetConstant("Bonus", Value::Int(1));
  auto t = std::move(b).Build();
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kNotFound);
}

TEST(TupleBuilderTest, RejectsMissingKey) {
  Tuple::Builder b(EmpScheme(), Span(0, 5));
  b.SetConstant("Salary", Value::Int(1));
  auto t = std::move(b).Build();
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kConstraintViolation);
}

TEST(TupleBuilderTest, RejectsNonConstantKey) {
  // DOM(K) ⊆ CD: key attributes must be constant-valued.
  Tuple::Builder b(EmpScheme(), Span(0, 5));
  auto name = TemporalValue::FromSegments(
      {{Interval(0, 2), Value::String("a")},
       {Interval(3, 5), Value::String("b")}});
  b.Set("Name", *name);
  auto t = std::move(b).Build();
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kConstraintViolation);
}

TEST(TupleBuilderTest, RejectsPartialKey) {
  Tuple::Builder b(EmpScheme(), Span(0, 5));
  b.Set("Name", *TemporalValue::Constant(Span(0, 3), Value::String("a")));
  auto t = std::move(b).Build();
  EXPECT_FALSE(t.ok());
}

TEST(TupleBuilderTest, RejectsTypeMismatch) {
  Tuple::Builder b(EmpScheme(), Span(0, 5));
  b.SetConstant("Name", Value::String("x"));
  b.SetConstant("Salary", Value::String("lots"));
  auto t = std::move(b).Build();
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kTypeError);
}

TEST(TupleBuilderTest, RejectsValueEscapingVls) {
  Tuple::Builder b(EmpScheme(), Span(10, 20));
  b.SetConstant("Name", Value::String("x"));
  b.SetAt("Salary", 5, Value::Int(1));  // outside tuple lifespan
  auto t = std::move(b).Build();
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kConstraintViolation);
}

TEST(TupleBuilderTest, NonKeyValuesMayBePartial) {
  Tuple::Builder b(EmpScheme(), Span(0, 20));
  b.SetConstant("Name", Value::String("x"));
  b.SetAt("Salary", 3, Value::Int(10));
  auto t = std::move(b).Build();
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->value(2).empty());  // Dept never set — fine
}

TEST(TupleVlsTest, VlsIsTupleLifespanIntersectALS) {
  // Figure 7: the value lifespan is X ∩ Y.
  Tuple::Builder b(GappedScheme(), Span(30, 80));
  b.SetConstant("Name", Value::String("x"));
  b.SetConstant("Dept", Value::String("tools"));
  auto t = std::move(b).Build();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->Vls(0).ToString(), "{[30,80]}");   // Name: ALS full
  EXPECT_EQ(t->Vls(1).ToString(), "{[30,49]}");   // Dept: clipped by ALS
  // SetConstant wrote over the whole vls only.
  EXPECT_EQ(t->value(1).domain().ToString(), "{[30,49]}");
  EXPECT_TRUE(t->ValueAt(1, 60).absent());
}

TEST(TupleVlsTest, VlsOfAttributeSetIntersects) {
  Tuple::Builder b(GappedScheme(), Span(30, 80));
  b.SetConstant("Name", Value::String("x"));
  auto t = *std::move(b).Build();
  EXPECT_EQ(t.VlsOf({0, 1}).ToString(), "{[30,49]}");
  EXPECT_EQ(t.VlsOf({}).ToString(), "{[30,80]}");
}

TEST(TupleTest, ModelValueInterpolatesStepwise) {
  Tuple::Builder b(EmpScheme(), Span(0, 20));
  b.SetConstant("Name", Value::String("x"));
  b.SetAt("Salary", 0, Value::Int(10));
  b.SetAt("Salary", 10, Value::Int(20));
  auto t = *std::move(b).Build();
  // Stored value is two points; the model level fills the gaps stepwise.
  EXPECT_TRUE(t.ValueAt(1, 5).absent());
  EXPECT_EQ(*t.ModelValueAt(1, 5), Value::Int(10));
  EXPECT_EQ(*t.ModelValueAt(1, 15), Value::Int(20));
  EXPECT_EQ(*t.ModelValueAt(1, 20), Value::Int(20));
}

TEST(TupleTest, MaterializedIsIdempotent) {
  Tuple::Builder b(EmpScheme(), Span(0, 20));
  b.SetConstant("Name", Value::String("x"));
  b.SetAt("Salary", 0, Value::Int(10));
  auto t = *std::move(b).Build();
  auto m1 = *t.Materialized();
  auto m2 = *m1.Materialized();
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1.value(1).domain(), m1.Vls(1));
}

TEST(TupleTest, RestrictClipsLifespanAndValues) {
  Tuple::Builder b(EmpScheme(), Span(0, 30));
  b.SetConstant("Name", Value::String("x"));
  b.SetConstant("Salary", Value::Int(10));
  auto t = *std::move(b).Build();
  Tuple r = t.Restrict(Span(10, 15), EmpScheme());
  EXPECT_EQ(r.lifespan().ToString(), "{[10,15]}");
  EXPECT_EQ(r.value(0).domain().ToString(), "{[10,15]}");
  EXPECT_EQ(r.value(1).domain().ToString(), "{[10,15]}");
  // Restriction to a disjoint window produces an empty tuple (dropped by
  // the algebra).
  EXPECT_TRUE(t.Restrict(Span(50, 60), EmpScheme()).lifespan().empty());
}

TEST(TupleMergeTest, MergeablePerSection41) {
  // Same key, non-contradicting values on the overlap.
  Tuple::Builder b1(EmpScheme(), Span(0, 10));
  b1.SetConstant("Name", Value::String("john"));
  b1.SetConstant("Salary", Value::Int(10));
  auto t1 = *std::move(b1).Build();

  Tuple::Builder b2(EmpScheme(), Span(5, 20));
  b2.SetConstant("Name", Value::String("john"));
  b2.Set("Salary", *TemporalValue::Constant(Span(5, 20), Value::Int(10)));
  auto t2 = *std::move(b2).Build();

  EXPECT_TRUE(t1.MergeableWith(t2));
  auto merged = t1.Merge(t2, EmpScheme());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->lifespan().ToString(), "{[0,20]}");
  EXPECT_EQ(merged->ValueAt(1, 18), Value::Int(10));
}

TEST(TupleMergeTest, DifferentKeysNotMergeable) {
  Tuple::Builder b1(EmpScheme(), Span(0, 10));
  b1.SetConstant("Name", Value::String("john"));
  auto t1 = *std::move(b1).Build();
  Tuple::Builder b2(EmpScheme(), Span(0, 10));
  b2.SetConstant("Name", Value::String("mary"));
  auto t2 = *std::move(b2).Build();
  EXPECT_FALSE(t1.MergeableWith(t2));
  EXPECT_FALSE(t1.Merge(t2, EmpScheme()).ok());
}

TEST(TupleMergeTest, ContradictionNotMergeable) {
  Tuple::Builder b1(EmpScheme(), Span(0, 10));
  b1.SetConstant("Name", Value::String("john"));
  b1.SetConstant("Salary", Value::Int(10));
  auto t1 = *std::move(b1).Build();
  Tuple::Builder b2(EmpScheme(), Span(5, 20));
  b2.SetConstant("Name", Value::String("john"));
  b2.Set("Salary", *TemporalValue::Constant(Span(5, 20), Value::Int(99)));
  auto t2 = *std::move(b2).Build();
  EXPECT_FALSE(t1.MergeableWith(t2));  // contradict on [5,10]
}

TEST(TupleTest, KeyValuesAndHash) {
  Tuple::Builder b(EmpScheme(), Span(0, 10));
  b.SetConstant("Name", Value::String("john"));
  auto t = *std::move(b).Build();
  EXPECT_EQ(t.KeyValues(), std::vector<Value>{Value::String("john")});
  Tuple::Builder b2(EmpScheme(), Span(20, 30));
  b2.SetConstant("Name", Value::String("john"));
  auto t2 = *std::move(b2).Build();
  EXPECT_TRUE(t.SameKeyAs(t2));
}

TEST(TupleTest, ReincarnationLifespans) {
  // Section 1: hire, fire, re-hire — a non-contiguous lifespan.
  const Lifespan life =
      Lifespan::FromIntervals({Interval(0, 9), Interval(30, 49)});
  Tuple::Builder b(EmpScheme(), life);
  b.SetConstant("Name", Value::String("john"));
  b.SetConstant("Salary", Value::Int(10));
  auto t = *std::move(b).Build();
  EXPECT_EQ(t.lifespan().IntervalCount(), 2u);
  EXPECT_TRUE(t.lifespan().Contains(5));
  EXPECT_FALSE(t.lifespan().Contains(20));  // the "dead" period
  EXPECT_TRUE(t.lifespan().Contains(40));
  EXPECT_TRUE(t.ValueAt(1, 20).absent());
}

}  // namespace
}  // namespace hrdm
