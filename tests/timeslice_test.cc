// Tests for TIME-SLICE (static and dynamic, Section 4.4) and WHEN (§4.5).

#include "algebra/timeslice.h"

#include <gtest/gtest.h>

#include "algebra/when.h"

namespace hrdm {
namespace {

const Lifespan kFull = Span(0, 99);

SchemePtr AuditScheme() {
  static SchemePtr s = *RelationScheme::Make(
      "audit",
      {{"Id", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"X", DomainType::kInt, kFull, InterpolationKind::kStepwise},
       {"Ref", DomainType::kTime, kFull, InterpolationKind::kDiscrete}},
      {"Id"});
  return s;
}

Relation AuditRelation() {
  Relation r(AuditScheme());
  {
    // Tuple a: alive [0,20], Ref points at chronons 5 and 6.
    Tuple::Builder b(AuditScheme(), Span(0, 20));
    b.SetConstant("Id", Value::String("a"));
    b.SetConstant("X", Value::Int(1));
    b.Set("Ref", *TemporalValue::FromSegments(
                     {{Interval(0, 10), Value::Time(5)},
                      {Interval(11, 20), Value::Time(6)}}));
    EXPECT_TRUE(r.Insert(*std::move(b).Build()).ok());
  }
  {
    // Tuple b: alive [10,40], Ref points far outside its own lifespan.
    Tuple::Builder b(AuditScheme(), Span(10, 40));
    b.SetConstant("Id", Value::String("b"));
    b.SetConstant("X", Value::Int(2));
    b.Set("Ref", *TemporalValue::Constant(Span(10, 40), Value::Time(90)));
    EXPECT_TRUE(r.Insert(*std::move(b).Build()).ok());
  }
  return r;
}

TEST(TimeSliceTest, StaticRestrictsEveryTuple) {
  Relation r = AuditRelation();
  auto sliced = TimeSlice(r, Span(15, 30));
  ASSERT_TRUE(sliced.ok());
  ASSERT_EQ(sliced->size(), 2u);
  auto a = sliced->FindByKey({Value::String("a")});
  auto b = sliced->FindByKey({Value::String("b")});
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(sliced->tuple(*a).lifespan().ToString(), "{[15,20]}");
  EXPECT_EQ(sliced->tuple(*b).lifespan().ToString(), "{[15,30]}");
}

TEST(TimeSliceTest, StaticDropsTuplesOutsideWindow) {
  Relation r = AuditRelation();
  auto sliced = TimeSlice(r, Span(25, 30));
  ASSERT_TRUE(sliced.ok());
  EXPECT_EQ(sliced->size(), 1u);  // only b lives through [25,30]
}

TEST(TimeSliceTest, EmptyWindowYieldsEmptyRelation) {
  Relation r = AuditRelation();
  auto sliced = TimeSlice(r, Lifespan::Empty());
  ASSERT_TRUE(sliced.ok());
  EXPECT_TRUE(sliced->empty());
}

TEST(TimeSliceTest, FragmentedWindow) {
  Relation r = AuditRelation();
  auto sliced = TimeSlice(
      r, Lifespan::FromIntervals({Interval(0, 2), Interval(18, 19)}));
  ASSERT_TRUE(sliced.ok());
  auto a = sliced->FindByKey({Value::String("a")});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(sliced->tuple(*a).lifespan().ToString(), "{[0,2],[18,19]}");
}

TEST(TimeSliceTest, SnapshotAtChronon) {
  Relation r = AuditRelation();
  auto at = TimeSlice(r, Lifespan::Point(12));
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(at->size(), 2u);
  for (const Tuple& t : *at) {
    EXPECT_EQ(t.lifespan().ToString(), "{[12]}");
  }
}

TEST(TimeSliceTest, DynamicUsesPerTupleImage) {
  Relation r = AuditRelation();
  auto sliced = TimeSliceDynamic(r, "Ref");
  ASSERT_TRUE(sliced.ok());
  // a's Ref image is {5,6} ⊆ its lifespan → survives on {[5,6]}.
  // b's Ref image is {90}, outside its lifespan → empty, dropped.
  ASSERT_EQ(sliced->size(), 1u);
  EXPECT_EQ(sliced->tuple(0).KeyValues()[0], Value::String("a"));
  EXPECT_EQ(sliced->tuple(0).lifespan().ToString(), "{[5,6]}");
}

TEST(TimeSliceTest, DynamicRequiresTimeValuedAttribute) {
  Relation r = AuditRelation();
  auto bad = TimeSliceDynamic(r, "X");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);
  auto missing = TimeSliceDynamic(r, "Nope");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(WhenTest, WhenIsRelationLifespan) {
  Relation r = AuditRelation();
  EXPECT_EQ(When(r).ToString(), "{[0,40]}");
  // WHEN's output feeds TIME-SLICE (the multi-sorted composition, §4.5).
  auto sliced = TimeSlice(r, When(r));
  ASSERT_TRUE(sliced.ok());
  EXPECT_EQ(sliced->size(), r.size());
}

TEST(WhenTest, EmptyRelationNever) {
  Relation r(AuditScheme());
  EXPECT_TRUE(When(r).empty());  // the "never" of Section 5
}

TEST(TimeSliceTest, SliceByWhenIsIdentityAtModelLevel) {
  // T_{Ω(r)}(r) keeps every tuple intact (lifespans ⊆ LS(r)).
  Relation r = AuditRelation();
  auto sliced = *TimeSlice(r, When(r));
  ASSERT_EQ(sliced.size(), r.size());
  for (const Tuple& t : r) {
    auto idx = sliced.FindByKey(t.KeyValues());
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(sliced.tuple(*idx).lifespan(), t.lifespan());
  }
}

}  // namespace
}  // namespace hrdm
