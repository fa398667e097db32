// Tests for Relation: temporal key uniqueness (Section 3), indexes,
// LS(r), and the storage-engine update paths.

#include "core/relation.h"

#include <gtest/gtest.h>

namespace hrdm {
namespace {

const Lifespan kFull = Span(0, 99);

SchemePtr Scheme() {
  static SchemePtr s = *RelationScheme::Make(
      "r",
      {{"Id", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"X", DomainType::kInt, kFull, InterpolationKind::kStepwise}},
      {"Id"});
  return s;
}

Tuple MakeTuple(const std::string& id, TimePoint b, TimePoint e, int64_t x) {
  Tuple::Builder builder(Scheme(), Span(b, e));
  builder.SetConstant("Id", Value::String(id));
  builder.SetConstant("X", Value::Int(x));
  return *std::move(builder).Build();
}

TEST(RelationTest, InsertAndLookup) {
  Relation r(Scheme());
  ASSERT_TRUE(r.Insert(MakeTuple("a", 0, 10, 1)).ok());
  ASSERT_TRUE(r.Insert(MakeTuple("b", 5, 20, 2)).ok());
  EXPECT_EQ(r.size(), 2u);
  auto idx = r.FindByKey({Value::String("b")});
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(r.tuple(*idx).ValueAt(1, 10), Value::Int(2));
  EXPECT_FALSE(r.FindByKey({Value::String("zzz")}).has_value());
}

TEST(RelationTest, TemporalKeyUniqueness) {
  // Section 3: even with disjoint lifespans, two tuples may not share a
  // key — the same object must be one tuple (with a fragmented lifespan).
  Relation r(Scheme());
  ASSERT_TRUE(r.Insert(MakeTuple("a", 0, 10, 1)).ok());
  auto dup = r.Insert(MakeTuple("a", 50, 60, 2));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kConstraintViolation);
}

TEST(RelationTest, RejectsEmptyLifespan) {
  Relation r(Scheme());
  Tuple t = MakeTuple("a", 0, 10, 1).Restrict(Span(50, 60), Scheme());
  EXPECT_FALSE(r.Insert(t).ok());
  EXPECT_TRUE(r.InsertOrDrop(t).ok());  // silently dropped
  EXPECT_TRUE(r.empty());
}

TEST(RelationTest, InsertDedupSkipsStructuralDuplicates) {
  Relation r(Scheme());
  Tuple t = MakeTuple("a", 0, 10, 1);
  ASSERT_TRUE(r.InsertDedup(t).ok());
  ASSERT_TRUE(r.InsertDedup(t).ok());
  EXPECT_EQ(r.size(), 1u);
  // And allows key collisions (set semantics for derived relations).
  ASSERT_TRUE(r.InsertDedup(MakeTuple("a", 50, 60, 2)).ok());
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.FindAllByKey({Value::String("a")}).size(), 2u);
}

TEST(RelationTest, KeyedInsertDedupFindsDuplicatesOnTheKeyChain) {
  // A keyed derived relation keeps no structural map: duplicates are found
  // among the tuples sharing their key.
  Relation r(Scheme());
  const Tuple first = MakeTuple("a", 0, 10, 1);
  const Tuple second = MakeTuple("a", 0, 10, 2);  // same key and lifespan
  ASSERT_TRUE(r.InsertDedup(first).ok());
  ASSERT_TRUE(r.InsertDedup(second).ok());
  ASSERT_TRUE(r.InsertDedup(MakeTuple("b", 0, 10, 1)).ok());
  EXPECT_EQ(r.size(), 3u);
  ASSERT_TRUE(r.InsertDedup(MakeTuple("a", 0, 10, 2)).ok());  // exact dup
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.FindStructural(first), std::optional<size_t>(0));
  EXPECT_EQ(r.FindStructural(second), std::optional<size_t>(1));
  EXPECT_FALSE(r.FindStructural(MakeTuple("a", 0, 11, 1)).has_value());
  EXPECT_FALSE(r.FindStructural(MakeTuple("c", 0, 10, 1)).has_value());
  // The key chain follows replacement and erasure. EraseAt moves the last
  // tuple ("b") into the hole; "second" keeps its position.
  ASSERT_TRUE(r.ReplaceAt(0, MakeTuple("a", 0, 20, 1)).ok());
  EXPECT_FALSE(r.FindStructural(first).has_value());
  ASSERT_TRUE(r.EraseAt(0).ok());
  EXPECT_EQ(r.FindStructural(second), std::optional<size_t>(1));
  EXPECT_EQ(r.FindStructural(MakeTuple("b", 0, 10, 1)),
            std::optional<size_t>(0));
}

TEST(RelationTest, LSIsUnionOfTupleLifespans) {
  Relation r(Scheme());
  ASSERT_TRUE(r.Insert(MakeTuple("a", 0, 10, 1)).ok());
  ASSERT_TRUE(r.Insert(MakeTuple("b", 30, 40, 2)).ok());
  EXPECT_EQ(r.LS().ToString(), "{[0,10],[30,40]}");
  EXPECT_TRUE(Relation(Scheme()).LS().empty());
}

TEST(RelationTest, EqualsAsSetIgnoresOrder) {
  Relation r1(Scheme()), r2(Scheme());
  ASSERT_TRUE(r1.Insert(MakeTuple("a", 0, 10, 1)).ok());
  ASSERT_TRUE(r1.Insert(MakeTuple("b", 5, 20, 2)).ok());
  ASSERT_TRUE(r2.Insert(MakeTuple("b", 5, 20, 2)).ok());
  ASSERT_TRUE(r2.Insert(MakeTuple("a", 0, 10, 1)).ok());
  EXPECT_TRUE(r1.EqualsAsSet(r2));
  Relation r3(Scheme());
  ASSERT_TRUE(r3.Insert(MakeTuple("a", 0, 10, 1)).ok());
  EXPECT_FALSE(r1.EqualsAsSet(r3));
}

TEST(RelationTest, ReplaceAtUpdatesIndexes) {
  Relation r(Scheme());
  ASSERT_TRUE(r.Insert(MakeTuple("a", 0, 10, 1)).ok());
  ASSERT_TRUE(r.Insert(MakeTuple("b", 0, 10, 2)).ok());
  // Replace b's tuple wholesale.
  ASSERT_TRUE(r.ReplaceAt(1, MakeTuple("b", 0, 30, 5)).ok());
  auto idx = r.FindByKey({Value::String("b")});
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(r.tuple(*idx).lifespan().ToString(), "{[0,30]}");
  // Key change is allowed as long as it stays unique.
  ASSERT_TRUE(r.ReplaceAt(1, MakeTuple("c", 0, 5, 9)).ok());
  EXPECT_FALSE(r.FindByKey({Value::String("b")}).has_value());
  EXPECT_TRUE(r.FindByKey({Value::String("c")}).has_value());
  // ...but may not steal another tuple's key.
  auto bad = r.ReplaceAt(1, MakeTuple("a", 0, 5, 9));
  EXPECT_FALSE(bad.ok());
}

TEST(RelationTest, EraseAtReindexes) {
  Relation r(Scheme());
  ASSERT_TRUE(r.Insert(MakeTuple("a", 0, 10, 1)).ok());
  ASSERT_TRUE(r.Insert(MakeTuple("b", 0, 10, 2)).ok());
  ASSERT_TRUE(r.Insert(MakeTuple("c", 0, 10, 3)).ok());
  ASSERT_TRUE(r.EraseAt(0).ok());
  EXPECT_EQ(r.size(), 2u);
  EXPECT_FALSE(r.FindByKey({Value::String("a")}).has_value());
  auto idx = r.FindByKey({Value::String("c")});
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(r.tuple(*idx).ValueAt(1, 5), Value::Int(3));
  EXPECT_FALSE(r.EraseAt(5).ok());
}

TEST(RelationTest, SchemeMismatchRejected) {
  auto other = *RelationScheme::Make(
      "other",
      {{"Id", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"Y", DomainType::kInt, kFull, InterpolationKind::kStepwise}},
      {"Id"});
  Relation r(other);
  auto s = r.Insert(MakeTuple("a", 0, 10, 1));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIncompatibleSchemes);
}

}  // namespace
}  // namespace hrdm
