// Tests for the workload generators: determinism, well-formedness and the
// domain properties each generator promises.

#include "workload/generators.h"

#include <gtest/gtest.h>

#include "constraints/constraints.h"

namespace hrdm::workload {
namespace {

TEST(PersonnelTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  PersonnelConfig config;
  config.num_employees = 20;
  auto r1 = MakePersonnel(&a, config);
  auto r2 = MakePersonnel(&b, config);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r1->EqualsAsSet(*r2));
}

TEST(PersonnelTest, SomeEmployeesAreReincarnated) {
  Rng rng(1);
  PersonnelConfig config;
  config.num_employees = 200;
  config.rehire_probability = 0.5;
  auto r = MakePersonnel(&rng, config);
  ASSERT_TRUE(r.ok());
  size_t fragmented = 0;
  for (const Tuple& t : *r) {
    if (t.lifespan().IntervalCount() > 1) ++fragmented;
  }
  EXPECT_GT(fragmented, 10u);  // hire/fire/re-hire histories exist
}

TEST(PersonnelTest, SalariesNeverDecrease) {
  Rng rng(2);
  auto r = MakePersonnel(&rng, PersonnelConfig{});
  ASSERT_TRUE(r.ok());
  auto v = CheckMonotone(*r, "Salary", /*non_decreasing=*/true);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->empty());
}

TEST(StockMarketTest, VolumeHasFigure6Gap) {
  Rng rng(3);
  StockMarketConfig config;
  auto r = MakeStockMarket(&rng, config);
  ASSERT_TRUE(r.ok());
  const auto idx = r->scheme()->IndexOf("DailyVolume");
  ASSERT_TRUE(idx.has_value());
  const Lifespan& als = r->scheme()->AttributeLifespan(*idx);
  EXPECT_EQ(als.IntervalCount(), 2u);
  EXPECT_FALSE(als.Contains(config.volume_drop_at));
  EXPECT_TRUE(als.Contains(config.volume_resume_at));
  // Every tuple's volume history respects the attribute lifespan.
  for (const Tuple& t : *r) {
    EXPECT_TRUE(als.ContainsAll(t.value(*idx).domain()));
  }
}

TEST(StockMarketTest, PricesInterpolateLinearly) {
  Rng rng(4);
  StockMarketConfig config;
  config.num_tickers = 3;
  auto r = MakeStockMarket(&rng, config);
  ASSERT_TRUE(r.ok());
  const size_t pi = *r->scheme()->IndexOf("Price");
  for (const Tuple& t : *r) {
    // The stored representation is sparse samples...
    EXPECT_LT(t.value(pi).domain().Cardinality(),
              t.lifespan().Cardinality());
    // ...but the model level is total on the lifespan.
    auto model = t.ModelValue(pi);
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(model->domain(), t.Vls(pi));
  }
}

TEST(EnrollmentTest, TemporalRIHoldsByConstruction) {
  Rng rng(5);
  EnrollmentConfig config;
  auto db = MakeEnrollment(&rng, config);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->RelationNames(),
            (std::vector<std::string>{"course", "enroll", "student"}));
  auto v = db->CheckIntegrity();
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->empty());
  EXPECT_EQ(db->CurrentVersion()->fks.size(), 2u);
}

TEST(RandomRelationTest, RespectsConfig) {
  Rng rng(6);
  RandomRelationConfig config;
  config.num_tuples = 25;
  config.num_value_attrs = 3;
  config.with_time_attribute = true;
  config.random_attribute_lifespans = true;
  auto r = MakeRandomRelation(&rng, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->scheme()->arity(), 5u);  // Id + A0..A2 + Ref
  EXPECT_LE(r->size(), 25u);
  auto v = CheckRelationWellFormed(*r);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->empty());
}

TEST(MergeablePairTest, SharedObjectsAreMergeable) {
  Rng rng(7);
  RandomRelationConfig config;
  config.num_tuples = 30;
  auto pair = MakeMergeablePair(&rng, config, 0.8);
  ASSERT_TRUE(pair.ok());
  const auto& [r1, r2] = *pair;
  size_t shared = 0;
  for (const Tuple& t1 : r1) {
    auto idx = r2.FindByKey(t1.KeyValues());
    if (!idx.has_value()) continue;
    ++shared;
    EXPECT_TRUE(t1.MergeableWith(r2.tuple(*idx)));
  }
  EXPECT_GT(shared, 5u);
}

}  // namespace
}  // namespace hrdm::workload
