// End-to-end executor tests: HRQL queries against the domain workloads.

#include "query/executor.h"

#include <gtest/gtest.h>

#include "algebra/when.h"
#include "query/parser.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm::query {
namespace {

storage::Database PersonnelDb(uint64_t seed = 42) {
  Rng rng(seed);
  workload::PersonnelConfig config;
  config.num_employees = 40;
  auto emp = workload::MakePersonnel(&rng, config);
  EXPECT_TRUE(emp.ok());
  storage::Database db;
  EXPECT_TRUE(db.CreateRelation(emp->scheme()).ok());
  for (const Tuple& t : *emp) {
    EXPECT_TRUE(db.Insert("emp", t).ok());
  }
  return db;
}

TEST(ExecutorTest, BaseRelationLookup) {
  auto db = PersonnelDb();
  const auto pin = db.CurrentVersion();
  auto r = hrdm::query::Run("emp", *pin);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), (*db.Get("emp"))->size());
  EXPECT_FALSE(hrdm::query::Run("ghosts", *pin).ok());
}

TEST(ExecutorTest, SelectProjectPipeline) {
  auto db = PersonnelDb();
  const auto pin = db.CurrentVersion();
  auto r = hrdm::query::Run("project(select_if(emp, Salary >= 100000, exists), Name)", *pin);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->scheme()->arity(), 1u);
  // Every returned employee indeed earned >= 100000 at some chronon.
  auto check = hrdm::query::Run("select_if(emp, Salary >= 100000, exists)", *pin);
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(r->size(), check->size());
}

TEST(ExecutorTest, MultiSortedWhenParameter) {
  auto db = PersonnelDb();
  const auto pin = db.CurrentVersion();
  // "restrict the database to the times when anyone was in dept0" — a
  // WHEN result feeding TIME-SLICE (Section 4.5).
  auto r = hrdm::query::Run(
      R"(timeslice(emp, when(select_when(emp, Dept = "dept0"))))", *pin);
  ASSERT_TRUE(r.ok());
  auto dept0_times = EvalLifespan(
      *ParseLsExpr(R"(when(select_when(emp, Dept = "dept0")))"),
      *pin);
  ASSERT_TRUE(dept0_times.ok());
  EXPECT_TRUE(dept0_times->ContainsAll(When(*r)));
}

TEST(ExecutorTest, SnapshotReduction) {
  auto db = PersonnelDb();
  const auto pin = db.CurrentVersion();
  // A single-chronon slice behaves like a classical table.
  auto r = hrdm::query::Run("timeslice(emp, {[50]})", *pin);
  ASSERT_TRUE(r.ok());
  for (const Tuple& t : *r) {
    EXPECT_EQ(t.lifespan(), Lifespan::Point(50));
  }
}

TEST(ExecutorTest, ErrorsPropagate) {
  auto db = PersonnelDb();
  const auto pin = db.CurrentVersion();
  EXPECT_FALSE(hrdm::query::Run("select_if(emp, Bonus = 1, exists)", *pin).ok());
  EXPECT_FALSE(hrdm::query::Run("dynslice(emp, Salary)", *pin).ok());
  EXPECT_FALSE(hrdm::query::Run("union(emp, project(emp, Name))", *pin).ok());
}

TEST(ExecutorTest, EnrollmentJoinScenario) {
  Rng rng(7);
  auto db = workload::MakeEnrollment(&rng, workload::EnrollmentConfig{});
  ASSERT_TRUE(db.ok());
  const auto pin = db->CurrentVersion();
  // Students and their enrollments, joined on SId equality over time.
  auto r = hrdm::query::Run("join(project(enroll, EId, CId), student, EId != SId)", *pin);
  ASSERT_TRUE(r.ok());
  // Weak sanity: the join scheme concatenates both sides.
  EXPECT_EQ(r->scheme()->arity(), 4u);

  // Natural join via the shared SId attribute.
  auto nj = hrdm::query::Run("natjoin(enroll, student)", *pin);
  ASSERT_TRUE(nj.ok());
  for (const Tuple& t : *nj) {
    // Every joined tuple's lifespan is inside both parents' lifespans.
    auto sid = (*t.value("SId")).ConstantValue();
    auto enroll_rel = *db->Get("student");
    auto idx = enroll_rel->FindByKey({sid});
    ASSERT_TRUE(idx.has_value());
    EXPECT_TRUE(
        enroll_rel->tuple(*idx).lifespan().ContainsAll(t.lifespan()));
  }
}

TEST(ExecutorTest, ObjectUnionAcrossTimeslices) {
  auto db = PersonnelDb();
  const auto pin = db.CurrentVersion();
  // Splitting a relation by time and object-unioning the parts restores
  // the original (at the model level): r = T_[0,49](r) ∪o T_[50,99](r).
  auto split = hrdm::query::Run(
      "ounion(timeslice(emp, {[0,49]}), timeslice(emp, {[50,99]}))", *pin);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  auto whole = hrdm::query::Run("timeslice(emp, {[0,99]})", *pin);
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(split->EqualsAsSet(*whole));
}

TEST(ExecutorTest, StockMarketFigure6Queries) {
  Rng rng(9);
  auto stocks = workload::MakeStockMarket(&rng, workload::StockMarketConfig{});
  ASSERT_TRUE(stocks.ok());
  storage::Database db;
  ASSERT_TRUE(db.CreateRelation(stocks->scheme()).ok());
  for (const Tuple& t : *stocks) {
    ASSERT_TRUE(db.Insert("stocks", t).ok());
  }
  const auto pin = db.CurrentVersion();
  // DailyVolume is undefined during the Figure 6 gap [80,139]: selecting on
  // it there yields nothing.
  auto gap = hrdm::query::Run("timeslice(select_when(stocks, DailyVolume >= 0), {[100,120]})",
                 *pin);
  ASSERT_TRUE(gap.ok());
  EXPECT_TRUE(gap->empty());
  // But Price (linear interpolation) is defined throughout.
  auto price = hrdm::query::Run("timeslice(select_when(stocks, Price > 0.0), {[100,120]})",
                   *pin);
  ASSERT_TRUE(price.ok());
  EXPECT_EQ(price->size(), 50u);
}

}  // namespace
}  // namespace hrdm::query
