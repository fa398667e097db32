// Tests for the storage engine: catalog, temporal DML (birth / death /
// reincarnation / assignment), schema evolution (Figure 6) and snapshot
// persistence. Logging and replay are covered by storage_engine_test.cc.

#include "storage/database.h"

#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/snapshot.h"
#include "storage_test_util.h"

namespace hrdm::storage {
namespace {

using hrdm::storage::testing::TempDir;

const Lifespan kFull = Span(0, 99);

std::vector<AttributeDef> EmpAttrs() {
  return {{"Name", DomainType::kString, kFull, InterpolationKind::kDiscrete},
          {"Salary", DomainType::kInt, kFull, InterpolationKind::kStepwise}};
}

std::vector<Value> Key(const std::string& name) {
  return {Value::String(name)};
}

Database MakeEmpDb() {
  Database db;
  EXPECT_TRUE(db.CreateRelation("emp", EmpAttrs(), {"Name"}).ok());
  auto scheme = *db.catalog().Get("emp");
  Tuple::Builder b(scheme, Span(0, 19));
  b.SetConstant("Name", Value::String("john"));
  b.SetAt("Salary", 0, Value::Int(10000));
  EXPECT_TRUE(db.Insert("emp", *std::move(b).Build()).ok());
  return db;
}

std::string EmpName(size_t i) { return "e" + std::to_string(i); }

TEST(DatabaseTest, PinnedRelationSurvivesLaterCommits) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("emp", EmpAttrs(), {"Name"}).ok());
  ASSERT_TRUE(db.CreateLifespanIndex("emp").ok());
  ASSERT_TRUE(db.CreateValueIndex("emp", "Name").ok());
  auto scheme = *db.catalog().Get("emp");
  auto make = [&](const std::string& name, int64_t salary) {
    Tuple::Builder b(scheme, Span(0, 19));
    b.SetConstant("Name", Value::String(name));
    b.SetAt("Salary", 0, Value::Int(salary));
    return *std::move(b).Build();
  };
  // Several full chunks and a partial tail.
  const size_t n = 3 * Relation::kChunkSize + 7;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(
        db.Insert("emp", make(EmpName(i), static_cast<int64_t>(i))).ok());
  }

  const DatabaseVersionPtr pinned = db.CurrentVersion();
  const Relation* old = *pinned->Get("emp");
  const std::string rendering = old->ToString();
  const std::vector<TuplePtr> handles(old->tuple_ptrs().begin(),
                                      old->tuple_ptrs().end());

  // One AssignAt under the pin clones the one chunk it writes; every other
  // chunk is shared, slot for slot, with the pinned relation.
  const size_t assigned = Relation::kChunkSize + 5;
  ASSERT_TRUE(
      db.AssignAt("emp", Key(EmpName(assigned)), "Salary", 3, Value::Int(-1))
          .ok());
  {
    const Relation* now = *db.Get("emp");
    ASSERT_NE(now, old);
    for (size_t i = 0; i < n; ++i) {
      const bool written_chunk =
          i / Relation::kChunkSize == assigned / Relation::kChunkSize;
      EXPECT_EQ(&now->tuple_ptr(i) == &old->tuple_ptr(i), !written_chunk)
          << "slot " << i;
      EXPECT_EQ(now->tuple_ptr(i) == old->tuple_ptr(i), i != assigned)
          << "slot " << i;
    }
  }

  // Later commits of every lifecycle kind, the last erasing a tuple (the
  // last tuple moves into its slot).
  ASSERT_TRUE(db.Insert("emp", make("newborn", 1)).ok());
  ASSERT_TRUE(db.Reincarnate("emp", Key(EmpName(7)), Span(40, 50)).ok());
  ASSERT_TRUE(db.EndLifespan("emp", Key(EmpName(0)), 0).ok());
  const Relation* now = *db.Get("emp");
  EXPECT_EQ(now->size(), n);
  EXPECT_FALSE(now->FindByKey(Key(EmpName(0))).has_value());
  EXPECT_EQ(now->FindByKey(Key("newborn")), std::optional<size_t>(0));
  EXPECT_EQ(now->tuple(*now->FindByKey(Key(EmpName(7)))).lifespan().ToString(),
            "{[0,19],[40,50]}");

  // The pinned version answers exactly as before.
  EXPECT_EQ(old->ToString(), rendering);
  ASSERT_EQ(old->size(), n);
  EXPECT_FALSE(old->FindByKey(Key("newborn")).has_value());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(old->tuple_ptr(i), handles[i]) << "slot " << i;
    EXPECT_EQ(old->FindByKey(Key(EmpName(i))), std::optional<size_t>(i));
  }
  const ValueIndex* names = pinned->IndexesOf("emp")->value("Name");
  ASSERT_NE(names, nullptr);
  EXPECT_EQ(names->Probe(Value::String(EmpName(0))),
            std::vector<TuplePtr>{handles[0]});
  EXPECT_TRUE(names->Probe(Value::String("newborn")).empty());
}

TEST(CatalogTest, RegisterGetDrop) {
  Catalog c;
  ASSERT_TRUE(c.Create("emp", EmpAttrs(), {"Name"}).ok());
  EXPECT_TRUE(c.Contains("emp"));
  EXPECT_FALSE(c.Create("emp", EmpAttrs(), {"Name"}).ok());  // duplicate
  EXPECT_TRUE(c.Get("emp").ok());
  EXPECT_FALSE(c.Get("nope").ok());
  ASSERT_TRUE(c.Drop("emp").ok());
  EXPECT_FALSE(c.Contains("emp"));
  EXPECT_FALSE(c.Drop("emp").ok());
}

TEST(CatalogTest, RejectsKeylessBaseRelations) {
  Catalog c;
  auto keyless = RelationScheme::Make("d", EmpAttrs(), {});
  ASSERT_TRUE(keyless.ok());
  EXPECT_FALSE(c.Register(*keyless).ok());
}

TEST(CatalogTest, Figure6EvolutionStory) {
  // Daily-Trading-Volume: collected over [0,t2], dropped, re-adopted at t3.
  Catalog c;
  ASSERT_TRUE(c.Create("stocks", EmpAttrs(), {"Name"}).ok());
  ASSERT_TRUE(c.AddAttribute("stocks",
                             {"Volume", DomainType::kInt, kFull,
                              InterpolationKind::kStepwise})
                  .ok());
  ASSERT_TRUE(c.CloseAttribute("stocks", "Volume", 50).ok());
  auto s1 = *c.Get("stocks");
  EXPECT_EQ(s1->AttributeLifespan(*s1->IndexOf("Volume")).ToString(),
            "{[0,49]}");
  ASSERT_TRUE(c.ReopenAttribute("stocks", "Volume", Span(70, 99)).ok());
  auto s2 = *c.Get("stocks");
  EXPECT_EQ(s2->AttributeLifespan(*s2->IndexOf("Volume")).ToString(),
            "{[0,49],[70,99]}");
  // Key attributes cannot be closed.
  EXPECT_FALSE(c.CloseAttribute("stocks", "Name", 10).ok());
}

TEST(DatabaseTest, InsertAndGet) {
  Database db = MakeEmpDb();
  auto rel = db.Get("emp");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 1u);
  EXPECT_FALSE(db.Get("nope").ok());
}

TEST(DatabaseTest, AssignWritesHistory) {
  Database db = MakeEmpDb();
  ASSERT_TRUE(
      db.Assign("emp", Key("john"), "Salary", Span(10, 19), Value::Int(20000))
          .ok());
  const Relation& rel = **db.Get("emp");
  const Tuple& t = rel.tuple(0);
  EXPECT_EQ(*t.ModelValueAt(1, 5), Value::Int(10000));
  EXPECT_EQ(*t.ModelValueAt(1, 15), Value::Int(20000));
  // Overwrite part of the history.
  ASSERT_TRUE(
      db.Assign("emp", Key("john"), "Salary", Span(15, 19), Value::Int(30000))
          .ok());
  const Tuple& t2 = (**db.Get("emp")).tuple(0);
  EXPECT_EQ(*t2.ModelValueAt(1, 12), Value::Int(20000));
  EXPECT_EQ(*t2.ModelValueAt(1, 17), Value::Int(30000));
}

TEST(DatabaseTest, AssignValidation) {
  Database db = MakeEmpDb();
  // Outside the tuple lifespan.
  EXPECT_FALSE(
      db.Assign("emp", Key("john"), "Salary", Span(50, 60), Value::Int(1))
          .ok());
  // Key attributes are immutable.
  EXPECT_FALSE(db.Assign("emp", Key("john"), "Name", Span(0, 5),
                         Value::String("x"))
                   .ok());
  // Unknown tuple.
  EXPECT_FALSE(
      db.Assign("emp", Key("ghost"), "Salary", Span(0, 5), Value::Int(1))
          .ok());
}

TEST(DatabaseTest, DeathAndReincarnation) {
  Database db = MakeEmpDb();
  // Fire john at chronon 10.
  ASSERT_TRUE(db.EndLifespan("emp", Key("john"), 10).ok());
  {
    const Tuple& t = (**db.Get("emp")).tuple(0);
    EXPECT_EQ(t.lifespan().ToString(), "{[0,9]}");
  }
  // Re-hire over [30,49] — the lifespan becomes non-contiguous.
  ASSERT_TRUE(db.Reincarnate("emp", Key("john"), Span(30, 49)).ok());
  {
    const Tuple& t = (**db.Get("emp")).tuple(0);
    EXPECT_EQ(t.lifespan().ToString(), "{[0,9],[30,49]}");
    // The key is total on the extended lifespan.
    EXPECT_EQ(t.value(0).domain(), t.lifespan());
    // Salary history in the new incarnation starts empty.
    EXPECT_TRUE(t.ValueAt(1, 35).absent());
  }
  ASSERT_TRUE(
      db.Assign("emp", Key("john"), "Salary", Span(30, 49), Value::Int(500))
          .ok());
  EXPECT_EQ(*(**db.Get("emp")).tuple(0).ModelValueAt(1, 40),
            Value::Int(500));
}

TEST(DatabaseTest, EndLifespanBeforeBirthRemovesTuple) {
  Database db = MakeEmpDb();
  ASSERT_TRUE(db.EndLifespan("emp", Key("john"), 0).ok());
  EXPECT_TRUE((*db.Get("emp"))->empty());
}

TEST(DatabaseTest, SchemaEvolutionRebindsTuples) {
  Database db = MakeEmpDb();
  ASSERT_TRUE(db.Assign("emp", Key("john"), "Salary", Span(0, 19),
                        Value::Int(10000))
                  .ok());
  // Close Salary at 10: stored history beyond the new ALS is clipped.
  ASSERT_TRUE(db.CloseAttribute("emp", "Salary", 10).ok());
  const Relation& rel = **db.Get("emp");
  EXPECT_EQ(rel.tuple(0).value(1).domain().ToString(), "{[0,9]}");
  // Reopen and verify assignability over the reopened region.
  ASSERT_TRUE(db.ReopenAttribute("emp", "Salary", Span(15, 19)).ok());
  ASSERT_TRUE(
      db.Assign("emp", Key("john"), "Salary", Span(15, 19), Value::Int(7))
          .ok());
  EXPECT_EQ((**db.Get("emp")).tuple(0).ValueAt(1, 16), Value::Int(7));
  // The closed region [10,14] stays unassignable.
  EXPECT_FALSE(
      db.Assign("emp", Key("john"), "Salary", Span(11, 12), Value::Int(7))
          .ok());
}

TEST(DatabaseTest, AddAttribute) {
  Database db = MakeEmpDb();
  ASSERT_TRUE(db.AddAttribute("emp", {"Dept", DomainType::kString, kFull,
                                      InterpolationKind::kStepwise})
                  .ok());
  const Relation& rel = **db.Get("emp");
  EXPECT_EQ(rel.scheme()->arity(), 3u);
  ASSERT_TRUE(db.Assign("emp", Key("john"), "Dept", Span(0, 19),
                        Value::String("tools"))
                  .ok());
  EXPECT_EQ((**db.Get("emp")).tuple(0).ValueAt(2, 5),
            Value::String("tools"));
}

TEST(DatabaseTest, SnapshotRoundTrip) {
  Database db = MakeEmpDb();
  ASSERT_TRUE(db.CreateRelation(
                    "dept",
                    {{"DName", DomainType::kString, kFull,
                      InterpolationKind::kDiscrete}},
                    {"DName"})
                  .ok());
  ASSERT_TRUE(db.RegisterForeignKey("emp", {"Name"}, "emp").ok());
  ASSERT_TRUE(db.CreateLifespanIndex("emp").ok());
  ASSERT_TRUE(db.CreateValueIndex("emp", "Salary").ok());
  TempDir dir("database_test");
  const std::string path = dir.path() + "/emp.hrdm";
  ASSERT_TRUE(WriteSnapshotFile(path, db, /*durable=*/false).ok());
  auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ToString(), db.ToString());
  EXPECT_EQ(loaded->CurrentVersion()->fks.size(), 1u);
  // The envelope keeps the index registrations and rebuilds their data.
  const auto indexes = loaded->catalog().Indexes("emp");
  ASSERT_TRUE(indexes.has_value());
  EXPECT_TRUE(indexes->lifespan);
  EXPECT_EQ(indexes->value_attrs, std::vector<std::string>{"Salary"});
  EXPECT_NE(loaded->indexes("emp"), nullptr);
  EXPECT_FALSE(loaded->catalog().Indexes("dept").has_value());
}

TEST(DatabaseTest, DecodeRejectsGarbage) {
  auto bad = Database::DecodeSnapshot("not a snapshot");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace hrdm::storage
