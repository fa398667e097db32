// Storage-level access-path indexes (storage/index.h) and their use by the
// planner: unit tests of the lifespan interval index and the value equality
// index, incremental maintenance through every Database DML mutation
// (birth, death, reincarnation, assignment, schema evolution), access-path
// selection (query/optimizer.h), and end-to-end index-scan vs full-scan
// result equality with PlanStats recording the chosen path.

#include "storage/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>

#include "query/executor.h"
#include "query/optimizer.h"
#include "query/plan.h"
#include "storage/database.h"
#include "storage_test_util.h"
#include "test_seeds.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm::storage {
namespace {

using query::AccessPath;
using query::Plan;
using query::PlanOptions;
using query::VersionPlanOptions;
using query::VersionResolver;

constexpr TimePoint kHorizon = 100;

SchemePtr ObjScheme() {
  const Lifespan full = Span(0, kHorizon - 1);
  return *RelationScheme::Make(
      "obj", {{"Id", DomainType::kString, full, InterpolationKind::kDiscrete},
              {"X", DomainType::kInt, full, InterpolationKind::kStepwise},
              {"Y", DomainType::kString, full, InterpolationKind::kStepwise}},
      {"Id"});
}

Tuple MakeObj(const SchemePtr& scheme, int id, const Lifespan& l, int x) {
  Tuple::Builder b(scheme, l);
  b.SetConstant("Id", Value::String("o" + std::to_string(id)));
  b.SetAt("X", l.Min(), Value::Int(x));
  b.SetAt("Y", l.Min(), Value::String("y" + std::to_string(x)));
  return *std::move(b).Build();
}

/// Reference answer for a lifespan probe: naive overlap scan.
std::vector<const Tuple*> NaiveAlive(const Relation& rel,
                                     const Lifespan& window) {
  std::vector<const Tuple*> out;
  for (const TuplePtr& t : rel.tuple_ptrs()) {
    if (!t->lifespan().Intersect(window).empty()) out.push_back(t.get());
  }
  return out;
}

bool SameTupleSet(const std::vector<TuplePtr>& got,
                  const std::vector<const Tuple*>& want) {
  if (got.size() != want.size()) return false;
  for (const TuplePtr& t : got) {
    if (std::find(want.begin(), want.end(), t.get()) == want.end()) {
      return false;
    }
  }
  return true;
}

// --- LifespanIndex -----------------------------------------------------------

TEST(LifespanIndexTest, ProbeMatchesNaiveOverlapScan) {
  SchemePtr scheme = ObjScheme();
  Relation rel(scheme);
  ASSERT_TRUE(rel.Insert(MakeObj(scheme, 0, Span(0, 9), 1)).ok());
  ASSERT_TRUE(rel.Insert(MakeObj(scheme, 1, Span(5, 20), 2)).ok());
  ASSERT_TRUE(rel.Insert(MakeObj(scheme, 2, Span(30, 40), 3)).ok());
  // A fragmented (reincarnation-shaped) lifespan.
  ASSERT_TRUE(
      rel.Insert(MakeObj(scheme, 3, Span(2, 4).Union(Span(50, 60)), 4)).ok());

  LifespanIndex index;
  index.Rebuild(rel);
  EXPECT_EQ(index.entry_count(), 5u);  // 3 single intervals + 1 fragmented

  for (const Lifespan& w :
       {Span(0, 3), Span(10, 29), Span(41, 49), Span(55, 99),
        Lifespan::Point(5), Span(0, kHorizon - 1), Lifespan()}) {
    EXPECT_TRUE(SameTupleSet(index.Probe(w), NaiveAlive(rel, w)))
        << "window " << w.ToString();
  }
}

TEST(LifespanIndexTest, IncrementalAddRemoveTracksRebuild) {
  SchemePtr scheme = ObjScheme();
  Relation rel(scheme);
  Rng rng(7);
  LifespanIndex incremental;
  for (int i = 0; i < 40; ++i) {
    const TimePoint b = rng.Uniform(0, kHorizon - 10);
    ASSERT_TRUE(
        rel.Insert(MakeObj(scheme, i, Span(b, b + rng.Uniform(0, 9)), i)).ok());
    incremental.Add(rel.tuple_ptr(rel.size() - 1));
  }
  // Remove a third of them.
  for (int i = 0; i < 40; i += 3) {
    incremental.Remove(rel.tuple_ptr(i));
  }
  Relation remaining(scheme);
  for (size_t i = 0; i < rel.size(); ++i) {
    if (i % 3 != 0) {
      ASSERT_TRUE(remaining.Insert(rel.tuple_ptr(i)).ok());
    }
  }
  for (TimePoint b = 0; b < kHorizon; b += 11) {
    const Lifespan w = Span(b, b + 6);
    EXPECT_TRUE(SameTupleSet(incremental.Probe(w), NaiveAlive(remaining, w)))
        << "window " << w.ToString();
  }
}

constexpr char kLifespanIndexSeedEnv[] = "HRDM_LIFESPAN_INDEX_SEEDS";

/// A random lifespan of one to three disjoint intervals inside the horizon.
Lifespan RandomLifespan(Rng* rng) {
  Lifespan l;
  const int64_t pieces = rng->Uniform(1, 3);
  for (int64_t p = 0; p < pieces; ++p) {
    const TimePoint b = rng->Uniform(0, kHorizon - 1);
    l = l.Union(Span(b, std::min<TimePoint>(kHorizon - 1,
                                            b + rng->Uniform(0, 12))));
  }
  return l;
}

/// A random probe window: one or two intervals, sometimes a point.
Lifespan RandomWindow(Rng* rng) {
  const TimePoint b = rng->Uniform(0, kHorizon - 1);
  Lifespan w = rng->Chance(0.2) ? Lifespan::Point(b)
                                : Span(b, std::min<TimePoint>(
                                              kHorizon - 1,
                                              b + rng->Uniform(0, 20)));
  if (rng->Chance(0.3)) {
    w = w.Union(Lifespan::Point(rng->Uniform(0, kHorizon - 1)));
  }
  return w;
}

// Long random Add / Remove / Rebuild histories against the naive overlap
// scan. The phases grow the index (binary-counter merges), churn it
// (tombstones, compaction of half-dead runs, merges that drop tombstones),
// shrink it to nothing (every run purged) and rebuild it from a relation;
// a copy taken mid-history must keep answering as of the copy.
TEST(LifespanIndexTest, RandomHistoriesMatchNaiveOverlapScan) {
  for (uint64_t seed : hrdm::testing::SeedsFromEnv(kLifespanIndexSeedEnv,
                                                   {1, 2, 3, 4})) {
    SCOPED_TRACE(hrdm::testing::SeedTrace(kLifespanIndexSeedEnv, seed));
    SchemePtr scheme = ObjScheme();
    Rng rng(seed);
    LifespanIndex index;
    std::vector<TuplePtr> live;
    int next_id = 0;
    bool merged_on_add = false;
    bool compacted_on_remove = false;

    auto live_relation = [&] {
      Relation rel(scheme);
      for (const TuplePtr& t : live) EXPECT_TRUE(rel.Insert(t).ok());
      return rel;
    };
    auto check = [&](const std::string& step) {
      const Relation rel = live_relation();
      size_t entries = 0;
      for (const TuplePtr& t : live) entries += t->lifespan().IntervalCount();
      ASSERT_EQ(index.entry_count(), entries) << step;
      // O(log n) runs: size classes strictly decrease from the front.
      ASSERT_LE(index.run_count(),
                static_cast<size_t>(2 + std::bit_width(entries)))
          << step;
      for (int probe = 0; probe < 3; ++probe) {
        const Lifespan w = RandomWindow(&rng);
        ASSERT_TRUE(SameTupleSet(index.Probe(w), NaiveAlive(rel, w)))
            << step << ", window " << w.ToString();
      }
    };
    auto add = [&] {
      const Lifespan l = RandomLifespan(&rng);
      live.push_back(std::make_shared<const Tuple>(
          MakeObj(scheme, next_id++, l, static_cast<int>(rng.Uniform(0, 9)))));
      const size_t runs = index.run_count();
      index.Add(live.back());
      merged_on_add |= index.run_count() <= runs;
    };
    auto remove = [&] {
      if (live.empty()) return;
      const size_t i = rng.Index(live.size());
      const size_t runs = index.run_count();
      index.Remove(live[i]);
      // Only a compacted (more than half dead) run can shrink the count.
      compacted_on_remove |= index.run_count() < runs;
      live.erase(live.begin() + static_cast<ptrdiff_t>(i));
    };

    // Phase 1: growth.
    for (int step = 0; step < 300; ++step) {
      add();
      ASSERT_NO_FATAL_FAILURE(check("grow " + std::to_string(step)));
    }
    // Phase 2: churn, with a frozen copy taken part-way.
    std::optional<LifespanIndex> frozen;
    std::vector<std::pair<Lifespan, std::vector<TuplePtr>>> frozen_answers;
    for (int step = 0; step < 600; ++step) {
      const double roll = rng.NextDouble();
      if (roll < 0.45) {
        add();
      } else if (roll < 0.9) {
        remove();
      } else if (roll < 0.97) {
        // Remove + re-add of a fresh object: the storage engine's replace.
        remove();
        add();
      } else {
        // Removing a tuple that was never added is a no-op.
        index.Remove(std::make_shared<const Tuple>(
            MakeObj(scheme, -1, RandomLifespan(&rng), 0)));
      }
      if (step == 200) {
        frozen = index;
        for (int w = 0; w < 8; ++w) {
          const Lifespan window = RandomWindow(&rng);
          frozen_answers.emplace_back(window, frozen->Probe(window));
        }
      }
      ASSERT_NO_FATAL_FAILURE(check("churn " + std::to_string(step)));
    }
    // Phase 3: shrink to empty; every run is purged.
    while (!live.empty()) {
      remove();
      ASSERT_NO_FATAL_FAILURE(
          check("shrink, " + std::to_string(live.size()) + " left"));
    }
    EXPECT_EQ(index.run_count(), 0u);
    // Phase 4: regrow, rebuild into one run, and churn on top of it.
    for (int step = 0; step < 200; ++step) add();
    index.Rebuild(live_relation());
    EXPECT_EQ(index.run_count(), 1u);
    ASSERT_NO_FATAL_FAILURE(check("rebuild"));
    for (int step = 0; step < 300; ++step) {
      rng.Chance(0.6) ? remove() : add();
      ASSERT_NO_FATAL_FAILURE(
          check("after rebuild " + std::to_string(step)));
    }

    EXPECT_TRUE(merged_on_add);
    EXPECT_TRUE(compacted_on_remove);
    ASSERT_TRUE(frozen.has_value());
    for (const auto& [window, answer] : frozen_answers) {
      EXPECT_EQ(frozen->Probe(window), answer) << window.ToString();
    }
  }
}

// --- ValueIndex --------------------------------------------------------------

TEST(ValueIndexTest, ConstantTuplesBucketVaryingTuplesFallBack) {
  SchemePtr scheme = ObjScheme();
  Relation rel(scheme);
  ASSERT_TRUE(rel.Insert(MakeObj(scheme, 0, Span(0, 9), 5)).ok());
  ASSERT_TRUE(rel.Insert(MakeObj(scheme, 1, Span(0, 9), 5)).ok());
  ASSERT_TRUE(rel.Insert(MakeObj(scheme, 2, Span(0, 9), 8)).ok());
  {
    // X varies over the lifespan: must be returned by *every* probe.
    Tuple::Builder b(scheme, Span(0, 9));
    b.SetConstant("Id", Value::String("vary"));
    b.SetAt("X", 0, Value::Int(5));
    b.SetAt("X", 6, Value::Int(8));
    b.SetAt("Y", 0, Value::String("y"));
    ASSERT_TRUE(rel.Insert(*std::move(b).Build()).ok());
  }

  ValueIndex index(*scheme->RequireIndex("X"));
  index.Rebuild(rel);
  EXPECT_EQ(index.entry_count(), 4u);
  // A value no constant tuple holds reaches the fallback list alone: it
  // holds exactly the varying tuple.
  const std::vector<TuplePtr> fallback = index.Probe(Value::Int(42));
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_EQ(fallback[0]->KeyValues(),
            std::vector<Value>{Value::String("vary")});

  EXPECT_EQ(index.Probe(Value::Int(5)).size(), 3u);   // two constants + vary
  EXPECT_EQ(index.Probe(Value::Int(8)).size(), 2u);   // one constant + vary
  // Numeric digests agree across int/double (the hash-join convention).
  EXPECT_EQ(index.Probe(Value::Double(5.0)).size(), 3u);
}

TEST(ValueIndexTest, RemoveAndReplaceKeepBucketsExact) {
  SchemePtr scheme = ObjScheme();
  Relation rel(scheme);
  ASSERT_TRUE(rel.Insert(MakeObj(scheme, 0, Span(0, 9), 5)).ok());
  ASSERT_TRUE(rel.Insert(MakeObj(scheme, 1, Span(0, 9), 5)).ok());
  ValueIndex index(*scheme->RequireIndex("X"));
  index.Rebuild(rel);
  index.Remove(rel.tuple_ptr(0));
  EXPECT_EQ(index.entry_count(), 1u);
  EXPECT_EQ(index.Probe(Value::Int(5)).size(), 1u);
  index.Remove(rel.tuple_ptr(1));
  EXPECT_EQ(index.entry_count(), 0u);
  EXPECT_TRUE(index.Probe(Value::Int(5)).empty());
  // A re-added tuple lands in a bucket again.
  index.Add(rel.tuple_ptr(1));
  EXPECT_EQ(index.entry_count(), 1u);
  EXPECT_EQ(index.Probe(Value::Int(5)).size(), 1u);
}

TEST(ValueIndexTest, CopyIsUnchangedByLaterMaintenance) {
  // A commit after a reader pin copies the index and maintains the copy;
  // the pinned original must keep every bucket, in order.
  SchemePtr scheme = ObjScheme();
  Relation rel(scheme);
  for (int id = 0; id < 200; ++id) {
    ASSERT_TRUE(rel.Insert(MakeObj(scheme, id, Span(0, 9), id % 7)).ok());
  }
  ValueIndex index(*scheme->RequireIndex("X"));
  index.Rebuild(rel);
  std::vector<std::vector<TuplePtr>> before;
  for (int x = 0; x < 8; ++x) before.push_back(index.Probe(Value::Int(x)));

  const ValueIndex pinned = index;
  for (size_t i = 0; i < rel.size(); i += 3) index.Remove(rel.tuple_ptr(i));
  const TuplePtr added =
      std::make_shared<const Tuple>(MakeObj(scheme, 500, Span(0, 9), 7));
  index.Add(added);
  EXPECT_EQ(index.Probe(Value::Int(7)), std::vector<TuplePtr>{added});
  EXPECT_EQ(index.entry_count(), 200u - 67u + 1u);

  EXPECT_EQ(pinned.entry_count(), 200u);
  for (int x = 0; x < 8; ++x) {
    EXPECT_EQ(pinned.Probe(Value::Int(x)), before[static_cast<size_t>(x)])
        << "x = " << x;
  }
  index.Rebuild(Relation(scheme));
  EXPECT_EQ(index.entry_count(), 0u);
  EXPECT_EQ(pinned.Probe(Value::Int(3)), before[3]);
}

// --- access-path choice ------------------------------------------------------

query::IndexCatalogFn TestIndexCatalog(bool lifespan,
                                       std::vector<std::string> attrs) {
  return [lifespan, attrs](std::string_view relation)
             -> std::optional<query::IndexInfo> {
    if (relation != "obj") return std::nullopt;
    return query::IndexInfo{lifespan, attrs};
  };
}

query::CardinalityFn TestCardinality(size_t n) {
  return [n](std::string_view) { return std::optional<size_t>(n); };
}

TEST(ChooseAccessPathTest, SargableSelectIfPicksValueIndex) {
  auto expr = query::SelectIfE(
      query::Rel("obj"),
      Predicate::AttrConst("X", CompareOp::kEq, Value::Int(5)),
      Quantifier::kExists);
  auto choice = query::ChooseAccessPath(*expr, TestIndexCatalog(false, {"X"}),
                                        TestCardinality(10000));
  EXPECT_EQ(choice.path, AccessPath::kValueIndex);
  EXPECT_TRUE(choice.value_eligible);
  EXPECT_EQ(choice.attr, "X");
  ASSERT_TRUE(choice.key.has_value());
  EXPECT_EQ(choice.key->ToString(), Value::Int(5).ToString());
}

TEST(ChooseAccessPathTest, ConjunctionFindsTheIndexedEqualityConjunct) {
  auto pred = Predicate::And(
      {Predicate::AttrConst("Y", CompareOp::kLt, Value::String("q")),
       Predicate::AttrConst("X", CompareOp::kEq, Value::Int(3))});
  auto expr = query::SelectWhenE(query::Rel("obj"), pred);
  auto choice = query::ChooseAccessPath(*expr, TestIndexCatalog(false, {"X"}),
                                        TestCardinality(10000));
  EXPECT_EQ(choice.path, AccessPath::kValueIndex);
  EXPECT_EQ(choice.attr, "X");
}

TEST(ChooseAccessPathTest, ForallAndNonEqualityStayOnFullScan) {
  // forall: vacuous truth on empty quantification domains makes candidate
  // pruning unsound.
  auto forall = query::SelectIfE(
      query::Rel("obj"),
      Predicate::AttrConst("X", CompareOp::kEq, Value::Int(5)),
      Quantifier::kForall);
  EXPECT_EQ(query::ChooseAccessPath(*forall, TestIndexCatalog(true, {"X"}),
                                    TestCardinality(10000))
                .path,
            AccessPath::kFullScan);
  // Inequalities are not sargable for an equality index.
  auto range = query::SelectIfE(
      query::Rel("obj"),
      Predicate::AttrConst("X", CompareOp::kLt, Value::Int(5)),
      Quantifier::kExists);
  auto choice = query::ChooseAccessPath(*range, TestIndexCatalog(false, {"X"}),
                                        TestCardinality(10000));
  EXPECT_EQ(choice.path, AccessPath::kFullScan);
  EXPECT_FALSE(choice.value_eligible);
}

TEST(ChooseAccessPathTest, TimeSliceUsesLifespanIndexAboveThreshold) {
  auto expr =
      query::TimeSliceE(query::Rel("obj"), query::LsLiteral(Span(3, 9)));
  EXPECT_EQ(query::ChooseAccessPath(*expr, TestIndexCatalog(true, {}),
                                    TestCardinality(10000))
                .path,
            AccessPath::kLifespanIndex);
  // Small relations keep the scan (but stay eligible for the force hook).
  auto small = query::ChooseAccessPath(*expr, TestIndexCatalog(true, {}),
                                       TestCardinality(10));
  EXPECT_EQ(small.path, AccessPath::kFullScan);
  EXPECT_TRUE(small.lifespan_eligible);
  // No registration, no index path.
  EXPECT_EQ(query::ChooseAccessPath(*expr, TestIndexCatalog(false, {}),
                                    TestCardinality(10000))
                .path,
            AccessPath::kFullScan);
}

// --- database maintenance + end-to-end differential --------------------------

Result<Relation> EvalForced(const Database& db, const query::ExprPtr& expr,
                            std::optional<AccessPath> force) {
  const auto pin = db.CurrentVersion();
  PlanOptions options = VersionPlanOptions(*pin);
  options.force_access_path = force;
  HRDM_ASSIGN_OR_RETURN(Plan plan,
                        Plan::Lower(expr, VersionResolver(*pin), options));
  return plan.Drain();
}

/// Asserts index-forced evaluation matches the forced full scan for a
/// point-equality SELECT-IF/SELECT-WHEN and a TIME-SLICE window.
void ExpectIndexScanParity(const Database& db, int x_probe,
                           const Lifespan& window) {
  const auto pred =
      Predicate::AttrConst("X", CompareOp::kEq, Value::Int(x_probe));
  const query::ExprPtr queries[] = {
      query::SelectIfE(query::Rel("obj"), pred, Quantifier::kExists),
      query::SelectWhenE(query::Rel("obj"), pred),
      query::TimeSliceE(query::Rel("obj"), query::LsLiteral(window)),
      query::SelectIfE(query::Rel("obj"), pred, Quantifier::kExists,
                       query::LsLiteral(window)),
  };
  for (const query::ExprPtr& q : queries) {
    auto full = EvalForced(db, q, AccessPath::kFullScan);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    for (AccessPath path :
         {AccessPath::kValueIndex, AccessPath::kLifespanIndex}) {
      auto indexed = EvalForced(db, q, path);
      ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
      EXPECT_TRUE(full->EqualsAsSet(*indexed))
          << q->ToString() << " under " << testing::AccessPathName(path)
          << "\nfull:\n"
          << full->ToString() << "\nindexed:\n"
          << indexed->ToString();
    }
  }
}

TEST(DatabaseIndexTest, DmlMaintenanceKeepsIndexScansExact) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(ObjScheme()).ok());
  ASSERT_TRUE(db.CreateLifespanIndex("obj").ok());
  ASSERT_TRUE(db.CreateValueIndex("obj", "X").ok());
  SchemePtr scheme = *db.catalog().Get("obj");
  auto key = [](int i) {
    return std::vector<Value>{Value::String("o" + std::to_string(i))};
  };

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        db.Insert("obj", MakeObj(scheme, i, Span(i, i + 20), i % 4)).ok());
  }
  ExpectIndexScanParity(db, 2, Span(5, 8));

  // Value reassignment inside a lifespan: o1 becomes varying (leaves its
  // digest bucket for the fallback list).
  ASSERT_TRUE(db.Assign("obj", key(1), "X", Span(10, 15), Value::Int(7)).ok());
  ExpectIndexScanParity(db, 7, Span(10, 12));
  ExpectIndexScanParity(db, 1, Span(0, 9));

  // Death: truncation re-indexes; truncation to nothing removes entirely.
  ASSERT_TRUE(db.EndLifespan("obj", key(2), 10).ok());
  ASSERT_TRUE(db.EndLifespan("obj", key(3), 3).ok());  // 3's birth chronon
  ExpectIndexScanParity(db, 3, Span(0, kHorizon - 1));

  // Reincarnation: a second lifespan interval for o4.
  ASSERT_TRUE(db.Reincarnate("obj", key(4), Span(60, 70)).ok());
  ExpectIndexScanParity(db, 0, Span(62, 65));

  // Schema evolution rebinds every tuple; indexes must rebuild.
  ASSERT_TRUE(db.AddAttribute(
                    "obj", {"Z", DomainType::kInt, Span(0, kHorizon - 1),
                            InterpolationKind::kStepwise})
                  .ok());
  ExpectIndexScanParity(db, 2, Span(5, 25));
  ASSERT_TRUE(db.CloseAttribute("obj", "Y", 40).ok());
  ExpectIndexScanParity(db, 0, Span(30, 50));
}

// A pinned version's lifespan index shares its runs and tombstones with
// the versions after it; later commits must never write through them.
TEST(DatabaseIndexTest, PinnedVersionProbesSurviveLaterCommits) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(ObjScheme()).ok());
  ASSERT_TRUE(db.CreateLifespanIndex("obj").ok());
  SchemePtr scheme = *db.catalog().Get("obj");
  auto key = [](int i) {
    return std::vector<Value>{Value::String("o" + std::to_string(i))};
  };
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        db.Insert("obj", MakeObj(scheme, i, Span(i, i + 30), i % 5)).ok());
  }
  // Tombstones in the shared runs before the pin.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.AssignAt("obj", key(i), "X", i + 1, Value::Int(9)).ok());
  }

  const DatabaseVersionPtr pinned = db.CurrentVersion();
  const LifespanIndex& frozen = *pinned->IndexesOf("obj")->lifespan();
  std::vector<Lifespan> windows;
  for (TimePoint b = 0; b < kHorizon; b += 7) windows.push_back(Span(b, b + 3));
  windows.push_back(Span(0, kHorizon - 1));
  auto render = [&] {
    std::vector<std::string> out;
    for (const Lifespan& w : windows) {
      std::string line = w.ToString() + ":";
      for (const TuplePtr& t : frozen.Probe(w)) {
        line += " " + std::to_string(reinterpret_cast<uintptr_t>(t.get())) +
                "=" + t->ToString();
      }
      out.push_back(std::move(line));
    }
    return out;
  };
  const std::vector<std::string> before = render();
  const size_t entries_before = frozen.entry_count();

  ASSERT_TRUE(db.Insert("obj", MakeObj(scheme, 100, Span(3, 9), 1)).ok());
  for (int round = 0; round < 3; ++round) {
    // Enough assignments to tombstone more than half of every run and
    // cascade merges over the shared ones.
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(db.AssignAt("obj", key(i), "X", i + 2 + round,
                              Value::Int(round))
                      .ok());
    }
  }
  ASSERT_TRUE(db.EndLifespan("obj", key(10), 25).ok());
  ASSERT_TRUE(db.Reincarnate("obj", key(11), Span(70, 80)).ok());
  ASSERT_TRUE(db.EndLifespan("obj", key(12), 12).ok());  // erases o12
  ASSERT_FALSE(db.Get("obj").value()->FindByKey(key(12)).has_value());

  EXPECT_EQ(render(), before);
  EXPECT_EQ(frozen.entry_count(), entries_before);
  // The live index moved on and still answers exactly.
  const Relation& live = *db.Get("obj").value();
  const LifespanIndex& current = *db.indexes("obj")->lifespan();
  for (const Lifespan& w : windows) {
    EXPECT_TRUE(SameTupleSet(current.Probe(w), NaiveAlive(live, w)))
        << w.ToString();
  }
}

TEST(DatabaseIndexTest, IndexDdlValidation) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(ObjScheme()).ok());
  EXPECT_FALSE(db.CreateLifespanIndex("nope").ok());
  EXPECT_FALSE(db.CreateValueIndex("obj", "NoSuchAttr").ok());
  EXPECT_EQ(db.indexes("obj"), nullptr);
  ASSERT_TRUE(db.CreateValueIndex("obj", "X").ok());
  ASSERT_NE(db.indexes("obj"), nullptr);
  EXPECT_TRUE(db.indexes("obj")->value("X") != nullptr);
  EXPECT_TRUE(db.indexes("obj")->value("Y") == nullptr);
  ASSERT_TRUE(db.catalog().Indexes("obj").has_value());
  EXPECT_FALSE(db.catalog().Indexes("obj")->lifespan);
  // Dropping the relation drops registrations and data.
  ASSERT_TRUE(db.DropRelation("obj").ok());
  EXPECT_EQ(db.indexes("obj"), nullptr);
  EXPECT_FALSE(db.catalog().Indexes("obj").has_value());
}

TEST(DatabaseIndexTest, PlanStatsRecordTheChosenPath) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(ObjScheme()).ok());
  ASSERT_TRUE(db.CreateLifespanIndex("obj").ok());
  ASSERT_TRUE(db.CreateValueIndex("obj", "X").ok());
  SchemePtr scheme = *db.catalog().Get("obj");
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        db.Insert("obj", MakeObj(scheme, i, Span(i % 50, i % 50 + 5), i % 97))
            .ok());
  }

  // Above the threshold the chooser picks the value index on its own.
  auto selectif = query::SelectIfE(
      query::Rel("obj"), Predicate::AttrConst("X", CompareOp::kEq, Value::Int(7)),
      Quantifier::kExists);
  const auto pin = db.CurrentVersion();
  {
    auto plan = Plan::Lower(selectif, VersionResolver(*pin),
                            VersionPlanOptions(*pin));
    ASSERT_TRUE(plan.ok());
    auto rel = plan->Drain();
    ASSERT_TRUE(rel.ok());
    EXPECT_EQ(plan->stats().scans_value_index, 1u);
    EXPECT_EQ(plan->stats().scans_full, 0u);
    EXPECT_GT(plan->stats().index_candidates, 0u);
    EXPECT_LT(plan->stats().index_candidates, 200u);  // actually pruned
    EXPECT_EQ(plan->stats().tuples_scanned, plan->stats().index_candidates);
  }
  auto slice = query::TimeSliceE(query::Rel("obj"),
                                 query::LsLiteral(Span(10, 12)));
  {
    auto plan =
        Plan::Lower(slice, VersionResolver(*pin), VersionPlanOptions(*pin));
    ASSERT_TRUE(plan.ok());
    auto rel = plan->Drain();
    ASSERT_TRUE(rel.ok());
    EXPECT_EQ(plan->stats().scans_lifespan_index, 1u);
    EXPECT_LT(plan->stats().index_candidates, 200u);
  }
  // force_access_path = kFullScan disables indexes entirely.
  {
    PlanOptions options = VersionPlanOptions(*pin);
    options.force_access_path = AccessPath::kFullScan;
    auto plan = Plan::Lower(selectif, VersionResolver(*pin), options);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->stats().scans_full, 1u);
    EXPECT_EQ(plan->stats().scans_value_index, 0u);
  }
}

// --- hash joins over indexed relations ---------------------------------------

// The hash join drains and digests its build side even when that relation
// carries a value index on the join attribute: the answer must equal the
// full-scan baseline, varying join values included.
TEST(IndexedHashJoinTest, MatchesFullScanBaseline) {
  Rng rng(11);
  Database db;
  const Lifespan full = Span(0, kHorizon - 1);
  SchemePtr lft = *RelationScheme::Make(
      "lft", {{"LId", DomainType::kString, full, InterpolationKind::kDiscrete},
              {"LV", DomainType::kInt, full, InterpolationKind::kStepwise}},
      {"LId"});
  SchemePtr rgt = *RelationScheme::Make(
      "rgt", {{"RId", DomainType::kString, full, InterpolationKind::kDiscrete},
              {"RV", DomainType::kInt, full, InterpolationKind::kStepwise}},
      {"RId"});
  ASSERT_TRUE(db.CreateRelation(lft).ok());
  ASSERT_TRUE(db.CreateRelation(rgt).ok());
  for (int i = 0; i < 30; ++i) {
    Tuple::Builder lb(lft, Span(0, 40));
    lb.SetConstant("LId", Value::String("l" + std::to_string(i)));
    lb.SetAt("LV", 0, Value::Int(rng.Uniform(0, 9)));
    ASSERT_TRUE(db.Insert("lft", *std::move(lb).Build()).ok());
  }
  for (int i = 0; i < 10; ++i) {
    Tuple::Builder rb(rgt, Span(20, 60));
    rb.SetConstant("RId", Value::String("r" + std::to_string(i)));
    if (i % 3 == 0) {
      // Varying join values exercise the hash join's per-pair fallback.
      rb.SetAt("RV", 20, Value::Int(rng.Uniform(0, 9)));
      rb.SetAt("RV", 45, Value::Int(rng.Uniform(0, 9)));
    } else {
      rb.SetAt("RV", 20, Value::Int(rng.Uniform(0, 9)));
    }
    ASSERT_TRUE(db.Insert("rgt", *std::move(rb).Build()).ok());
  }
  // rgt is smaller: it is the build side. Index its join attribute.
  ASSERT_TRUE(db.CreateValueIndex("rgt", "RV").ok());

  auto join = query::ThetaJoinE(query::Rel("lft"), query::Rel("rgt"), "LV",
                                CompareOp::kEq, "RV");
  Result<Relation> baseline = EvalForced(db, join, AccessPath::kFullScan);
  ASSERT_TRUE(baseline.ok());

  const auto pin = db.CurrentVersion();
  auto plan =
      Plan::Lower(join, VersionResolver(*pin), VersionPlanOptions(*pin));
  ASSERT_TRUE(plan.ok());
  auto joined = plan->Drain();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(plan->stats().joins_hash, 1u);
  // Both inputs, the indexed build side included, are read by scan leaves.
  EXPECT_EQ(plan->stats().scans_full, 2u);
  EXPECT_TRUE(baseline->EqualsAsSet(*joined))
      << "baseline:\n"
      << baseline->ToString() << "\njoined:\n"
      << joined->ToString();
}

}  // namespace
}  // namespace hrdm::storage
