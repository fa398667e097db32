// Randomized DML integration test ("fuzz-lite"): long random sequences of
// storage-engine operations must (a) never crash, (b) keep every relation
// well-formed after every batch, (c) leave the write-ahead log replayable
// into a byte-identical database — the crash-recovery guarantee — and
// (d) keep every access-path index (storage/index.h) exact: index-scan
// plans must return tuple-for-tuple the same relations as full-scan plans
// after any mutation history (the IndexDifferentialFuzzTest suite runs
// that differential over 100 independent random sequences).

#include <gtest/gtest.h>

#include "constraints/constraints.h"
#include "query/executor.h"
#include "query/plan.h"
#include "storage/changelog.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"
#include "storage_test_util.h"
#include "test_seeds.h"
#include "util/random.h"

namespace hrdm::storage {
namespace {

using hrdm::storage::testing::TempDir;

constexpr TimePoint kHorizon = 120;
constexpr char kSeedEnv[] = "HRDM_DML_FUZZ_SEEDS";
constexpr char kIndexSeedEnv[] = "HRDM_INDEX_FUZZ_SEEDS";

/// Evaluates `expr` against `db` with every access path forced in turn and
/// asserts the answers are identical as sets. The full scan is the
/// reference; value/lifespan probes that are not eligible for `expr` fall
/// back to the scan, so forcing both is always safe.
void ExpectIndexScanParity(const Database& db, const query::ExprPtr& expr) {
  auto eval = [&db, &expr](std::optional<query::AccessPath> force)
      -> Result<Relation> {
    const auto pin = db.CurrentVersion();
    query::PlanOptions options = query::VersionPlanOptions(*pin);
    options.force_access_path = force;
    HRDM_ASSIGN_OR_RETURN(
        query::Plan plan,
        query::Plan::Lower(expr, query::VersionResolver(*pin), options));
    return plan.Drain();
  };
  auto full = eval(query::AccessPath::kFullScan);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  for (query::AccessPath path :
       {query::AccessPath::kValueIndex, query::AccessPath::kLifespanIndex}) {
    auto indexed = eval(path);
    ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
    EXPECT_TRUE(full->EqualsAsSet(*indexed))
        << expr->ToString() << " diverges under "
        << testing::AccessPathName(path) << "\nfull scan:\n"
        << full->ToString() << "\nindex scan:\n"
        << indexed->ToString();
  }
}

/// A batch of index-vs-scan differential probes: point equalities on both
/// the int and string indexed attributes (hit and miss values) and a
/// random TIME-SLICE / windowed SELECT-IF window.
void CheckIndexDifferential(const Database& db, Rng* rng) {
  const TimePoint b = rng->Uniform(0, kHorizon - 1);
  const Lifespan window = Span(b, std::min<TimePoint>(kHorizon - 1,
                                                      b + rng->Uniform(0, 30)));
  const auto x_pred = Predicate::AttrConst("X", CompareOp::kEq,
                                           Value::Int(rng->Uniform(0, 99)));
  const auto y_pred = Predicate::AttrConst(
      "Y", CompareOp::kEq,
      rng->Chance(0.5) ? Value::String(rng->Identifier(4))
                       : Value::String("miss"));
  const query::ExprPtr queries[] = {
      query::SelectIfE(query::Rel("obj"), x_pred, Quantifier::kExists),
      query::SelectWhenE(query::Rel("obj"), x_pred),
      query::SelectIfE(query::Rel("obj"), y_pred, Quantifier::kExists),
      query::TimeSliceE(query::Rel("obj"), query::LsLiteral(window)),
      query::SelectIfE(query::Rel("obj"), x_pred, Quantifier::kExists,
                       query::LsLiteral(window)),
  };
  for (const query::ExprPtr& q : queries) {
    ExpectIndexScanParity(db, q);
  }
}

class DmlFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DmlFuzzTest, RandomOperationSequences) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, GetParam()));
  Rng rng(GetParam());
  // The engine's WAL is the history replayed below; fsync adds nothing to
  // a replay-equivalence check.
  TempDir dir("dml_fuzz");
  StorageEngine::Options off;
  off.fsync = FsyncPolicy::kOff;
  auto engine = StorageEngine::Open(dir.path(), off);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Lifespan full = Span(0, kHorizon - 1);
  ASSERT_TRUE(
      engine
          ->CreateRelation(
              "obj",
              {{"Id", DomainType::kString, full,
                InterpolationKind::kDiscrete},
               {"X", DomainType::kInt, full, InterpolationKind::kStepwise},
               {"Y", DomainType::kString, full,
                InterpolationKind::kStepwise}},
              {"Id"})
          .ok());
  // Index everything indexable: every mutation below must keep the indexes
  // exact (checked in the periodic audit). Index DDL goes through the
  // logged path too — replay rebuilds registrations and index data, while
  // the snapshot image compared below stays registration-free, so the
  // byte-equality assertion is unaffected.
  ASSERT_TRUE(engine->CreateLifespanIndex("obj").ok());
  ASSERT_TRUE(engine->CreateValueIndex("obj", "X").ok());
  ASSERT_TRUE(engine->CreateValueIndex("obj", "Y").ok());
  auto key_of = [](int i) {
    return std::vector<Value>{Value::String("o" + std::to_string(i))};
  };

  int inserted = 0;
  int applied_ops = 0;
  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.Uniform(0, 9));
    Status s;
    switch (op) {
      case 0:
      case 1: {  // insert a fresh object
        auto scheme = *engine->db().catalog().Get("obj");
        const TimePoint b = rng.Uniform(0, kHorizon - 2);
        const TimePoint e = rng.Uniform(b, kHorizon - 1);
        Tuple::Builder builder(scheme, Span(b, e));
        builder.SetConstant("Id",
                            Value::String("o" + std::to_string(inserted)));
        builder.SetAt("X", b, Value::Int(rng.Uniform(0, 99)));
        auto t = std::move(builder).Build();
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        s = engine->Insert("obj", *std::move(t));
        if (s.ok()) ++inserted;
        break;
      }
      case 2:
      case 3: {  // assign over a random span (may legitimately fail)
        if (inserted == 0) continue;
        const int target = static_cast<int>(rng.Uniform(0, inserted - 1));
        const TimePoint b = rng.Uniform(0, kHorizon - 1);
        const TimePoint e =
            std::min<TimePoint>(kHorizon - 1, b + rng.Uniform(0, 20));
        s = engine->Assign("obj", key_of(target),
                           rng.Chance(0.5) ? "X" : "Y", Span(b, e),
                           rng.Chance(0.5)
                               ? Value::Int(rng.Uniform(0, 99))
                               : Value::String(rng.Identifier(4)));
        break;
      }
      case 4: {  // end a lifespan
        if (inserted == 0) continue;
        const int target = static_cast<int>(rng.Uniform(0, inserted - 1));
        s = engine->EndLifespan("obj", key_of(target),
                                rng.Uniform(1, kHorizon - 1));
        break;
      }
      case 5: {  // reincarnate
        if (inserted == 0) continue;
        const int target = static_cast<int>(rng.Uniform(0, inserted - 1));
        const TimePoint b = rng.Uniform(0, kHorizon - 2);
        s = engine->Reincarnate("obj", key_of(target),
                                Span(b, rng.Uniform(b, kHorizon - 1)));
        break;
      }
      case 6: {  // close + reopen a non-key attribute (schema evolution)
        s = engine->CloseAttribute("obj", "Y",
                                   rng.Uniform(1, kHorizon - 1));
        if (s.ok()) {
          const TimePoint b = rng.Uniform(0, kHorizon - 2);
          s = engine->ReopenAttribute("obj", "Y",
                                      Span(b, rng.Uniform(b, kHorizon - 1)));
        }
        break;
      }
      case 7: {  // add a new attribute occasionally
        if (rng.Chance(0.9)) continue;
        s = engine->AddAttribute(
            "obj", {"Z" + std::to_string(step), DomainType::kInt, full,
                    InterpolationKind::kStepwise});
        break;
      }
      default: {  // point assign
        if (inserted == 0) continue;
        const int target = static_cast<int>(rng.Uniform(0, inserted - 1));
        s = engine->Assign("obj", key_of(target), "X",
                           Lifespan::Point(rng.Uniform(0, kHorizon - 1)),
                           Value::Int(rng.Uniform(0, 99)));
        break;
      }
    }
    // Mutations either succeed or fail with a *clean* status; a value-level
    // type error or internal error would indicate a bug.
    if (!s.ok()) {
      EXPECT_NE(s.code(), StatusCode::kInternal) << s.ToString();
      EXPECT_NE(s.code(), StatusCode::kCorruption) << s.ToString();
    } else {
      ++applied_ops;
    }

    if (step % 80 == 79) {
      // Periodic invariant audit.
      auto rel = engine->db().Get("obj");
      ASSERT_TRUE(rel.ok());
      auto violations = CheckRelationWellFormed(**rel);
      ASSERT_TRUE(violations.ok());
      EXPECT_TRUE(violations->empty())
          << "step " << step << ": " << violations->front().description;
      CheckIndexDifferential(engine->db(), &rng);
    }
  }
  ASSERT_GT(applied_ops, 50);  // the sequence actually exercised the engine

  // Crash-recovery equivalence: replaying the log reproduces the database
  // byte-for-byte.
  auto wal = ReadWal(engine->wal_path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  Database replayed;
  for (const std::string& record : wal->records) {
    ASSERT_TRUE(ApplyLogRecord(record, &replayed).ok());
  }
  EXPECT_EQ(replayed.EncodeSnapshot(), engine->db().EncodeSnapshot());

  // And the snapshot itself round-trips.
  auto decoded = Database::DecodeSnapshot(engine->db().EncodeSnapshot());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->EncodeSnapshot(), engine->db().EncodeSnapshot());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DmlFuzzTest,
    ::testing::ValuesIn(hrdm::testing::SeedsFromEnv(
        kSeedEnv, {1u, 2u, 3u, 4u, 5u, 99u, 777u, 31415u})));

// --- index-vs-scan differential fuzz -----------------------------------------
//
// Shorter sequences, many more of them: 100 independent random DML
// histories (insert / assign / reassignment inside a lifespan / death /
// reincarnation / schema evolution), each asserting after every batch that
// index-backed plans return exactly the full-scan answer. Edge cases the
// mix is tuned to hit: reincarnation (fragmented lifespans in the interval
// index), value reassignment (constant tuples migrating to the varying
// list), and lifespans truncated to empty (tuple removal).

class IndexDifferentialFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexDifferentialFuzzTest, IndexScansMatchFullScans) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kIndexSeedEnv, GetParam()));
  Rng rng(GetParam());
  Database db;
  const Lifespan full = Span(0, kHorizon - 1);
  ASSERT_TRUE(db.CreateRelation(
                    "obj",
                    {{"Id", DomainType::kString, full,
                      InterpolationKind::kDiscrete},
                     {"X", DomainType::kInt, full,
                      InterpolationKind::kStepwise},
                     {"Y", DomainType::kString, full,
                      InterpolationKind::kStepwise}},
                    {"Id"})
                  .ok());
  ASSERT_TRUE(db.CreateLifespanIndex("obj").ok());
  ASSERT_TRUE(db.CreateValueIndex("obj", "X").ok());
  ASSERT_TRUE(db.CreateValueIndex("obj", "Y").ok());
  auto key_of = [](int i) {
    return std::vector<Value>{Value::String("o" + std::to_string(i))};
  };

  int inserted = 0;
  for (int step = 0; step < 120; ++step) {
    const int op = static_cast<int>(rng.Uniform(0, 9));
    Status s;
    switch (op) {
      case 0:
      case 1:
      case 2: {  // birth
        auto scheme = *db.catalog().Get("obj");
        const TimePoint b = rng.Uniform(0, kHorizon - 2);
        Tuple::Builder builder(scheme, Span(b, rng.Uniform(b, kHorizon - 1)));
        builder.SetConstant("Id",
                            Value::String("o" + std::to_string(inserted)));
        // Y is left unset at birth (its ALS may have been evolved away from
        // this chronon); Y values arrive via Assign.
        builder.SetAt("X", b, Value::Int(rng.Uniform(0, 99)));
        auto t = std::move(builder).Build();
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        s = db.Insert("obj", *std::move(t));
        if (s.ok()) ++inserted;
        break;
      }
      case 3:
      case 4: {  // reassignment inside a lifespan (may legitimately fail)
        if (inserted == 0) continue;
        const int target = static_cast<int>(rng.Uniform(0, inserted - 1));
        const TimePoint b = rng.Uniform(0, kHorizon - 1);
        const bool int_attr = rng.Chance(0.5);
        s = db.Assign("obj", key_of(target), int_attr ? "X" : "Y",
                      Span(b, std::min<TimePoint>(kHorizon - 1,
                                                  b + rng.Uniform(0, 15))),
                      int_attr ? Value::Int(rng.Uniform(0, 99))
                               : Value::String(rng.Identifier(4)));
        break;
      }
      case 5:
      case 6: {  // death (often truncating to nothing: removal)
        if (inserted == 0) continue;
        s = db.EndLifespan("obj",
                           key_of(static_cast<int>(rng.Uniform(0, inserted - 1))),
                           rng.Uniform(1, kHorizon - 1));
        break;
      }
      case 7: {  // reincarnation (fragmented lifespans)
        if (inserted == 0) continue;
        const TimePoint b = rng.Uniform(0, kHorizon - 2);
        s = db.Reincarnate("obj",
                           key_of(static_cast<int>(rng.Uniform(0, inserted - 1))),
                           Span(b, rng.Uniform(b, kHorizon - 1)));
        break;
      }
      default: {  // occasional schema evolution (forces index rebuilds)
        if (rng.Chance(0.8)) continue;
        s = db.CloseAttribute("obj", "Y", rng.Uniform(1, kHorizon - 1));
        if (s.ok()) {
          const TimePoint b = rng.Uniform(0, kHorizon - 2);
          s = db.ReopenAttribute("obj", "Y",
                                 Span(b, rng.Uniform(b, kHorizon - 1)));
        }
        break;
      }
    }
    if (!s.ok()) {
      EXPECT_NE(s.code(), StatusCode::kInternal) << s.ToString();
      EXPECT_NE(s.code(), StatusCode::kCorruption) << s.ToString();
    }
    if (step % 30 == 29) {
      CheckIndexDifferential(db, &rng);
    }
  }
  CheckIndexDifferential(db, &rng);
}

/// 100 independent sequences by default (the differential acceptance bar);
/// override with HRDM_INDEX_FUZZ_SEEDS=<comma-separated> to replay one.
std::vector<uint64_t> IndexFuzzSeeds() {
  std::vector<uint64_t> defaults;
  for (uint64_t s = 1; s <= 100; ++s) defaults.push_back(s);
  return hrdm::testing::SeedsFromEnv(kIndexSeedEnv, std::move(defaults));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDifferentialFuzzTest,
                         ::testing::ValuesIn(IndexFuzzSeeds()));

}  // namespace
}  // namespace hrdm::storage
