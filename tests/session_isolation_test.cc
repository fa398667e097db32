// Snapshot isolation of reader sessions (src/session/session.h), directed
// cases plus a single-threaded randomized suite.
//
// The contract under test: a session pins one DatabaseVersion at open, and
// every read through the session — ToString(), EncodeSnapshot(), HRQL
// queries — answers from that frozen version, byte-identically, for the
// session's whole lifetime, no matter what mutations commit meanwhile.
// The differential oracle is a private replica database decoded from the
// session's own EncodeSnapshot(): a query through the session must return
// exactly what the same query returns on the replica.
//
// The multi-threaded version of this property (N readers × M writers under
// TSan) lives in tests/concurrency_fuzz_test.cc.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/executor.h"
#include "session/session.h"
#include "storage/database.h"
#include "storage/storage_engine.h"
#include "tests/storage_test_util.h"
#include "tests/test_seeds.h"
#include "util/random.h"

namespace hrdm {
namespace {

using session::Session;
using storage::Database;
using storage::StorageEngine;
using storage::testing::TempDir;
using storage::testing::WorkloadRunner;

constexpr const char* kSeedEnv = "HRDM_SESSION_FUZZ_SEEDS";

// Queries exercising scan, timeslice, selection, projection and
// aggregation against the WorkloadRunner's "obj" relation. Some may fail
// cleanly after schema evolution (Y closed); failures must then be
// identical on both sides of the differential.
const std::vector<std::string>& QueryBattery() {
  static const std::vector<std::string> kQueries = {
      "obj",
      "timeslice(obj, {[5, 20]})",
      "select_if(obj, X > 50, exists)",
      "select_when(obj, X >= 0)",
      "project(obj, Id)",
      "aggregate(obj, count)",
  };
  return kQueries;
}

// One comparable string per query outcome: the full result rendering on
// success, the full status on failure.
std::string Outcome(const Result<Relation>& r) {
  return r.ok() ? "ok:\n" + r->ToString() : "error: " + r.status().ToString();
}

std::string SessionOutcome(const Session& s, const std::string& q) {
  return Outcome(s.Run(q));
}

std::string DatabaseOutcome(const Database& db, const std::string& q) {
  return Outcome(query::Run(q, *db.CurrentVersion()));
}

// Builds a small populated database: obj with three tuples + both indexes.
Database SeededDatabase() {
  Database db;
  WorkloadRunner workload(/*seed=*/1);
  for (int step = 0; step < 40; ++step) {
    // A step may fail by design (e.g. assigning to a dead object).
    (void)workload.Step(&db, step);
  }
  return db;
}

TEST(SessionIsolationTest, SnapshotFrozenAcrossDml) {
  Database db = SeededDatabase();
  Session s = Session::Open(db);
  const std::string frozen = s.ToString();
  const std::string frozen_image = s.EncodeSnapshot();
  ASSERT_FALSE(frozen.empty());

  // Keep mutating through the same workload stream; the session must not
  // observe any of it.
  WorkloadRunner workload(/*seed=*/2);
  for (int step = 0; step < 60; ++step) {
    (void)workload.Step(&db, step);
    EXPECT_EQ(s.ToString(), frozen) << "session leaked step " << step;
  }
  EXPECT_EQ(s.EncodeSnapshot(), frozen_image);
  // The live database really did move on (otherwise the test is vacuous).
  EXPECT_NE(db.ToString(), frozen);
}

TEST(SessionIsolationTest, QueriesAnswerFromTheFrozenReplica) {
  Database db = SeededDatabase();
  Session s = Session::Open(db);

  // The differential oracle: a private database decoded from the
  // session's own snapshot bytes.
  auto replica = Database::DecodeSnapshot(s.EncodeSnapshot());
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();

  WorkloadRunner workload(/*seed=*/3);
  for (int step = 0; step < 50; ++step) {
    (void)workload.Step(&db, step);
  }
  for (const std::string& q : QueryBattery()) {
    EXPECT_EQ(SessionOutcome(s, q), DatabaseOutcome(*replica, q))
        << "query diverged from frozen replica: " << q;
  }
}

TEST(SessionIsolationTest, SnapshotFrozenAcrossSchemaEvolutionAndDrop) {
  Database db = SeededDatabase();
  Session s = Session::Open(db);
  const std::string frozen = s.ToString();

  ASSERT_TRUE(db.CloseAttribute("obj", "Y", 30).ok());
  EXPECT_EQ(s.ToString(), frozen);
  ASSERT_TRUE(
      db.AddAttribute("obj", {"W", DomainType::kInt,
                              Span(0, WorkloadRunner::kHorizon - 1),
                              InterpolationKind::kStepwise})
          .ok());
  EXPECT_EQ(s.ToString(), frozen);
  ASSERT_TRUE(db.DropRelation("obj").ok());
  EXPECT_EQ(s.ToString(), frozen);
  // The pinned version still resolves the dropped relation.
  EXPECT_TRUE(s.Get("obj").ok());
  EXPECT_FALSE(db.Get("obj").ok());
}

TEST(SessionIsolationTest, SnapshotFrozenAcrossIndexDdl) {
  Database db = SeededDatabase();
  Session s = Session::Open(db);
  const std::string frozen = s.ToString();
  ASSERT_TRUE(db.CreateValueIndex("obj", "Y").ok());
  // Index DDL publishes a new version (registrations are part of the
  // rendering); the pinned one keeps the old registration set.
  EXPECT_EQ(s.ToString(), frozen);
  EXPECT_NE(db.ToString(), frozen);
}

TEST(SessionIsolationTest, VersionIdsAreMonotonicPerCommit) {
  Database db;
  Session s0 = Session::Open(db);
  EXPECT_EQ(s0.version().id, 0u);

  WorkloadRunner workload(/*seed=*/4);
  uint64_t last = 0;
  for (int step = 0; step < 40; ++step) {
    const Status status = workload.Step(&db, step);
    const uint64_t id = Session::Open(db).version().id;
    if (status.ok()) {
      EXPECT_EQ(id, last + 1) << "committed step " << step
                              << " must bump the version id by one";
    } else {
      EXPECT_EQ(id, last) << "failed step " << step
                          << " must not publish a version";
    }
    last = id;
  }
}

TEST(SessionIsolationTest, RefreshAdoptsTheCurrentVersion) {
  Database db = SeededDatabase();
  Session s = Session::Open(db);
  const std::string frozen = s.ToString();
  ASSERT_TRUE(db.CreateValueIndex("obj", "Y").ok());
  EXPECT_EQ(s.ToString(), frozen);
  s.Refresh(db);
  EXPECT_EQ(s.ToString(), db.ToString());
  EXPECT_NE(s.ToString(), frozen);
}

TEST(SessionIsolationTest, EngineSessionsPinAcrossLoggedMutations) {
  TempDir dir("session");
  StorageEngine::Options options;
  options.fsync = storage::FsyncPolicy::kOff;
  auto engine = StorageEngine::Open(dir.path(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  WorkloadRunner workload(/*seed=*/5);
  for (int step = 0; step < 30; ++step) {
    (void)workload.Step(&*engine, step);
  }
  Session s = Session::Open(*engine);
  const std::string frozen = s.ToString();
  auto replica = Database::DecodeSnapshot(s.EncodeSnapshot());
  ASSERT_TRUE(replica.ok());

  for (int step = 30; step < 70; ++step) {
    (void)workload.Step(&*engine, step);
    ASSERT_EQ(s.ToString(), frozen) << "engine session leaked step " << step;
  }
  for (const std::string& q : QueryBattery()) {
    EXPECT_EQ(SessionOutcome(s, q), DatabaseOutcome(*replica, q)) << q;
  }
  s.Refresh(*engine);
  EXPECT_EQ(s.ToString(), engine->db().ToString());
}

// Randomized single-threaded sweep: sessions open at random workload
// steps, stay open across arbitrary later mutations, and are re-validated
// (rendering + full query battery against their open-time expectations)
// after every single step until they close.
class SessionFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SessionFuzzTest, SessionsStayFrozenThroughRandomWorkloads) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, GetParam()));
  Rng rng(GetParam() ^ 0x5e55104u);  // decorrelated from the workload rng
  Database db;
  WorkloadRunner workload(GetParam());

  struct OpenSession {
    Session session;
    std::string frozen;
    std::vector<std::string> battery;  // one outcome per QueryBattery()
    int opened_at;
  };
  std::vector<OpenSession> open;

  constexpr int kSteps = 120;
  for (int step = 0; step < kSteps; ++step) {
    (void)workload.Step(&db, step);

    // Every open session must still render byte-identically and answer
    // every query exactly as at open time.
    for (const OpenSession& os : open) {
      ASSERT_EQ(os.session.ToString(), os.frozen)
          << "session opened at step " << os.opened_at << " leaked step "
          << step;
      for (size_t qi = 0; qi < QueryBattery().size(); ++qi) {
        ASSERT_EQ(SessionOutcome(os.session, QueryBattery()[qi]),
                  os.battery[qi])
            << "query '" << QueryBattery()[qi] << "' of session opened at "
            << os.opened_at << " drifted by step " << step;
      }
    }

    if (step >= 3 && open.size() < 4 && rng.Chance(0.15)) {
      Session s = Session::Open(db);
      std::string frozen = s.ToString();
      std::vector<std::string> battery;
      battery.reserve(QueryBattery().size());
      for (const std::string& q : QueryBattery()) {
        battery.push_back(SessionOutcome(s, q));
      }
      // The open-time battery must itself match a replica decoded from
      // the session's snapshot bytes (queries really answer from the
      // pinned version, not the live database).
      auto replica = Database::DecodeSnapshot(s.EncodeSnapshot());
      ASSERT_TRUE(replica.ok()) << replica.status().ToString();
      for (size_t qi = 0; qi < QueryBattery().size(); ++qi) {
        ASSERT_EQ(battery[qi], DatabaseOutcome(*replica, QueryBattery()[qi]))
            << QueryBattery()[qi];
      }
      open.push_back(OpenSession{std::move(s), std::move(frozen),
                                 std::move(battery), step});
    }
    if (!open.empty() && rng.Chance(0.08)) {
      open.erase(open.begin() + static_cast<long>(rng.Index(open.size())));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionFuzzTest,
                         ::testing::ValuesIn(hrdm::testing::SeedsFromEnv(
                             kSeedEnv, {1, 2, 3, 7, 42, 31415})));

}  // namespace
}  // namespace hrdm
