// Differential recovery fuzz (the property behind the crash harness):
// for random DML/DDL histories, crashing after exactly k WAL records and
// recovering must be equivalent to replaying the first k change-log
// records into a fresh in-memory database — including the rebuilt access
// paths: index-backed plans over the recovered database must answer
// exactly like full scans.
//
// 100 independent seeds by default; override with
// HRDM_RECOVERY_DIFF_SEEDS=<comma-separated> to replay one.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "query/executor.h"
#include "query/plan.h"
#include "storage/changelog.h"
#include "storage/snapshot.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"
#include "storage_test_util.h"
#include "test_seeds.h"
#include "util/file.h"

namespace hrdm::storage {
namespace {

using hrdm::storage::testing::TempDir;
using hrdm::storage::testing::WorkloadRunner;

constexpr char kSeedEnv[] = "HRDM_RECOVERY_DIFF_SEEDS";
constexpr int kOps = 26;

/// Forces every access path for `expr` over `db` and requires identical
/// answers (ineligible paths fall back to the scan, so forcing is safe).
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
        << testing::AccessPathName(path) << " after recovery";
  }
}

/// A few point/window probes against the recovered "obj" relation.
void ProbeRecoveredIndexes(const Database& db, Rng* rng) {
  if (!db.Get("obj").ok()) return;
  const TimePoint b = rng->Uniform(0, WorkloadRunner::kHorizon - 1);
  const Lifespan window =
      Span(b, std::min<TimePoint>(WorkloadRunner::kHorizon - 1,
                                  b + rng->Uniform(0, 20)));
  const auto x_pred = Predicate::AttrConst("X", CompareOp::kEq,
                                           Value::Int(rng->Uniform(0, 99)));
  const query::ExprPtr queries[] = {
      query::SelectIfE(query::Rel("obj"), x_pred, Quantifier::kExists),
      query::TimeSliceE(query::Rel("obj"), query::LsLiteral(window)),
  };
  for (const query::ExprPtr& q : queries) {
    ExpectIndexScanParity(db, q);
  }
}

class RecoveryDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecoveryDifferentialTest, CrashAfterRecordKEqualsPrefixReplay) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, seed));

  StorageEngine::Options off;
  off.fsync = FsyncPolicy::kOff;

  // 1. Produce a WAL from a random history.
  TempDir source("diff_src");
  {
    auto engine = StorageEngine::Open(source.path(), off);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    WorkloadRunner runner(seed);
    for (int i = 0; i < kOps; ++i) {
      const Status s = runner.Step(&*engine, i);
      if (!s.ok()) {
        // Clean domain errors only — never internal/corruption.
        EXPECT_NE(s.code(), StatusCode::kInternal) << s.ToString();
        EXPECT_NE(s.code(), StatusCode::kCorruption) << s.ToString();
      }
    }
  }
  const std::string wal_path = source.path() + "/" + WalFileName(0);
  auto full = ReadWal(wal_path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const std::vector<std::string>& records = full->records;
  ASSERT_GT(records.size(), 4u);  // the history exercised the engine

  // 2. Crash points: the ends plus a few seed-chosen cuts.
  Rng rng(seed * 2654435761u + 1);
  std::vector<size_t> cuts = {0, 1, records.size() / 2, records.size() - 1,
                              records.size()};
  for (int i = 0; i < 3; ++i) {
    cuts.push_back(static_cast<size_t>(rng.Uniform(
        0, static_cast<int64_t>(records.size()))));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  TempDir crash("diff");
  const std::string crash_wal = crash.path() + "/" + WalFileName(0);
  for (const size_t k : cuts) {
    SCOPED_TRACE("crash after record " + std::to_string(k));
    // 3. A WAL holding exactly the first k records.
    std::string bytes(kWalHeader, kWalHeaderSize);
    for (size_t j = 0; j < k; ++j) bytes += FrameWalRecord(records[j]);
    ASSERT_TRUE(
        util::AtomicWriteFile(crash_wal, bytes, /*durable=*/false).ok());

    // 4. Engine recovery vs. direct prefix replay.
    auto engine = StorageEngine::Open(crash.path(), off);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(engine->wal_records(), k);

    Database replayed;
    for (size_t j = 0; j < k; ++j) {
      ASSERT_TRUE(ApplyLogRecord(records[j], &replayed).ok())
          << "record " << j << " failed to replay";
    }
    ASSERT_EQ(engine->db().ToString(), replayed.ToString());

    // 5. The rebuilt indexes answer exactly like scans.
    ProbeRecoveredIndexes(engine->db(), &rng);
  }
}

std::vector<uint64_t> DiffSeeds() {
  std::vector<uint64_t> defaults;
  for (uint64_t s = 1; s <= 100; ++s) defaults.push_back(s);
  return hrdm::testing::SeedsFromEnv(kSeedEnv, std::move(defaults));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryDifferentialTest,
                         ::testing::ValuesIn(DiffSeeds()));

}  // namespace
}  // namespace hrdm::storage
