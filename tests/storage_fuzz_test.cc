// Corruption-injection fuzz for every decode path that can meet untrusted
// bytes after a crash or disk fault: snapshot images
// (Database::DecodeSnapshot), snapshot envelopes (DecodeSnapshotFile),
// logical log records (ApplyLogRecord), the low-level serializer
// primitives, and whole WAL files. The contract everywhere:
// malformed input produces a clean Status (Corruption / InvalidArgument /
// ...), NEVER a crash, UB or StatusCode::kInternal. The CI ASan/UBSan job
// runs this suite with sanitizers watching.
//
// Seeds: HRDM_STORAGE_FUZZ_SEEDS (comma-separated) replays a failure.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/changelog.h"
#include "storage/serializer.h"
#include "storage/snapshot.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"
#include "storage_test_util.h"
#include "test_seeds.h"
#include "util/random.h"

namespace hrdm::storage {
namespace {

using hrdm::storage::testing::TempDir;
using hrdm::storage::testing::WorkloadRunner;

constexpr char kSeedEnv[] = "HRDM_STORAGE_FUZZ_SEEDS";

/// A database touching every value domain, index kind, foreign keys and a
/// fragmented lifespan — so its image exercises every decoder branch.
Database SampleDatabase() {
  Database db;
  const Lifespan full = Span(0, 99);
  EXPECT_TRUE(db.CreateRelation(
                    "obj",
                    {{"Id", DomainType::kString, full,
                      InterpolationKind::kDiscrete},
                     {"B", DomainType::kBool, full,
                      InterpolationKind::kDiscrete},
                     {"D", DomainType::kDouble, full,
                      InterpolationKind::kLinear},
                     {"T", DomainType::kTime, full,
                      InterpolationKind::kStepwise},
                     {"X", DomainType::kInt, full,
                      InterpolationKind::kStepwise}},
                    {"Id"})
                  .ok());
  auto scheme = *db.catalog().Get("obj");
  for (int i = 0; i < 6; ++i) {
    Tuple::Builder builder(scheme, Span(i * 3, 40 + i));
    builder.SetConstant("Id", Value::String("o" + std::to_string(i)));
    builder.SetAt("B", i * 3, Value::Bool(i % 2 == 0));
    builder.SetAt("D", i * 3, Value::Double(1.5 * i));
    builder.SetAt("T", i * 3, Value::Time(100 + i));
    builder.SetAt("X", i * 3, Value::Int(7 * i));
    auto t = std::move(builder).Build();
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_TRUE(db.Insert("obj", *std::move(t)).ok());
  }
  // Fragmented lifespan (delta-encoded interval lists with gaps).
  EXPECT_TRUE(db.EndLifespan("obj", {Value::String("o0")}, 10).ok());
  EXPECT_TRUE(
      db.Reincarnate("obj", {Value::String("o0")}, Span(20, 30)).ok());
  EXPECT_TRUE(db.CreateRelation("ref",
                                {{"Id", DomainType::kString, full,
                                  InterpolationKind::kDiscrete}},
                                {"Id"})
                  .ok());
  EXPECT_TRUE(db.RegisterForeignKey("ref", {"Id"}, "obj").ok());
  EXPECT_TRUE(db.CreateLifespanIndex("obj").ok());
  EXPECT_TRUE(db.CreateValueIndex("obj", "X").ok());
  return db;
}

/// One random mutation of `base`: truncation, 1-8 bit flips, a byte
/// erased, inserted or replaced.
std::string Corrupt(Rng* rng, const std::string& base) {
  std::string s = base;
  switch (rng->Uniform(0, 4)) {
    case 0:  // truncate
      s.resize(rng->Uniform(0, static_cast<int64_t>(s.size())));
      break;
    case 1: {  // flip 1..8 bits
      if (s.empty()) break;
      const int flips = static_cast<int>(rng->Uniform(1, 8));
      for (int i = 0; i < flips; ++i) {
        const size_t at = rng->Index(s.size());
        s[at] = static_cast<char>(s[at] ^ (1u << rng->Uniform(0, 7)));
      }
      break;
    }
    case 2:  // erase a byte
      if (!s.empty()) s.erase(rng->Index(s.size()), 1);
      break;
    case 3:  // insert a random byte
      s.insert(s.begin() + rng->Index(s.size() + 1),
               static_cast<char>(rng->Uniform(0, 255)));
      break;
    default:  // overwrite a byte
      if (!s.empty()) {
        s[rng->Index(s.size())] = static_cast<char>(rng->Uniform(0, 255));
      }
      break;
  }
  return s;
}

std::string RandomBytes(Rng* rng, size_t max_len) {
  std::string s;
  const size_t n = static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(max_len)));
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(rng->Uniform(0, 255)));
  }
  return s;
}

void ExpectCleanOutcome(const Status& s) {
  if (!s.ok()) {
    EXPECT_NE(s.code(), StatusCode::kInternal) << s.ToString();
  }
}

class StorageFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorageFuzzTest, SnapshotImageDecodeSurvivesCorruption) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, GetParam()));
  Rng rng(GetParam());
  const Database db = SampleDatabase();
  const std::string image = db.EncodeSnapshot();
  for (int iter = 0; iter < 400; ++iter) {
    const std::string mutated = Corrupt(&rng, image);
    auto decoded = Database::DecodeSnapshot(mutated);
    ExpectCleanOutcome(decoded.status());
  }
  for (int iter = 0; iter < 200; ++iter) {
    auto decoded = Database::DecodeSnapshot(RandomBytes(&rng, 200));
    ExpectCleanOutcome(decoded.status());
  }
}

TEST_P(StorageFuzzTest, SnapshotEnvelopeDecodeSurvivesCorruption) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, GetParam()));
  Rng rng(GetParam() + 1);
  const Database db = SampleDatabase();
  const std::string envelope = EncodeSnapshotFile(db);
  // The pristine envelope round-trips...
  auto pristine = DecodeSnapshotFile(envelope);
  ASSERT_TRUE(pristine.ok()) << pristine.status().ToString();
  EXPECT_EQ(pristine->ToString(), db.ToString());
  // ...and any single corruption either round-trips to the identical
  // database (impossible for a framed CRC envelope, but the *contract* is
  // merely no-UB + no-Internal) or fails cleanly.
  for (int iter = 0; iter < 400; ++iter) {
    const std::string mutated = Corrupt(&rng, envelope);
    auto decoded = DecodeSnapshotFile(mutated);
    if (decoded.ok()) {
      EXPECT_EQ(decoded->ToString(), db.ToString())
          << "a corrupted envelope decoded to a different database";
    } else {
      ExpectCleanOutcome(decoded.status());
    }
  }
  for (int iter = 0; iter < 200; ++iter) {
    auto decoded = DecodeSnapshotFile(RandomBytes(&rng, 200));
    ExpectCleanOutcome(decoded.status());
  }
}

TEST_P(StorageFuzzTest, ChangeLogRecordsSurviveCorruption) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, GetParam()));
  Rng rng(GetParam() + 2);
  // Harvest genuine records from a seeded workload's WAL.
  TempDir dir("records");
  StorageEngine::Options off;
  off.fsync = FsyncPolicy::kOff;
  auto engine = StorageEngine::Open(dir.path(), off);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  WorkloadRunner runner(GetParam());
  for (int i = 0; i < 30; ++i) (void)runner.Step(&*engine, i);
  auto wal = ReadWal(engine->wal_path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const std::vector<std::string>& records = wal->records;
  ASSERT_GT(records.size(), 4u);

  for (int iter = 0; iter < 400; ++iter) {
    const size_t k = rng.Index(records.size());
    const std::string mutated = Corrupt(&rng, records[k]);
    // Replay the clean prefix, then apply the mutated record: the database
    // must stay usable and the status clean whatever happens.
    Database db;
    for (size_t j = 0; j < k; ++j) {
      ASSERT_TRUE(ApplyLogRecord(records[j], &db).ok());
    }
    ExpectCleanOutcome(ApplyLogRecord(mutated, &db));
  }
  Database db;
  for (int iter = 0; iter < 200; ++iter) {
    ExpectCleanOutcome(ApplyLogRecord(RandomBytes(&rng, 120), &db));
  }
}

TEST_P(StorageFuzzTest, SerializerPrimitivesSurviveRandomBytes) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, GetParam()));
  Rng rng(GetParam() + 3);
  for (int iter = 0; iter < 600; ++iter) {
    const std::string bytes = RandomBytes(&rng, 150);
    {
      Reader r(bytes);
      ExpectCleanOutcome(DecodeLifespan(&r).status());
    }
    {
      Reader r(bytes);
      ExpectCleanOutcome(DecodeTemporalValue(&r).status());
    }
    {
      Reader r(bytes);
      ExpectCleanOutcome(DecodeValue(&r).status());
    }
    {
      Reader r(bytes);
      ExpectCleanOutcome(DecodeScheme(&r).status());
    }
    {
      Reader r(bytes);
      ExpectCleanOutcome(DecodeRelation(&r).status());
    }
  }
}

TEST_P(StorageFuzzTest, WholeWalFilesSurviveCorruption) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, GetParam()));
  Rng rng(GetParam() + 4);
  TempDir dir("fuzz");

  // A real WAL from a seeded workload...
  StorageEngine::Options off;
  off.fsync = FsyncPolicy::kOff;
  {
    auto engine = StorageEngine::Open(dir.path(), off);
    ASSERT_TRUE(engine.ok());
    WorkloadRunner runner(GetParam());
    for (int i = 0; i < 25; ++i) (void)runner.Step(&*engine, i);
  }
  auto wal_bytes = util::ReadFileToString(dir.path() + "/" + WalFileName(0));
  ASSERT_TRUE(wal_bytes.ok());

  // ...mutated and re-opened through the full recovery path.
  TempDir victim("fuzz_victim");
  const std::string victim_wal = victim.path() + "/" + WalFileName(0);
  for (int iter = 0; iter < 60; ++iter) {
    ASSERT_TRUE(util::AtomicWriteFile(victim_wal,
                                      Corrupt(&rng, *wal_bytes),
                                      /*durable=*/false)
                    .ok());
    auto contents = ReadWal(victim_wal);
    ExpectCleanOutcome(contents.status());
    auto engine = StorageEngine::Open(victim.path(), off);
    ExpectCleanOutcome(engine.status());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, StorageFuzzTest,
    ::testing::ValuesIn(hrdm::testing::SeedsFromEnv(
        kSeedEnv, {1u, 7u, 42u, 31415u})));

}  // namespace
}  // namespace hrdm::storage
