// Directed StorageEngine tests: recovery round-trips, checkpoint rotation
// and garbage collection, torn-tail tolerance, snapshot-corruption
// fallback, index durability and the fsync policy knobs. The randomized /
// adversarial counterparts live in crash_recovery_test.cc and
// recovery_differential_test.cc.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "storage/snapshot.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"
#include "storage_test_util.h"
#include "util/file.h"

namespace hrdm::storage {
namespace {

using hrdm::storage::testing::TempDir;

StorageEngine::Options NoFsync() {
  StorageEngine::Options options;
  options.fsync = FsyncPolicy::kOff;
  return options;
}

/// Creates "emp" (Name:string key, Sal:int) and inserts `n` employees with
/// staggered lifespans — enough state for round-trip comparisons.
void Populate(StorageEngine* engine, int n) {
  const Lifespan full = Span(0, 99);
  ASSERT_TRUE(engine
                  ->CreateRelation(
                      "emp",
                      {{"Name", DomainType::kString, full,
                        InterpolationKind::kDiscrete},
                       {"Sal", DomainType::kInt, full,
                        InterpolationKind::kStepwise}},
                      {"Name"})
                  .ok());
  auto scheme = *engine->db().catalog().Get("emp");
  for (int i = 0; i < n; ++i) {
    Tuple::Builder builder(scheme, Span(i, 50 + i));
    builder.SetConstant("Name", Value::String("e" + std::to_string(i)));
    builder.SetAt("Sal", i, Value::Int(1000 + i));
    auto t = std::move(builder).Build();
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    ASSERT_TRUE(engine->Insert("emp", *std::move(t)).ok());
  }
}

TEST(StorageEngineTest, FreshDirectoryOpensEmpty) {
  TempDir dir("engine");
  auto engine = StorageEngine::Open(dir.path() + "/db", NoFsync());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(engine->db().RelationNames().empty());
  EXPECT_EQ(engine->generation(), 0u);
  EXPECT_EQ(engine->wal_records(), 0u);
  // The directory itself was created, with a generation-0 WAL.
  EXPECT_TRUE(util::FileExists(engine->wal_path()));
}

TEST(StorageEngineTest, ReopenReplaysWal) {
  TempDir dir("engine");
  std::string before;
  {
    auto engine = StorageEngine::Open(dir.path(), NoFsync());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    Populate(&*engine, 5);
    ASSERT_TRUE(
        engine->Assign("emp", {Value::String("e1")}, "Sal", Span(10, 20),
                       Value::Int(2222))
            .ok());
    ASSERT_TRUE(engine->EndLifespan("emp", {Value::String("e2")}, 30).ok());
    EXPECT_EQ(engine->wal_records(), 8u);  // create + 5 inserts + 2 DML
    before = engine->db().ToString();
  }
  auto reopened = StorageEngine::Open(dir.path(), NoFsync());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->db().ToString(), before);
  EXPECT_EQ(reopened->wal_records(), 8u);
  EXPECT_EQ(reopened->generation(), 0u);
}

TEST(StorageEngineTest, FailedMutationsAreNotLogged) {
  TempDir dir("engine");
  auto engine = StorageEngine::Open(dir.path(), NoFsync());
  ASSERT_TRUE(engine.ok());
  Populate(&*engine, 2);
  const uint64_t records = engine->wal_records();
  const std::string before = engine->db().ToString();
  // Unknown relation, unknown key, unknown attribute: all clean failures.
  EXPECT_FALSE(engine->DropRelation("ghost").ok());
  EXPECT_FALSE(
      engine->Assign("emp", {Value::String("nobody")}, "Sal", Span(0, 1),
                     Value::Int(1))
          .ok());
  EXPECT_FALSE(engine->CreateValueIndex("emp", "Bonus").ok());
  EXPECT_EQ(engine->wal_records(), records);
  EXPECT_EQ(engine->db().ToString(), before);
}

TEST(StorageEngineTest, CheckpointRotatesGenerationAndCollectsGarbage) {
  TempDir dir("engine");
  auto engine = StorageEngine::Open(dir.path(), NoFsync());
  ASSERT_TRUE(engine.ok());
  Populate(&*engine, 4);
  const std::string old_wal = engine->wal_path();
  const std::string before = engine->db().ToString();

  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_EQ(engine->generation(), 1u);
  EXPECT_EQ(engine->wal_records(), 0u);
  EXPECT_TRUE(util::FileExists(engine->snapshot_path()));
  EXPECT_TRUE(util::FileExists(engine->wal_path()));
  EXPECT_FALSE(util::FileExists(old_wal));  // generation 0 collected
  EXPECT_FALSE(util::FileExists(dir.path() + "/" + SnapshotFileName(0)));
  EXPECT_EQ(engine->db().ToString(), before);

  // Post-checkpoint mutations land in the new WAL and survive reopen.
  ASSERT_TRUE(engine->EndLifespan("emp", {Value::String("e0")}, 10).ok());
  const std::string after = engine->db().ToString();
  engine = StorageEngine::Open(dir.path(), NoFsync());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->generation(), 1u);
  EXPECT_EQ(engine->wal_records(), 1u);
  EXPECT_EQ(engine->db().ToString(), after);
}

TEST(StorageEngineTest, AutoCheckpointEveryNRecords) {
  TempDir dir("engine");
  StorageEngine::Options options = NoFsync();
  options.checkpoint_every = 4;
  auto engine = StorageEngine::Open(dir.path(), options);
  ASSERT_TRUE(engine.ok());
  Populate(&*engine, 9);  // 10 logged records => at least 2 auto-checkpoints
  EXPECT_GE(engine->generation(), 2u);
  EXPECT_LT(engine->wal_records(), 4u);
  const std::string before = engine->db().ToString();
  engine = StorageEngine::Open(dir.path(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->db().ToString(), before);
}

TEST(StorageEngineTest, TornWalTailIsIgnoredOnReopen) {
  TempDir dir("engine");
  std::string before;
  std::string wal_path;
  {
    auto engine = StorageEngine::Open(dir.path(), NoFsync());
    ASSERT_TRUE(engine.ok());
    Populate(&*engine, 3);
    before = engine->db().ToString();
    wal_path = engine->wal_path();
  }
  // A crash mid-append: garbage bytes after the last durable frame.
  auto bytes = util::ReadFileToString(wal_path);
  ASSERT_TRUE(bytes.ok());
  {
    auto file = util::AppendFile::Open(wal_path);
    ASSERT_TRUE(file.ok());
    // A full frame header (len=19) whose payload never fully hit disk.
    ASSERT_TRUE(
        file->Append(std::string("\x13\x00\x00\x00garbage-torn-frame", 22))
            .ok());
  }
  auto engine = StorageEngine::Open(dir.path(), NoFsync());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->db().ToString(), before);
  // The tail was truncated away on reopen: the file is valid again.
  auto reread = util::ReadFileToString(wal_path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(*reread, *bytes);
}

TEST(StorageEngineTest, IndexDdlSurvivesReplayAndCheckpoint) {
  TempDir dir("engine");
  {
    auto engine = StorageEngine::Open(dir.path(), NoFsync());
    ASSERT_TRUE(engine.ok());
    Populate(&*engine, 4);
    ASSERT_TRUE(engine->CreateLifespanIndex("emp").ok());
    ASSERT_TRUE(engine->CreateValueIndex("emp", "Sal").ok());
  }
  // Recovered via WAL replay: registrations and rebuilt index data.
  auto engine = StorageEngine::Open(dir.path(), NoFsync());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  {
    const RelationIndexes* idx = engine->db().indexes("emp");
    ASSERT_NE(idx, nullptr);
    const auto specs = engine->db().catalog().Indexes("emp");
    ASSERT_TRUE(specs.has_value());
    EXPECT_TRUE(specs->lifespan);
    EXPECT_EQ(specs->value_attrs, std::vector<std::string>{"Sal"});
  }
  // And via the snapshot path: checkpoint, reopen, same registrations.
  ASSERT_TRUE(engine->Checkpoint().ok());
  const std::string before = engine->db().ToString();
  engine = StorageEngine::Open(dir.path(), NoFsync());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->db().ToString(), before);
  const RelationIndexes* idx = engine->db().indexes("emp");
  ASSERT_NE(idx, nullptr);
  const auto specs = engine->db().catalog().Indexes("emp");
  ASSERT_TRUE(specs.has_value());
  EXPECT_TRUE(specs->lifespan);
  EXPECT_EQ(specs->value_attrs, std::vector<std::string>{"Sal"});
}

TEST(StorageEngineTest, ForeignKeysSurviveReplayAndCheckpoint) {
  TempDir dir("engine");
  const Lifespan full = Span(0, 99);
  {
    auto engine = StorageEngine::Open(dir.path(), NoFsync());
    ASSERT_TRUE(engine.ok());
    Populate(&*engine, 2);
    ASSERT_TRUE(engine
                    ->CreateRelation("dept",
                                     {{"Mgr", DomainType::kString, full,
                                       InterpolationKind::kDiscrete}},
                                     {"Mgr"})
                    .ok());
    ASSERT_TRUE(engine->RegisterForeignKey("dept", {"Mgr"}, "emp").ok());
    ASSERT_TRUE(engine->Checkpoint().ok());
  }
  auto engine = StorageEngine::Open(dir.path(), NoFsync());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_EQ(engine->db().CurrentVersion()->fks.size(), 1u);
  EXPECT_EQ(engine->db().CurrentVersion()->fks[0].child, "dept");
  EXPECT_EQ(engine->db().CurrentVersion()->fks[0].parent, "emp");
}

TEST(StorageEngineTest, CorruptNewestSnapshotFallsBackAGeneration) {
  TempDir dir("engine");
  std::string gen1_state;
  {
    auto engine = StorageEngine::Open(dir.path(), NoFsync());
    ASSERT_TRUE(engine.ok());
    Populate(&*engine, 3);
    ASSERT_TRUE(engine->Checkpoint().ok());  // generation 1
    gen1_state = engine->db().ToString();
  }
  // Fabricate a "newer" snapshot that is bit-rotted: copy generation 1's
  // file to generation 2 and flip a payload byte.
  const std::string gen1 = dir.path() + "/" + SnapshotFileName(1);
  const std::string gen2 = dir.path() + "/" + SnapshotFileName(2);
  auto bytes = util::ReadFileToString(gen1);
  ASSERT_TRUE(bytes.ok());
  std::string rotted = *bytes;
  rotted[rotted.size() / 2] = static_cast<char>(rotted[rotted.size() / 2] ^ 0x40);
  ASSERT_TRUE(util::AtomicWriteFile(gen2, rotted, false).ok());

  auto engine = StorageEngine::Open(dir.path(), NoFsync());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->generation(), 1u);
  EXPECT_EQ(engine->db().ToString(), gen1_state);
}

TEST(StorageEngineTest, AllSnapshotsCorruptRefusesToOpen) {
  TempDir dir("engine");
  {
    auto engine = StorageEngine::Open(dir.path(), NoFsync());
    ASSERT_TRUE(engine.ok());
    Populate(&*engine, 2);
    ASSERT_TRUE(engine->Checkpoint().ok());
  }
  const std::string snap = dir.path() + "/" + SnapshotFileName(1);
  auto bytes = util::ReadFileToString(snap);
  ASSERT_TRUE(bytes.ok());
  std::string rotted = *bytes;
  rotted[rotted.size() - 1] = static_cast<char>(rotted[rotted.size() - 1] ^ 1);
  ASSERT_TRUE(util::AtomicWriteFile(snap, rotted, false).ok());

  auto engine = StorageEngine::Open(dir.path(), NoFsync());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kCorruption)
      << engine.status().ToString();
}

TEST(StorageEngineTest, StaleTmpFilesAreCollectedOnOpen) {
  TempDir dir("engine");
  {
    auto engine = StorageEngine::Open(dir.path(), NoFsync());
    ASSERT_TRUE(engine.ok());
    Populate(&*engine, 1);
  }
  // A checkpoint that crashed before its rename leaves a .tmp behind.
  const std::string leftover = dir.path() + "/snapshot-0000000001.hrdm.tmp";
  ASSERT_TRUE(util::AtomicWriteFile(leftover, "half-written", false).ok());
  auto engine = StorageEngine::Open(dir.path(), NoFsync());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_FALSE(util::FileExists(leftover));
}

TEST(StorageEngineTest, AllFsyncPoliciesRoundTrip) {
  for (FsyncPolicy policy :
       {FsyncPolicy::kOff, FsyncPolicy::kBatched, FsyncPolicy::kAlways}) {
    SCOPED_TRACE(std::string("policy ") + std::string(FsyncPolicyName(policy)));
    TempDir dir("engine");
    StorageEngine::Options options;
    options.fsync = policy;
    options.batch_bytes = 128;
    std::string before;
    {
      auto engine = StorageEngine::Open(dir.path(), options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      Populate(&*engine, 3);
      ASSERT_TRUE(engine->Sync().ok());  // explicit barrier works under all
      before = engine->db().ToString();
    }
    auto engine = StorageEngine::Open(dir.path(), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(engine->db().ToString(), before);
  }
}

TEST(StorageEngineTest, SnapshotFileNamesRoundTripGenerations) {
  EXPECT_EQ(SnapshotFileName(7), "snapshot-0000000007.hrdm");
  EXPECT_EQ(WalFileName(7), "wal-0000000007.log");
  auto gen = ParseGeneration(SnapshotFileName(123), "snapshot-", ".hrdm");
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(*gen, 123u);
  EXPECT_FALSE(ParseGeneration("other.txt", "snapshot-", ".hrdm").ok());
  EXPECT_FALSE(
      ParseGeneration("snapshot-00000000xx.hrdm", "snapshot-", ".hrdm").ok());
}

}  // namespace
}  // namespace hrdm::storage
