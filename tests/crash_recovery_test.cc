// The crash-injection harness — the durability proof for the storage
// engine (storage/storage_engine.h).
//
// Two attack modes:
//
//  1. Real crashes: fork a child that runs a seeded workload against a
//     StorageEngine, acking each completed operation over a pipe; SIGKILL
//     it at a seed-chosen moment; recover in the parent and check the
//     recovered database is ToString()-identical to an in-memory oracle's
//     state after SOME prefix of the workload — and, under
//     FsyncPolicy::kAlways, a prefix no shorter than the last acked
//     operation (acknowledged == durable).
//
//  2. Simulated torn writes: run a workload, then truncate a copy of the
//     WAL at EVERY byte offset and reopen; the engine must recover exactly
//     the records whose frames survived, and its state must equal the
//     oracle state after exactly that many logged records.
//
// Reproducibility: seeds come from HRDM_CRASH_SEEDS (comma-separated); the
// child's fsync policy from HRDM_CRASH_FSYNC (off|batched|always, default
// always — note only "always" licenses the acked-prefix assertion).

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

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

constexpr char kSeedEnv[] = "HRDM_CRASH_SEEDS";
constexpr char kPolicyEnv[] = "HRDM_CRASH_FSYNC";
constexpr int kOps = 120;

FsyncPolicy PolicyFromEnv() {
  const char* raw = std::getenv(kPolicyEnv);
  if (raw == nullptr || *raw == '\0') return FsyncPolicy::kAlways;
  auto parsed = testing::ParseFsyncPolicy(raw);
  return parsed.ok() ? *parsed : FsyncPolicy::kAlways;
}

/// Oracle states: states[k] = ToString of an in-memory Database after the
/// first k workload steps of `seed` (states[0] = empty database).
std::vector<std::string> OracleStates(uint64_t seed, int ops) {
  Database oracle;
  WorkloadRunner runner(seed);
  std::vector<std::string> states;
  states.reserve(ops + 1);
  states.push_back(oracle.ToString());
  for (int i = 0; i < ops; ++i) {
    (void)runner.Step(&oracle, i);  // failures are part of the stream
    states.push_back(oracle.ToString());
  }
  return states;
}

/// Reads exactly 4 bytes (one ack) from `fd`; nullopt on EOF/short read.
std::optional<int32_t> ReadAck(int fd) {
  char buf[4];
  size_t got = 0;
  while (got < sizeof(buf)) {
    const ssize_t n = read(fd, buf + got, sizeof(buf) - got);
    if (n <= 0) return std::nullopt;
    got += static_cast<size_t>(n);
  }
  int32_t v;
  __builtin_memcpy(&v, buf, sizeof(v));
  return v;
}

/// The fork/SIGKILL proof. `checkpoint_every` > 0 additionally exercises
/// crashes landing just before/after checkpoint rotations.
void RunKillTest(uint64_t seed, uint64_t checkpoint_every) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, seed));
  const FsyncPolicy policy = PolicyFromEnv();
  SCOPED_TRACE(std::string("fsync policy ") +
               std::string(FsyncPolicyName(policy)));
  TempDir dir("crash");

  int pipe_fds[2];
  ASSERT_EQ(pipe(pipe_fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);

  if (pid == 0) {
    // ---- child: plain workload, no gtest machinery, _exit only ----
    close(pipe_fds[0]);
    StorageEngine::Options options;
    options.fsync = policy;
    options.batch_bytes = 256;  // small batches: more sync boundaries to hit
    options.checkpoint_every = checkpoint_every;
    auto engine = StorageEngine::Open(dir.path(), options);
    if (!engine.ok()) _exit(2);
    WorkloadRunner runner(seed);
    for (int32_t i = 0; i < kOps; ++i) {
      (void)runner.Step(&*engine, i);
      // Ack AFTER the step returns: under kAlways the record (if any) is
      // already fsynced, so an acked step is a durable step.
      char buf[4];
      __builtin_memcpy(buf, &i, sizeof(i));
      if (write(pipe_fds[1], buf, sizeof(buf)) != sizeof(buf)) _exit(3);
    }
    _exit(0);
  }

  // ---- parent ----
  close(pipe_fds[1]);
  Rng rng(seed ^ 0x5DEECE66DULL);
  // Kill somewhere in the middle of the workload (sometimes very early).
  const int kill_after_acks = static_cast<int>(rng.Uniform(1, kOps));
  int32_t last_acked = -1;
  int acks = 0;
  while (acks < kill_after_acks) {
    auto ack = ReadAck(pipe_fds[0]);
    if (!ack.has_value()) break;  // child finished (or died) early
    last_acked = *ack;
    ++acks;
  }
  kill(pid, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  // Drain any acks that raced the kill: they too were durable.
  while (true) {
    auto ack = ReadAck(pipe_fds[0]);
    if (!ack.has_value()) break;
    last_acked = *ack;
  }
  close(pipe_fds[0]);
  if (WIFEXITED(wstatus)) {
    // The child may have completed everything before the signal landed —
    // that run still must recover to the full final state below. Any
    // nonzero exit is a child-side setup failure.
    ASSERT_EQ(WEXITSTATUS(wstatus), 0) << "child failed before the kill";
  }

  // Recover and compare against the oracle's prefix states.
  auto engine = StorageEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::string recovered = engine->db().ToString();
  const std::vector<std::string> states = OracleStates(seed, kOps);

  // Under kAlways every acked step is durable; weaker policies only
  // guarantee the recovered state is *some* consistent prefix.
  const int min_k = policy == FsyncPolicy::kAlways ? last_acked + 1 : 0;
  bool matched = false;
  for (int k = min_k; k <= kOps; ++k) {
    if (states[k] == recovered) {
      matched = true;
      break;
    }
  }
  EXPECT_TRUE(matched)
      << "recovered state matches no oracle prefix >= " << min_k
      << " (last acked op " << last_acked << ")\nrecovered:\n"
      << recovered;
}

class CrashRecoveryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashRecoveryTest, SigkillMidWorkloadRecoversDurablePrefix) {
  RunKillTest(GetParam(), /*checkpoint_every=*/0);
}

TEST_P(CrashRecoveryTest, SigkillAcrossCheckpointsRecoversDurablePrefix) {
  RunKillTest(GetParam(), /*checkpoint_every=*/13);
}

// Simulated torn writes, exhaustively: after a workload, re-create the
// engine directory with the WAL truncated at every byte offset L. Recovery
// must (a) never fail, (b) replay exactly the frames inside L, (c) land on
// the oracle state after exactly that many logged records.
TEST_P(CrashRecoveryTest, WalTruncationAtEveryByteOffset) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, seed));
  constexpr int kTornOps = 30;  // keeps the byte-offset sweep affordable

  StorageEngine::Options off;
  off.fsync = FsyncPolicy::kOff;

  // Run engine and oracle in lockstep, recording the oracle state after
  // every *logged* record (engine successes).
  TempDir source("torn_src");
  std::vector<std::string> state_by_records;
  std::string wal_bytes;
  {
    auto engine = StorageEngine::Open(source.path(), off);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    Database oracle;
    WorkloadRunner engine_runner(seed);
    WorkloadRunner oracle_runner(seed);
    state_by_records.push_back(oracle.ToString());  // zero records
    for (int i = 0; i < kTornOps; ++i) {
      const Status es = engine_runner.Step(&*engine, i);
      const Status os = oracle_runner.Step(&oracle, i);
      ASSERT_EQ(es.ok(), os.ok())
          << "engine/oracle diverged at step " << i << ": "
          << es.ToString() << " vs " << os.ToString();
      if (es.ok()) state_by_records.push_back(oracle.ToString());
    }
    const std::string wal_path = engine->wal_path();
    engine = Status::InvalidArgument("closed");  // drop the writer fd
    auto bytes = util::ReadFileToString(wal_path);
    ASSERT_TRUE(bytes.ok());
    wal_bytes = *std::move(bytes);
  }

  // Frame boundaries of the intact log.
  auto full = ReadWal(source.path() + "/" + WalFileName(0));
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->records.size() + 1, state_by_records.size());
  std::vector<size_t> ends;
  size_t pos = kWalHeaderSize;
  for (const std::string& r : full->records) {
    pos += kWalFrameOverhead + r.size();
    ends.push_back(pos);
  }
  ASSERT_EQ(pos, wal_bytes.size());

  TempDir torn("torn");
  const std::string torn_wal = torn.path() + "/" + WalFileName(0);
  for (size_t cut = 0; cut <= wal_bytes.size(); ++cut) {
    ASSERT_TRUE(util::AtomicWriteFile(
                    torn_wal, std::string_view(wal_bytes).substr(0, cut),
                    /*durable=*/false)
                    .ok());
    auto engine = StorageEngine::Open(torn.path(), off);
    ASSERT_TRUE(engine.ok())
        << "cut at byte " << cut << ": " << engine.status().ToString();
    size_t frames = 0;
    while (frames < ends.size() && ends[frames] <= cut) ++frames;
    ASSERT_EQ(engine->wal_records(), frames) << "cut at byte " << cut;
    ASSERT_EQ(engine->db().ToString(), state_by_records[frames])
        << "cut at byte " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CrashRecoveryTest,
    ::testing::ValuesIn(hrdm::testing::SeedsFromEnv(
        kSeedEnv, {11u, 22u, 33u, 44u, 4242u})));

}  // namespace
}  // namespace hrdm::storage
