// N reader × M writer differential fuzz of multi-session snapshot
// isolation over one StorageEngine — the concurrent counterpart of
// tests/session_isolation_test.cc, designed to run under ThreadSanitizer
// (the thread-sanitize CI job executes this suite like every other).
//
// Per seed:
//
//  * a serial warm-up builds relation "obj" (+ lifespan and value
//    indexes) and a few objects through the shared WorkloadRunner;
//
//  * kWriters writer threads each replay their own seeded WorkloadRunner
//    (distinct key prefixes, same relation). A test-level mutex both
//    applies each op to the engine and appends (writer, step, status) to
//    one global log inside the same critical section, so the log's order
//    IS the engine's apply order — that makes the serial replay below a
//    deterministic oracle while readers stay fully concurrent;
//
//  * kReaders reader threads repeatedly open sessions with NO lock of any
//    kind, capture the frozen rendering + snapshot image, decode the image
//    into a private replica database, and assert that a query battery
//    evaluated through the session is byte-identical to the same battery
//    on the replica — then re-assert the rendering and the battery later
//    in the session's life (meanwhile writers have committed);
//
//  * after all threads join, the log is replayed serially against a fresh
//    in-memory Database: every status must match the concurrent run and
//    the final ToString() must equal the engine's — writers lost nothing
//    to the readers' traffic;
//
//  * finally the engine directory is reopened and recovery must reproduce
//    the same final state (durability was not disturbed by concurrency).

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "query/executor.h"
#include "session/session.h"
#include "storage/database.h"
#include "storage/storage_engine.h"
#include "tests/storage_test_util.h"
#include "tests/test_seeds.h"
#include "util/mutex.h"

namespace hrdm {
namespace {

using session::Session;
using storage::Database;
using storage::StorageEngine;
using storage::testing::TempDir;
using storage::testing::WorkloadRunner;

constexpr const char* kSeedEnv = "HRDM_CONCURRENCY_FUZZ_SEEDS";

constexpr int kWriters = 2;
constexpr int kReaders = 3;
constexpr int kSetupSteps = 15;       // serial warm-up (includes DDL steps)
constexpr int kStepsPerWriter = 40;   // logged ops per writer thread
constexpr int kSessionsPerReader = 6;

const std::vector<std::string>& QueryBattery() {
  static const std::vector<std::string> kQueries = {
      "obj",
      "timeslice(obj, {[5, 20]})",
      "select_if(obj, X > 50, exists)",
      "project(obj, Id)",
      "aggregate(obj, count)",
  };
  return kQueries;
}

std::string Outcome(const Result<Relation>& r) {
  return r.ok() ? "ok:\n" + r->ToString() : "error: " + r.status().ToString();
}

uint64_t WriterSeed(uint64_t seed, int writer) {
  return seed * 1000003u + static_cast<uint64_t>(writer) + 1;
}

std::string WriterPrefix(int writer) {
  return "w" + std::to_string(writer) + "_";
}

/// One committed-or-rejected op as both runs must see it: which writer,
/// that writer's own step number, and the status the engine returned.
struct LoggedOp {
  int writer;
  int step;
  std::string status;
};

class ConcurrencyFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConcurrencyFuzzTest, ReadersStayIsolatedAndWritersSerialize) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, seed));

  TempDir dir("confuzz");
  StorageEngine::Options options;
  options.fsync = storage::FsyncPolicy::kOff;  // durability ≠ this test
  std::string final_render;
  std::vector<LoggedOp> log;

  {
    auto opened = StorageEngine::Open(dir.path(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    StorageEngine engine = std::move(opened).value();

    // Serial warm-up: schema + indexes + a few objects.
    WorkloadRunner setup(seed);
    for (int step = 0; step < kSetupSteps; ++step) {
      // A step may fail by design (e.g. assigning to a dead object).
      (void)setup.Step(&engine, step);
    }

    // The writer lock: applying an op to the engine and logging it happen
    // in ONE critical section, so log order == engine apply order.
    util::Mutex write_mu;

    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    threads.reserve(kWriters + kReaders);

    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        WorkloadRunner runner(WriterSeed(seed, w), WriterPrefix(w));
        for (int step = 3; step < 3 + kStepsPerWriter; ++step) {
          util::MutexLock lock(write_mu);
          const Status s = runner.Step(&engine, step);
          log.push_back(LoggedOp{w, step, s.ToString()});
        }
      });
    }

    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        for (int i = 0; i < kSessionsPerReader && !failed.load(); ++i) {
          SCOPED_TRACE("reader " + std::to_string(r) + " session " +
                       std::to_string(i));
          // Lock-free open: no engine mutex, no writer coordination.
          Session s = Session::Open(engine);
          const std::string frozen = s.ToString();
          const std::string image = s.EncodeSnapshot();

          auto replica = Database::DecodeSnapshot(image);
          if (!replica.ok()) {
            failed.store(true);
            FAIL() << "snapshot of pinned version does not decode: "
                   << replica.status().ToString();
          }
          // Every query through the session must answer exactly as on the
          // private replica frozen at open.
          std::vector<std::string> outcomes;
          outcomes.reserve(QueryBattery().size());
          for (const std::string& q : QueryBattery()) {
            const std::string via_session = Outcome(s.Run(q));
            const std::string via_replica =
                Outcome(query::Run(q, *replica->CurrentVersion()));
            if (via_session != via_replica) {
              failed.store(true);
              FAIL() << "query '" << q
                     << "' diverged from the frozen replica";
            }
            outcomes.push_back(via_session);
          }
          // Writers have been committing the whole time; the session must
          // not have moved.
          if (s.ToString() != frozen || s.EncodeSnapshot() != image) {
            failed.store(true);
            FAIL() << "pinned snapshot changed during the session";
          }
          for (size_t qi = 0; qi < QueryBattery().size(); ++qi) {
            if (Outcome(s.Run(QueryBattery()[qi])) != outcomes[qi]) {
              failed.store(true);
              FAIL() << "re-running '" << QueryBattery()[qi]
                     << "' in the same session changed its answer";
            }
          }
        }
      });
    }

    for (std::thread& t : threads) t.join();
    ASSERT_FALSE(failed.load());

    final_render = engine.db().ToString();
  }  // engine closed (files released) before the recovery reopen below

  // Serial replay oracle: the same ops in logged order against a fresh
  // in-memory database must reproduce every status and the final state.
  {
    Database oracle;
    WorkloadRunner setup(seed);
    for (int step = 0; step < kSetupSteps; ++step) {
      (void)setup.Step(&oracle, step);
    }
    std::vector<WorkloadRunner> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back(WriterSeed(seed, w), WriterPrefix(w));
    }
    for (size_t i = 0; i < log.size(); ++i) {
      const LoggedOp& op = log[i];
      const Status replayed = writers[op.writer].Step(&oracle, op.step);
      ASSERT_EQ(replayed.ToString(), op.status)
          << "log entry " << i << " (writer " << op.writer << " step "
          << op.step << ") diverged under serial replay";
    }
    ASSERT_EQ(oracle.ToString(), final_render)
        << "serial replay of the logged ops does not reproduce the "
           "concurrent engine state";
  }

  // Recovery differential: reopening the directory replays the WAL into
  // the same final state the concurrent run ended in.
  auto reopened = StorageEngine::Open(dir.path(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->db().ToString(), final_render);
}

std::vector<uint64_t> DefaultSeeds() {
  std::vector<uint64_t> seeds;
  seeds.reserve(100);
  for (uint64_t s = 1; s <= 100; ++s) seeds.push_back(s);
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrencyFuzzTest,
                         ::testing::ValuesIn(hrdm::testing::SeedsFromEnv(
                             kSeedEnv, DefaultSeeds())));

}  // namespace
}  // namespace hrdm
