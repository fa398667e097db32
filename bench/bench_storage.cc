// Durable-storage benchmark: snapshot encode/decode, change-log replay,
// and — the headline for the WAL work — sustained durable-insert
// throughput through StorageEngine under each fsync policy, plus recovery
// (reopen + replay) latency over the log the inserts produced.
//
// The fsync ladder is the point: `off` measures the pure engine + WAL
// framing cost, `batched` adds an fsync every batch_bytes, `always` pays
// one fsync per record (classic commit durability). On a tmpfs
// (TMPDIR=/dev/shm, as the CI crash-recovery job runs it) the ladder
// collapses, which is itself useful: it isolates the software overhead
// from the disk.
//
// The commit-scaling row times one in-memory temporal assignment
// (`Database::AssignAt`) against relations of growing size with a lifespan
// index and a value index registered: a commit's cost should grow with
// log n, not n. The pinned rows take a reader pin before each call, so
// the commit must first copy whatever the pin still shares.
//
// Prints a table and writes BENCH_storage.json. Scratch space:
// $HRDM_BENCH_DIR, else $TMPDIR, else /tmp.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "storage/changelog.h"
#include "storage/database.h"
#include "storage/serializer.h"
#include "storage/snapshot.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"
#include "util/file.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm::storage {
namespace {

using bench::Check;
using bench::Json;
using bench::TimeReps;
using bench::Timing;

constexpr double kMiB = 1 << 20;

Database MakeDb(int employees, uint64_t seed = 1) {
  Rng rng(seed);
  workload::PersonnelConfig config;
  config.num_employees = static_cast<size_t>(employees);
  auto rel = *workload::MakePersonnel(&rng, config);
  Database db;
  (void)db.CreateRelation(rel.scheme());
  for (const Tuple& t : rel) {
    (void)db.Insert("emp", t);
  }
  return db;
}

Json BenchSnapshot(int employees, int reps) {
  const Database db = MakeDb(employees);
  const std::string image = db.EncodeSnapshot();
  const Timing encode =
      TimeReps(reps, [&] { return db.EncodeSnapshot().size(); });
  const Timing decode = TimeReps(reps, [&] {
    Check(Database::DecodeSnapshot(image).status());
    return image.size();
  });
  const double encode_mb_s = image.size() * encode.ops_per_sec / kMiB;
  const double decode_mb_s = image.size() * decode.ops_per_sec / kMiB;
  std::printf(
      "snapshot %5d emp | %8zu bytes | encode %7.1f MB/s | decode %7.1f "
      "MB/s\n",
      employees, image.size(), encode_mb_s, decode_mb_s);
  return Json::Object({{"employees", employees},
                       {"bytes", image.size()},
                       {"encode", Json::Of(encode, {{"mb_s", encode_mb_s}})},
                       {"decode", Json::Of(decode, {{"mb_s", decode_mb_s}})}});
}

Json BenchReplay(int employees, int reps) {
  // The records a logged history of `employees` births and salary
  // assignments writes, replayed the way recovery replays a WAL tail.
  auto scheme = *RelationScheme::Make(
      "emp",
      {{"Name", DomainType::kString, Span(0, 99),
        InterpolationKind::kDiscrete},
       {"Salary", DomainType::kInt, Span(0, 99),
        InterpolationKind::kStepwise}},
      {"Name"});
  std::vector<std::string> log = {EncodeCreateRelationRecord(*scheme)};
  for (int i = 0; i < employees; ++i) {
    Tuple::Builder b(scheme, Span(0, 99));
    b.SetConstant("Name", Value::String("e" + std::to_string(i)));
    log.push_back(EncodeInsertRecord("emp", *std::move(b).Build()));
    log.push_back(EncodeAssignRecord("emp",
                                     {Value::String("e" + std::to_string(i))},
                                     "Salary", Span(0, 49), Value::Int(i)));
  }
  const size_t records = log.size();
  const Timing t = TimeReps(reps, [&] {
    Database replayed;
    for (const std::string& record : log) {
      Check(ApplyLogRecord(record, &replayed));
    }
    return records;
  });
  const double records_per_sec = records * t.ops_per_sec;
  std::printf("changelog replay  | %8zu records | %10.0f records/s\n",
              records, records_per_sec);
  return Json::Of(t, {{"records", records},
                      {"records_per_sec", records_per_sec}});
}

/// `reps` timed AssignAt commits on a personnel relation of `employees`
/// objects (the perfbench ingest shape: horizon 1000, 24 departments)
/// with both index kinds registered. With `pinned`, a reader pin is taken
/// before each call and dropped after it, both untimed.
Json BenchCommitScaling(int employees, bool pinned, int reps) {
  Rng rng(1);
  workload::PersonnelConfig config;
  config.num_employees = static_cast<size_t>(employees);
  config.horizon = 1000;
  config.salary_change_period = 100;
  config.num_departments = 24;
  const Relation population = *workload::MakePersonnel(&rng, config);
  Database db;
  Check(db.CreateRelation(population.scheme()));
  for (const TuplePtr& t : population.tuple_ptrs()) {
    Check(db.Insert("emp", *t));
  }
  Check(db.CreateLifespanIndex("emp"));
  Check(db.CreateValueIndex("emp", "Name"));

  Rng pick(7);
  auto assign = [&] {
    const Tuple& t = population.tuple(pick.Index(population.size()));
    const Lifespan& l = t.lifespan();
    const Interval& iv = l.intervals()[pick.Index(l.IntervalCount())];
    Check(db.AssignAt("emp", t.KeyValues(), "Salary",
                      pick.Uniform(iv.begin, iv.end),
                      Value::Int(pick.Uniform(30, 200) * 1000)));
  };
  assign();  // warm-up
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  double seconds = 0;
  for (int i = 0; i < reps; ++i) {
    DatabaseVersionPtr pin;
    if (pinned) pin = db.CurrentVersion();
    us.push_back(bench::TimeUs(assign));
    seconds += us.back() / 1e6;
  }
  const Timing t = bench::Summarize(us, seconds);
  std::printf("commit scaling %6d emp | reader %-6s | p50 %9.1f us | p99 "
              "%9.1f us\n",
              employees, pinned ? "pinned" : "none", t.p50_us, t.p99_us);
  return Json::Of(t, {{"employees", employees},
                      {"reader", pinned ? "pinned" : "none"}});
}

/// `n` timed engine inserts (each one WAL append + policy fsync; one more
/// untimed warm-up insert precedes them), then a timed recovery (Open =
/// read + replay the log) and a timed checkpoint.
Json BenchDurableInserts(FsyncPolicy policy, int n) {
  const std::string dir = bench::MakeScratchDir();
  StorageEngine::Options options;
  options.fsync = policy;
  Timing inserts;
  size_t wal_bytes = 0;
  {
    auto engine = StorageEngine::Open(dir, options).value();
    const Lifespan full = Span(0, 999);
    Check(engine.CreateRelation(
        "emp",
        {{"Name", DomainType::kString, full, InterpolationKind::kDiscrete},
         {"Salary", DomainType::kInt, full, InterpolationKind::kStepwise}},
        {"Name"}));
    auto scheme = *engine.db().catalog().Get("emp");
    // Build the tuples up front so the timed ops are engine + WAL only.
    std::vector<Tuple> tuples;
    tuples.reserve(n + 1);
    Rng rng(7);
    for (int i = 0; i <= n; ++i) {
      Tuple::Builder b(scheme, Span(i % 500, 500 + i % 500));
      b.SetConstant("Name", Value::String("e" + std::to_string(i)));
      b.SetAt("Salary", i % 500, Value::Int(rng.Uniform(30, 200) * 1000));
      tuples.push_back(*std::move(b).Build());
    }
    size_t next = 0;
    inserts = TimeReps(n, [&] {
      Check(engine.Insert("emp", std::move(tuples[next++])));
      return size_t{1};
    });
    auto wal = util::AppendFile::Open(engine.wal_path());
    if (wal.ok()) wal_bytes = wal->Size().ValueOr(0);
  }
  std::optional<StorageEngine> engine;
  const double recover_ms = bench::TimeUs([&] {
    engine.emplace(StorageEngine::Open(dir, options).value());
    // The CREATE, the warm-up insert and the n timed inserts.
    if (engine->wal_records() != static_cast<uint64_t>(n) + 2) std::abort();
  }) / 1000;
  const double checkpoint_ms =
      bench::TimeUs([&] { Check(engine->Checkpoint()); }) / 1000;
  engine.reset();
  bench::RemoveScratchDir(dir);

  const std::string fsync(FsyncPolicyName(policy));
  std::printf(
      "durable insert (fsync=%-7s) | %6d inserts | %9.0f inserts/s | "
      "wal %8zu B | recover %7.1f ms | checkpoint %6.1f ms\n",
      fsync.c_str(), n, inserts.ops_per_sec, wal_bytes, recover_ms,
      checkpoint_ms);
  return Json::Of(inserts, {{"fsync", fsync},
                            {"wal_bytes", wal_bytes},
                            {"recover_ms", recover_ms},
                            {"checkpoint_ms", checkpoint_ms}});
}

}  // namespace
}  // namespace hrdm::storage

int main() {
  using namespace hrdm::storage;

  std::vector<Json> snapshots;
  for (int employees : {100, 1000, 5000}) {
    snapshots.push_back(BenchSnapshot(employees, employees <= 1000 ? 50 : 10));
  }
  Json replay = BenchReplay(1000, 20);

  std::vector<Json> scaling;
  for (int employees : {2000, 20000, 100000}) {
    scaling.push_back(BenchCommitScaling(employees, /*pinned=*/false, 400));
    scaling.push_back(BenchCommitScaling(employees, /*pinned=*/true,
                                         employees >= 100000 ? 40 : 200));
  }

  // One fsync per record is orders of magnitude slower on real disks:
  // smaller n keeps the run bounded while still amortizing startup.
  std::vector<Json> durable;
  durable.push_back(BenchDurableInserts(FsyncPolicy::kOff, 20000));
  durable.push_back(BenchDurableInserts(FsyncPolicy::kBatched, 20000));
  durable.push_back(BenchDurableInserts(FsyncPolicy::kAlways, 2000));

  hrdm::bench::WriteBenchJson(
      "storage", {{"snapshot", Json::Array(std::move(snapshots))},
                  {"replay", std::move(replay)},
                  {"commit_scaling", Json::Array(std::move(scaling))},
                  {"durable_insert", Json::Array(std::move(durable))}});
  return 0;
}
