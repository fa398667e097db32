// Reader-session latency under sustained DML (src/session/session.h over
// src/storage/storage_engine.h).
//
// Shape to check: opening a session is one shared_ptr pin (no engine
// mutex), so read latency should be flat as writer threads are added —
// writers serialize on the engine mutex + WAL, readers never queue behind
// them. Each measured read op is: open a session against the engine, run
// one HRQL query through the pinned version, close the session. We sweep
// reader counts {1, 2, 4} against writer counts {0, 1, 2} and report p50 /
// p99 / max read latency plus aggregate read and write throughput per
// cell. The writer workload is a steady stream of logged temporal
// assignments (FsyncPolicy::kBatched, as a durable deployment would run),
// each drawn inside its object's lifespan so every one commits: Assign
// rejects a span that escapes the lifespan, and a failed Assign aborts
// the run.
//
// What to look for: p50/p99 at W writers staying within noise of the
// 0-writer column (snapshot isolation means no reader/writer contention),
// and write throughput independent of reader count. The correctness side
// of the same story is tests/concurrency_fuzz_test.cc; here we measure.
//
// Writes BENCH_concurrency.json. Scratch space: $HRDM_BENCH_DIR, else
// $TMPDIR, else /tmp.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "session/session.h"
#include "storage/storage_engine.h"
#include "util/random.h"

namespace hrdm {
namespace {

using bench::Check;
using session::Session;
using storage::FsyncPolicy;
using storage::StorageEngine;

constexpr TimePoint kHorizon = 1000;
constexpr int kObjects = 2000;
constexpr double kCellSeconds = 0.8;  // measured window per grid cell

std::string KeyOf(int i) { return "obj" + std::to_string(i); }

/// One object's lifespan [begin, end]: the range a writer's Assign must
/// stay inside.
using Bounds = std::pair<TimePoint, TimePoint>;

/// Seeds the engine with `kObjects` stepwise-salary objects plus both
/// index kinds, so the read query exercises the full pinned surface.
/// Returns each object's lifespan, indexed like KeyOf.
std::vector<Bounds> Populate(StorageEngine& engine, uint64_t seed) {
  Rng rng(seed);
  const Lifespan full = Span(0, kHorizon - 1);
  Check(engine.CreateRelation(
      "emp",
      {{"Id", DomainType::kString, full, InterpolationKind::kDiscrete},
       {"Salary", DomainType::kInt, full, InterpolationKind::kStepwise}},
      {"Id"}));
  auto scheme = *engine.db().catalog().Get("emp");
  std::vector<Bounds> lifespans;
  for (int i = 0; i < kObjects; ++i) {
    const TimePoint b = rng.Uniform(0, kHorizon / 2);
    const TimePoint e = rng.Uniform(b, kHorizon - 1);
    Tuple::Builder tb(scheme, Span(b, e));
    tb.SetConstant("Id", Value::String(KeyOf(i)));
    tb.SetAt("Salary", b, Value::Int(rng.Uniform(30, 200) * 1000));
    Check(engine.Insert("emp", *std::move(tb).Build()));
    lifespans.emplace_back(b, e);
  }
  Check(engine.CreateLifespanIndex("emp"));
  Check(engine.CreateValueIndex("emp", "Salary"));
  return lifespans;
}

/// One grid cell: `readers` session-per-query reader threads against
/// `writers` sustained-DML threads for ~kCellSeconds.
bench::Json RunCell(StorageEngine& engine,
                    const std::vector<Bounds>& lifespans, int readers,
                    int writers, const std::string& hrql) {
  std::atomic<bool> stop{false};
  std::atomic<size_t> commits{0};
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(readers));  // microseconds, one vector per reader
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(readers + writers));

  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(1000u + static_cast<uint64_t>(w));
      while (!stop.load(std::memory_order_relaxed)) {
        const int id = static_cast<int>(rng.Uniform(0, kObjects - 1));
        const auto [lo, hi] = lifespans[static_cast<size_t>(id)];
        const TimePoint b = rng.Uniform(lo, hi);
        const TimePoint e = std::min<TimePoint>(hi, b + rng.Uniform(0, 20));
        Check(engine.Assign("emp", {Value::String(KeyOf(id))}, "Salary",
                            Span(b, e),
                            Value::Int(rng.Uniform(30, 200) * 1000)));
        commits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto start = bench::Clock::now();
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      std::vector<double>& mine = latencies[static_cast<size_t>(r)];
      mine.reserve(1 << 14);
      while (!stop.load(std::memory_order_relaxed)) {
        mine.push_back(bench::TimeUs([&] {
          Session s = Session::Open(engine);
          Check(s.Run(hrql).status());
        }));
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(kCellSeconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double seconds = bench::SecondsSince(start);

  std::vector<double> all;
  for (const std::vector<double>& v : latencies) {
    all.insert(all.end(), v.begin(), v.end());
  }
  const bench::Timing read = bench::Summarize(all, seconds);
  const double commits_per_sec = commits.load() / seconds;
  std::printf(
      "%dR x %dW | read p50 %8.1f us | p99 %8.1f us | max %9.1f us | "
      "%8.0f reads/s | %7.0f commits/s\n",
      readers, writers, read.p50_us, read.p99_us, read.max_us,
      read.ops_per_sec, commits_per_sec);
  return bench::Json::Object({{"readers", readers},
                              {"writers", writers},
                              {"read", bench::Json::Of(read)},
                              {"commits_per_sec", commits_per_sec},
                              {"commits", commits.load()}});
}

}  // namespace
}  // namespace hrdm

int main() {
  using namespace hrdm;

  const std::string dir = bench::MakeScratchDir();
  StorageEngine::Options options;
  options.fsync = FsyncPolicy::kBatched;
  StorageEngine engine = StorageEngine::Open(dir, options).value();
  const std::vector<Bounds> lifespans = Populate(engine, /*seed=*/1);

  const std::string hrql = "timeslice(emp, {[100, 140]})";
  std::vector<bench::Json> cells;
  for (int readers : {1, 2, 4}) {
    for (int writers : {0, 1, 2}) {
      cells.push_back(RunCell(engine, lifespans, readers, writers, hrql));
    }
  }
  bench::WriteBenchJson("concurrency", {{"objects", kObjects},
                                        {"hrql", hrql},
                                        {"fsync", "batched"},
                                        {"cells", bench::Json::Array(cells)}});
  bench::RemoveScratchDir(dir);
  return 0;
}
