// Morsel-parallel execution benchmark (util/thread_pool.h + the parallel
// operators of query/plan.h).
//
// Shape to check: the three parallel-eligible operator families — the scan
// leaves' interpolation pass, the hash equi-join's build partitioning +
// parallel probe, and the aggregate fold — at 1/2/4/8 requested workers
// over inputs comfortably above kParallelMinTuples (so the optimizer's
// ChooseParallelism actually grants the workers). The 1-thread run is the
// exact legacy serial path; every other run must produce the same result
// cardinality, and its speedup is reported relative to it.
//
// Speedups scale with the machine: `hardware_concurrency` is recorded in
// the JSON metadata precisely so a 1-core container's ~1.0x ratios are not
// mistaken for a regression — on an N-core runner the scan/join/aggregate
// workloads are embarrassingly parallel per morsel and approach min(N,
// threads)x. The differential suite (tests/parallel_differential_test.cc)
// asserts result identity; here we measure.
//
// Like bench_executor/bench_join/bench_scan/bench_aggregate this is a
// self-contained harness (no google-benchmark): it emits machine-readable
// BENCH_parallel.json (per-workload, per-thread-count ops/sec with
// speedup-vs-serial ratios, morsel counts) so later PRs can track the perf
// trajectory.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "storage/database.h"
#include "util/random.h"

namespace hrdm {
namespace {

using Clock = std::chrono::steady_clock;

constexpr TimePoint kHorizon = 5000;
constexpr TimePoint kLifespanWidth = 200;

/// `emp(Id*, Salary, Dept)` — 20k tuples, stepwise salaries, 32
/// departments (~20% changing mid-lifespan): the scan + aggregate input.
/// Stored representation-level, so every scan pays the interpolation pass
/// the parallel scan splits into morsels.
storage::Database MakeEmpDb(uint64_t seed) {
  Rng rng(seed);
  storage::Database db;
  const Lifespan full = Span(0, kHorizon - 1);
  auto scheme = *RelationScheme::Make(
      "emp",
      {{"Id", DomainType::kString, full, InterpolationKind::kDiscrete},
       {"Salary", DomainType::kInt, full, InterpolationKind::kStepwise},
       {"Dept", DomainType::kString, full, InterpolationKind::kStepwise}},
      {"Id"});
  (void)db.CreateRelation(scheme);
  for (size_t i = 0; i < 20000; ++i) {
    const TimePoint b = rng.Uniform(0, kHorizon - kLifespanWidth - 1);
    const TimePoint e = b + rng.Uniform(20, kLifespanWidth - 1);
    Tuple::Builder tb(scheme, Span(b, e));
    std::string id = "t";  // two-step concat: GCC 12 -Wrestrict false positive
    id += std::to_string(i);
    tb.SetConstant("Id", Value::String(std::move(id)));
    const TimePoint mid = b + (e - b) / 2;
    std::vector<Segment> salary;
    salary.push_back(
        {Interval(b, mid), Value::Int(rng.Uniform(30, 200) * 1000)});
    if (mid + 1 <= e) {
      salary.push_back(
          {Interval(mid + 1, e), Value::Int(rng.Uniform(30, 200) * 1000)});
    }
    tb.Set("Salary", *TemporalValue::FromSegments(std::move(salary)));
    std::string dept = "dept";
    dept += std::to_string(rng.Uniform(0, 31));
    if (rng.Chance(0.2) && mid + 1 <= e) {
      std::string dept2 = "dept";
      dept2 += std::to_string(rng.Uniform(0, 31));
      tb.Set("Dept", *TemporalValue::FromSegments(
                         {{Interval(b, mid), Value::String(std::move(dept))},
                          {Interval(mid + 1, e),
                           Value::String(std::move(dept2))}}));
    } else {
      tb.SetConstant("Dept", Value::String(std::move(dept)));
    }
    (void)db.Insert("emp", *std::move(tb).Build());
  }
  return db;
}

/// `lft(LId*, LV, Ref)` × `rgt(RId*, RV)` — 12k × 8k equi-join partners
/// over a 4000-value space (selective matches), ~10% varying LV/RV for the
/// digest-fallback paths.
storage::Database MakeJoinDb(uint64_t seed) {
  Rng rng(seed);
  storage::Database db;
  const Lifespan full = Span(0, kHorizon - 1);
  auto ls = *RelationScheme::Make(
      "lft",
      {{"LId", DomainType::kString, full, InterpolationKind::kDiscrete},
       {"LV", DomainType::kInt, full, InterpolationKind::kStepwise},
       {"Ref", DomainType::kTime, full, InterpolationKind::kDiscrete}},
      {"LId"});
  auto rs = *RelationScheme::Make(
      "rgt",
      {{"RId", DomainType::kString, full, InterpolationKind::kDiscrete},
       {"RV", DomainType::kInt, full, InterpolationKind::kStepwise}},
      {"RId"});
  (void)db.CreateRelation(ls);
  (void)db.CreateRelation(rs);
  auto fill = [&](const char* rel, const SchemePtr& scheme, const char* key,
                  const char* val, size_t n, bool with_ref) {
    for (size_t i = 0; i < n; ++i) {
      const TimePoint b = rng.Uniform(0, kHorizon - kLifespanWidth - 1);
      const TimePoint e = b + rng.Uniform(20, kLifespanWidth - 1);
      Tuple::Builder tb(scheme, Span(b, e));
      std::string id(key);
      id += std::to_string(i);
      tb.SetConstant(scheme->attribute(0).name, Value::String(std::move(id)));
      if (rng.Chance(0.1)) {
        const TimePoint mid = b + (e - b) / 2;
        std::vector<Segment> segs;
        segs.push_back({Interval(b, mid), Value::Int(rng.Uniform(0, 3999))});
        if (mid + 1 <= e) {
          segs.push_back(
              {Interval(mid + 1, e), Value::Int(rng.Uniform(0, 3999))});
        }
        tb.Set(val, *TemporalValue::FromSegments(std::move(segs)));
      } else {
        tb.SetConstant(val, Value::Int(rng.Uniform(0, 3999)));
      }
      if (with_ref) {
        tb.SetConstant("Ref", Value::Time(rng.Uniform(b, e)));
      }
      (void)db.Insert(rel, *std::move(tb).Build());
    }
  };
  fill("lft", ls, "l", "LV", 12000, true);
  fill("rgt", rs, "r", "RV", 8000, false);
  return db;
}

struct ThreadResult {
  double ops_per_sec = 0;
  size_t result_tuples = 0;
  size_t effective_parallelism = 0;
  size_t morsels = 0;
};

/// Runs `hrql` with PlanOptions::parallelism = `threads`, `iterations`
/// timed drains after a warm-up that records result size and morsel stats.
ThreadResult RunAtThreads(const storage::Database& db, const std::string& hrql,
                          size_t threads, int iterations) {
  ThreadResult out;
  auto expr = query::ParseExpr(hrql);
  if (!expr.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 expr.status().ToString().c_str());
    return out;
  }
  const auto pin = db.CurrentVersion();
  const query::PlanResolver resolver = query::VersionResolver(*pin);
  query::PlanOptions options;
  options.parallelism = threads;
  {
    auto plan = query::Plan::Lower(*expr, resolver, options);
    if (!plan.ok()) {
      std::fprintf(stderr, "lowering failed: %s\n",
                   plan.status().ToString().c_str());
      return out;
    }
    auto warm = plan->Drain();
    if (!warm.ok()) {
      std::fprintf(stderr, "eval failed: %s\n",
                   warm.status().ToString().c_str());
      return out;
    }
    out.result_tuples = warm->size();
    out.effective_parallelism = plan->stats().parallelism;
    out.morsels = plan->stats().morsels_dispatched;
  }
  const auto start = Clock::now();
  for (int i = 0; i < iterations; ++i) {
    auto plan = query::Plan::Lower(*expr, resolver, options);
    auto r = plan->Drain();
    if (!r.ok() || r->size() != out.result_tuples) std::abort();
  }
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  out.ops_per_sec = iterations / elapsed.count();
  return out;
}

}  // namespace
}  // namespace hrdm

int main() {
  using namespace hrdm;

  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  struct Workload {
    std::string name;
    std::string hrql;
    const storage::Database* db;
    int iterations;
  };

  auto emp_db = MakeEmpDb(/*seed=*/1);
  auto join_db = MakeJoinDb(/*seed=*/2);

  std::vector<Workload> workloads = {
      // Scan: 20k-tuple interpolation pass, split into ~10 morsels.
      {"scan_20k", "emp", &emp_db, 8},
      // Scan feeding a streaming restriction (the parallel leaf under a
      // serial consumer).
      {"scan_filter_20k", "select_when(emp, Salary <= 100000)", &emp_db, 8},
      // Hash equi-join: 8k build + 12k probe, parallel partition + probe.
      {"hash_join_12k_8k", "join(lft, rgt, LV = RV)", &join_db, 4},
      // Aggregate fold: 20k tuples into 32 groups (~20% fallback).
      {"sum_by_dept_20k", "aggregate(emp, sum Salary by Dept)", &emp_db, 4},
      {"count_by_dept_20k", "aggregate(emp, count by Dept)", &emp_db, 4},
  };

  const unsigned hw = std::thread::hardware_concurrency();
  const char* env_threads = std::getenv("HRDM_THREADS");

  std::string json = "{\n  \"benchmark\": \"parallel\",\n";
  {
    char meta[256];
    std::snprintf(meta, sizeof(meta),
                  "  \"hardware_concurrency\": %u,\n"
                  "  \"hrdm_threads_env\": \"%s\",\n"
                  "  \"thread_counts\": [1, 2, 4, 8],\n"
                  "  \"workloads\": [\n",
                  hw, env_threads != nullptr ? env_threads : "");
    json += meta;
  }
  std::printf("hardware_concurrency: %u\n", hw);

  bool first_workload = true;
  for (const Workload& w : workloads) {
    double serial_ops = 0;
    if (!first_workload) json += ",\n";
    first_workload = false;
    json += "    {\n      \"name\": \"" + w.name + "\",\n      \"hrql\": \"" +
            w.hrql + "\",\n      \"threads\": [\n";
    bool first_threads = true;
    for (size_t threads : thread_counts) {
      const ThreadResult r = RunAtThreads(*w.db, w.hrql, threads,
                                          w.iterations);
      if (threads == 1) serial_ops = r.ops_per_sec;
      const double speedup =
          serial_ops > 0 ? r.ops_per_sec / serial_ops : 0;
      std::printf(
          "%-20s @ %zu thr | %8.2f ops/s | speedup %5.2fx | eff. par %zu | "
          "%4zu morsels | %7zu tuples\n",
          w.name.c_str(), threads, r.ops_per_sec, speedup,
          r.effective_parallelism, r.morsels, r.result_tuples);
      if (!first_threads) json += ",\n";
      first_threads = false;
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "        {\"threads\": %zu, \"ops_per_sec\": %.2f, "
          "\"speedup_vs_serial\": %.3f, \"effective_parallelism\": %zu, "
          "\"morsels_dispatched\": %zu, \"result_tuples\": %zu}",
          threads, r.ops_per_sec, speedup, r.effective_parallelism, r.morsels,
          r.result_tuples);
      json += buf;
    }
    json += "\n      ]\n    }";
  }
  json += "\n  ]\n}\n";

  std::FILE* f = std::fopen("BENCH_parallel.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote BENCH_parallel.json\n");
  return 0;
}
