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
// Speedups scale with the machine: the host block's `hardware_concurrency`
// keeps a 1-core container's ~1.0x ratios from being mistaken for a
// regression — on an N-core runner the scan/join/aggregate workloads are
// embarrassingly parallel per morsel and approach min(N, threads)x. The
// differential suite (tests/parallel_differential_test.cc) asserts result
// identity; here we measure. Writes BENCH_parallel.json (per-workload,
// per-thread-count throughput and latency with speedup-vs-serial ratios,
// morsel counts).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "query/executor.h"
#include "query/parser.h"
#include "storage/database.h"
#include "util/random.h"

namespace hrdm {
namespace {

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

}  // namespace
}  // namespace hrdm

int main() {
  using namespace hrdm;

  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  struct Workload {
    const char* name;
    const char* hrql;
    const storage::Database* db;
    int reps;
  };

  auto emp_db = MakeEmpDb(/*seed=*/1);
  auto join_db = MakeJoinDb(/*seed=*/2);

  const Workload workloads[] = {
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

  std::vector<bench::Json> rows;
  for (const Workload& w : workloads) {
    const query::ExprPtr expr = *query::ParseExpr(w.hrql);
    const auto pin = w.db->CurrentVersion();
    const query::PlanResolver resolver = query::VersionResolver(*pin);
    double serial_ops = 0;
    std::vector<bench::Json> per_thread;
    for (size_t threads : thread_counts) {
      query::PlanOptions options;
      options.parallelism = threads;
      query::PlanStats stats;
      const bench::Timing t =
          bench::TimePlan(expr, resolver, options, w.reps, &stats);
      if (threads == 1) serial_ops = t.ops_per_sec;
      const double speedup = t.ops_per_sec / serial_ops;
      std::printf(
          "%-20s @ %zu thr | %8.2f ops/s | speedup %5.2fx | eff. par %zu | "
          "%4zu morsels | %7zu tuples\n",
          w.name, threads, t.ops_per_sec, speedup, stats.parallelism,
          stats.morsels_dispatched, t.result);
      per_thread.push_back(bench::Json::Of(
          t, {{"threads", threads},
              {"speedup_vs_serial", speedup},
              {"effective_parallelism", stats.parallelism},
              {"morsels_dispatched", stats.morsels_dispatched},
              {"result_tuples", t.result}}));
    }
    rows.push_back(bench::Json::Object(
        {{"name", w.name},
         {"hrql", w.hrql},
         {"threads", bench::Json::Array(std::move(per_thread))}}));
  }
  bench::WriteBenchJson(
      "parallel",
      {{"thread_counts",
        bench::Json::Array({thread_counts.begin(), thread_counts.end()})},
       {"workloads", bench::Json::Array(rows)}});
  return 0;
}
