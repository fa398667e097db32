// Temporal aggregation benchmark (algebra/aggregate.h + the streaming
// HashAggregateCursor of query/plan.h).
//
// Shape to check: grouped and ungrouped time-varying aggregates over a
// 20k-tuple personnel-style relation. The streaming path must hold only
// per-group state plus the dedup handles (PlanStats::peak_buffered stays
// O(input), never O(input × operators)) and must not be slower than the
// materializing interpreter, which re-materializes the whole input
// relation per operator. The differential suite (tests/aggregate_test.cc)
// asserts both paths return identical relations; here we measure.
// Writes BENCH_aggregate.json (per-path throughput and latency, result
// tuples, groups built, per-chronon fallback activations).

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

constexpr size_t kTuples = 20000;
constexpr TimePoint kHorizon = 5000;
constexpr TimePoint kLifespanWidth = 200;
constexpr int kDepartments = 32;
constexpr double kDeptChangeProbability = 0.2;  // fallback-path tuples

/// Builds `emp(Id*, Salary, Dept)`: ~kLifespanWidth-chronon lifespans
/// spread over the horizon, stepwise salaries, and a Dept that changes
/// mid-lifespan for ~20% of employees (exercising the per-chronon
/// varying-group-key fallback).
storage::Database MakeAggDb(uint64_t seed) {
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
  for (size_t i = 0; i < kTuples; ++i) {
    const TimePoint b = rng.Uniform(0, kHorizon - kLifespanWidth - 1);
    const TimePoint e = b + rng.Uniform(20, kLifespanWidth - 1);
    Tuple::Builder tb(scheme, Span(b, e));
    std::string id = "t";  // two-step concat: GCC 12 -Wrestrict false positive
    id += std::to_string(i);
    tb.SetConstant("Id", Value::String(std::move(id)));
    // A salary that steps once mid-lifespan.
    const TimePoint mid = b + (e - b) / 2;
    std::vector<Segment> salary;
    salary.push_back(
        {Interval(b, mid), Value::Int(rng.Uniform(30, 200) * 1000)});
    if (mid + 1 <= e) {
      salary.push_back(
          {Interval(mid + 1, e), Value::Int(rng.Uniform(30, 200) * 1000)});
    }
    tb.Set("Salary", *TemporalValue::FromSegments(std::move(salary)));
    const std::string d0 =
        "dept" + std::to_string(rng.Uniform(0, kDepartments - 1));
    if (rng.Chance(kDeptChangeProbability) && mid + 1 <= e) {
      const std::string d1 =
          "dept" + std::to_string(rng.Uniform(0, kDepartments - 1));
      tb.Set("Dept", *TemporalValue::FromSegments(
                         {{Interval(b, mid), Value::String(d0)},
                          {Interval(mid + 1, e), Value::String(d1)}}));
    } else {
      tb.SetConstant("Dept", Value::String(d0));
    }
    (void)db.Insert("emp", *std::move(tb).Build());
  }
  return db;
}

}  // namespace
}  // namespace hrdm

int main() {
  using namespace hrdm;

  struct Workload {
    const char* name;
    const char* hrql;
    int reps;
  };
  const Workload workloads[] = {
      // Ungrouped: one historical tuple; the COUNT sweep is O(n log n).
      {"count_ungrouped_20k", "aggregate(emp, count)", 20},
      {"avg_salary_ungrouped_20k", "aggregate(emp, avg Salary)", 10},
      // Grouped: 32 departments, ~20% varying-dept fallback tuples.
      {"count_by_dept_20k", "aggregate(emp, count by Dept)", 10},
      {"sum_salary_by_dept_20k", "aggregate(emp, sum Salary by Dept)", 10},
      // Aggregation after restriction: the pipeline feeds the group table.
      {"count_by_dept_sliced_20k",
       "aggregate(timeslice(emp, {[2000, 2999]}), count by Dept)", 20},
  };

  const auto db = MakeAggDb(/*seed=*/1);
  const auto pin = db.CurrentVersion();
  const query::PlanResolver resolver = query::VersionResolver(*pin);

  std::vector<bench::Json> rows;
  for (const Workload& w : workloads) {
    const query::ExprPtr expr = *query::ParseExpr(w.hrql);
    query::PlanStats stats;
    const bench::Timing streaming = bench::TimePlan(
        expr, resolver, query::VersionPlanOptions(*pin), w.reps, &stats);
    const bench::Timing materializing = bench::TimeReps(w.reps, [&] {
      return query::EvalMaterializing(expr, resolver)->size();
    });
    const double ratio = streaming.ops_per_sec / materializing.ops_per_sec;

    std::printf(
        "%-26s | streaming %8.2f ops/s (%5zu groups, %5zu fallback, peak "
        "%6zu) | materializing %8.2f ops/s | %.2fx\n",
        w.name, streaming.ops_per_sec, stats.agg_groups_built,
        stats.agg_fallback_tuples, stats.peak_buffered,
        materializing.ops_per_sec, ratio);
    rows.push_back(bench::Json::Object(
        {{"name", w.name},
         {"hrql", w.hrql},
         {"streaming",
          bench::Json::Of(streaming,
                          {{"result_tuples", streaming.result},
                           {"groups", stats.agg_groups_built},
                           {"fallback_tuples", stats.agg_fallback_tuples},
                           {"peak_buffered", stats.peak_buffered}})},
         {"materializing",
          bench::Json::Of(materializing,
                          {{"result_tuples", materializing.result}})},
         {"streaming_vs_materializing", ratio}}));
  }
  bench::WriteBenchJson("aggregate", {{"tuples", kTuples},
                                      {"workloads", bench::Json::Array(rows)}});
  return 0;
}
