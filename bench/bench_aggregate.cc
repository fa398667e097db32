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
//
// Like bench_executor/bench_join/bench_scan this is a self-contained
// harness (no google-benchmark): it emits machine-readable
// BENCH_aggregate.json (per-path ops/sec, result tuples, groups built,
// per-chronon fallback activations) so later PRs can track the perf
// trajectory.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "storage/database.h"
#include "util/random.h"

namespace hrdm {
namespace {

using Clock = std::chrono::steady_clock;

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

struct PathResult {
  double ops_per_sec = 0;
  size_t result_tuples = 0;
  size_t groups = 0;
  size_t fallback_tuples = 0;
  size_t peak_buffered = 0;
};

/// Runs `hrql` through the streaming plan `iterations` times.
PathResult RunStreaming(const storage::Database& db, const std::string& hrql,
                        int iterations) {
  PathResult out;
  auto expr = query::ParseExpr(hrql);
  if (!expr.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 expr.status().ToString().c_str());
    return out;
  }
  const auto pin = db.CurrentVersion();
  const query::PlanResolver resolver = query::VersionResolver(*pin);
  const query::PlanOptions options = query::VersionPlanOptions(*pin);
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
    out.groups = plan->stats().agg_groups_built;
    out.fallback_tuples = plan->stats().agg_fallback_tuples;
    out.peak_buffered = plan->stats().peak_buffered;
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

/// Runs `hrql` through the materializing interpreter `iterations` times.
PathResult RunMaterializing(const storage::Database& db,
                            const std::string& hrql, int iterations) {
  PathResult out;
  auto expr = query::ParseExpr(hrql);
  if (!expr.ok()) return out;
  const auto pin = db.CurrentVersion();
  const query::PlanResolver resolver = query::VersionResolver(*pin);
  {
    auto warm = query::EvalMaterializing(*expr, resolver);
    if (!warm.ok()) {
      std::fprintf(stderr, "eval failed: %s\n",
                   warm.status().ToString().c_str());
      return out;
    }
    out.result_tuples = warm->size();
  }
  const auto start = Clock::now();
  for (int i = 0; i < iterations; ++i) {
    auto r = query::EvalMaterializing(*expr, resolver);
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

  struct Workload {
    std::string name;
    std::string hrql;
    int iterations;
  };
  std::vector<Workload> workloads = {
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

  auto db = MakeAggDb(/*seed=*/1);

  std::string json =
      "{\n  \"benchmark\": \"aggregate\",\n  \"tuples\": 20000,\n"
      "  \"workloads\": [\n";
  bool first = true;
  for (const Workload& w : workloads) {
    const PathResult streaming = RunStreaming(db, w.hrql, w.iterations);
    const PathResult materializing =
        RunMaterializing(db, w.hrql, w.iterations);
    const double ratio = materializing.ops_per_sec > 0
                             ? streaming.ops_per_sec / materializing.ops_per_sec
                             : 0;

    std::printf(
        "%-26s | streaming %8.2f ops/s (%5zu groups, %5zu fallback, peak "
        "%6zu) | materializing %8.2f ops/s | %.2fx\n",
        w.name.c_str(), streaming.ops_per_sec, streaming.groups,
        streaming.fallback_tuples, streaming.peak_buffered,
        materializing.ops_per_sec, ratio);

    if (!first) json += ",\n";
    first = false;
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\n      \"name\": \"%s\",\n      \"hrql\": \"%s\",\n"
        "      \"streaming\": {\"ops_per_sec\": %.2f, \"result_tuples\": "
        "%zu, \"groups\": %zu, \"fallback_tuples\": %zu, \"peak_buffered\": "
        "%zu},\n"
        "      \"materializing\": {\"ops_per_sec\": %.2f, \"result_tuples\": "
        "%zu},\n"
        "      \"streaming_vs_materializing\": %.3f\n    }",
        w.name.c_str(), w.hrql.c_str(), streaming.ops_per_sec,
        streaming.result_tuples, streaming.groups, streaming.fallback_tuples,
        streaming.peak_buffered, materializing.ops_per_sec,
        materializing.result_tuples, ratio);
    json += buf;
  }
  json += "\n  ]\n}\n";

  std::FILE* f = std::fopen("BENCH_aggregate.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_aggregate.json\n");
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote BENCH_aggregate.json\n");
  return 0;
}
