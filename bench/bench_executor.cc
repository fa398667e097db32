// Experiment E1: streaming (cursor pipeline) vs materializing (recursive
// interpreter) execution of the same HRQL trees.
//
// Shape to check: deep unary pipelines (restriction chains under a
// projection) stream end-to-end with zero intermediate
// relations, so the cursor path should win by avoiding per-stage
// InsertDedup hashing and relation construction; blocking shapes (set ops)
// should be roughly even, since both paths run the same whole-relation
// kernels. Writes BENCH_executor.json (per-path throughput and latency,
// peak intermediate tuple counts).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "query/executor.h"
#include "query/parser.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm {
namespace {

storage::Database MakeDb(size_t tuples, uint64_t seed = 1) {
  Rng rng(seed);
  storage::Database db;
  for (int i = 0; i < 2; ++i) {
    workload::RandomRelationConfig config;
    config.name = "r" + std::to_string(i);
    config.num_tuples = tuples;
    config.num_value_attrs = 3;
    config.horizon = 200;
    config.value_change_period = 10;
    config.key_space = tuples * 3 / 2;
    auto rel = *workload::MakeRandomRelation(&rng, config);
    (void)db.CreateRelation(rel.scheme());
    for (const Tuple& t : rel) {
      (void)db.Insert(config.name, t);
    }
  }
  return db;
}

struct Workload {
  const char* name;
  const char* hrql;
  size_t tuples;
  int reps;
};

}  // namespace
}  // namespace hrdm

int main() {
  using namespace hrdm;
  using bench::Json;

  const Workload workloads[] = {
      // The acceptance shape: a deep unary pipeline (slice, select, project
      // over a scan). Streams end-to-end.
      {"deep_unary_pipeline",
       "project(select_when(timeslice(r0, {[20,160]}), A0 >= 30), Id, A0)",
       4000, 30},
      {"deep_unary_pipeline_small",
       "project(select_when(timeslice(r0, {[20,160]}), A0 >= 30), Id, A0)",
       500, 200},
      // Five-operator chain with a dynamic slice.
      {"five_stage_chain",
       "project(select_if(select_when(timeslice(r0, {[0,180]}), A1 >= 10), "
       "A2 < 95, exists), Id, A2)",
       2000, 30},
      // Pure filter (SELECT-IF passes whole tuples through by pointer).
      {"select_if_only", "select_if(r0, A0 >= 50, exists)", 4000, 30},
      // Blocking shape: both paths run the same whole-relation kernel.
      {"union_blocking", "union(r0, r1)", 2000, 20},
  };

  std::vector<Json> rows;
  for (const Workload& w : workloads) {
    const auto db = MakeDb(w.tuples);
    const query::ExprPtr expr = *query::ParseExpr(w.hrql);
    const auto pin = db.CurrentVersion();
    const query::PlanResolver resolver = query::VersionResolver(*pin);

    query::EvalStats mat_stats;
    bench::Check(
        query::EvalMaterializing(expr, resolver, &mat_stats).status());
    const bench::Timing mat = bench::TimeReps(w.reps, [&] {
      return query::EvalMaterializing(expr, resolver)->size();
    });
    query::PlanStats stats;
    const bench::Timing stream = bench::TimePlan(
        expr, resolver, query::VersionPlanOptions(*pin), w.reps, &stats);
    const double speedup = stream.ops_per_sec / mat.ops_per_sec;

    std::printf(
        "%-26s %6zu tuples | mat %8.1f ops/s (peak %6zu interm) | "
        "stream %8.1f ops/s (peak %3zu interm) | %.2fx\n",
        w.name, w.tuples, mat.ops_per_sec, mat_stats.peak_live_tuples,
        stream.ops_per_sec, stats.peak_buffered, speedup);
    rows.push_back(Json::Object(
        {{"name", w.name},
         {"tuples", w.tuples},
         {"materializing",
          Json::Of(mat,
                   {{"result_tuples", mat.result},
                    {"peak_intermediate_tuples", mat_stats.peak_live_tuples},
                    {"total_intermediate_tuples",
                     mat_stats.intermediate_tuples}})},
         {"streaming", Json::Of(stream,
                                {{"result_tuples", stream.result},
                                 {"peak_intermediate_tuples",
                                  stats.peak_buffered},
                                 {"tuples_scanned", stats.tuples_scanned}})},
         {"speedup", speedup}}));
  }
  bench::WriteBenchJson("executor", {{"workloads", Json::Array(rows)}});
  return 0;
}
