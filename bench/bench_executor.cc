// Experiment E1: streaming (cursor pipeline) vs materializing (recursive
// interpreter) execution of the same HRQL trees.
//
// Shape to check: deep unary pipelines — the shape the optimizer's
// push-down rules produce — stream end-to-end with zero intermediate
// relations, so the cursor path should win by avoiding per-stage
// InsertDedup hashing and relation construction; blocking shapes (set ops)
// should be roughly even, since both paths run the same whole-relation
// kernels.
//
// Unlike the other benches this is a self-contained harness (no
// google-benchmark): it emits machine-readable BENCH_executor.json
// (ops/sec and peak intermediate tuple counts per path) so later PRs can
// track the perf trajectory.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "query/executor.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/plan.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm {
namespace {

using Clock = std::chrono::steady_clock;

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

struct PathResult {
  double ops_per_sec = 0;
  size_t result_tuples = 0;
  size_t peak_intermediate = 0;
  size_t total_intermediate = 0;  // materializing only
  size_t tuples_scanned = 0;      // streaming only
};

struct Workload {
  std::string name;
  std::string hrql;
  size_t tuples;
  int iterations;
  PathResult materializing;
  PathResult streaming;
  double speedup = 0;
};

PathResult RunMaterializing(const query::ExprPtr& expr,
                            const storage::Database& db, int iterations) {
  PathResult out;
  const auto pin = db.CurrentVersion();
  const query::PlanResolver resolver = query::VersionResolver(*pin);
  // Warm-up + stats from a single instrumented run.
  query::EvalStats stats;
  auto warm = query::EvalMaterializing(expr, resolver, &stats);
  if (!warm.ok()) {
    std::fprintf(stderr, "materializing eval failed: %s\n",
                 warm.status().ToString().c_str());
    return out;
  }
  out.result_tuples = warm->size();
  out.peak_intermediate = stats.peak_live_tuples;
  out.total_intermediate = stats.intermediate_tuples;
  const auto start = Clock::now();
  for (int i = 0; i < iterations; ++i) {
    auto r = query::EvalMaterializing(expr, resolver);
    if (!r.ok() || r->size() != out.result_tuples) std::abort();
  }
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  out.ops_per_sec = iterations / elapsed.count();
  return out;
}

PathResult RunStreaming(const query::ExprPtr& expr,
                        const storage::Database& db, int iterations) {
  PathResult out;
  const auto pin = db.CurrentVersion();
  const query::PlanResolver resolver = query::VersionResolver(*pin);
  {
    auto plan = query::Plan::Lower(expr, resolver);
    if (!plan.ok()) {
      std::fprintf(stderr, "lowering failed: %s\n",
                   plan.status().ToString().c_str());
      return out;
    }
    auto warm = plan->Drain();
    if (!warm.ok()) {
      std::fprintf(stderr, "streaming eval failed: %s\n",
                   warm.status().ToString().c_str());
      return out;
    }
    out.result_tuples = warm->size();
    out.peak_intermediate = plan->stats().peak_buffered;
    out.tuples_scanned = plan->stats().tuples_scanned;
  }
  const auto start = Clock::now();
  for (int i = 0; i < iterations; ++i) {
    auto r = query::Eval(expr, *pin);
    if (!r.ok() || r->size() != out.result_tuples) std::abort();
  }
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  out.ops_per_sec = iterations / elapsed.count();
  return out;
}

void AppendPathJson(std::string* json, const char* key, const PathResult& p,
                    bool streaming) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"ops_per_sec\": %.2f, \"result_tuples\": "
                "%zu, \"peak_intermediate_tuples\": %zu, ",
                key, p.ops_per_sec, p.result_tuples, p.peak_intermediate);
  *json += buf;
  if (streaming) {
    std::snprintf(buf, sizeof(buf), "\"tuples_scanned\": %zu}",
                  p.tuples_scanned);
  } else {
    std::snprintf(buf, sizeof(buf), "\"total_intermediate_tuples\": %zu}",
                  p.total_intermediate);
  }
  *json += buf;
}

}  // namespace
}  // namespace hrdm

int main() {
  using namespace hrdm;

  std::vector<Workload> workloads = {
      // The acceptance shape: a deep unary pipeline the optimizer produces
      // via push-down. Streams end-to-end.
      {"deep_unary_pipeline",
       "project(select_when(timeslice(r0, {[20,160]}), A0 >= 30), Id, A0)",
       4000, 30, {}, {}, 0},
      {"deep_unary_pipeline_small",
       "project(select_when(timeslice(r0, {[20,160]}), A0 >= 30), Id, A0)",
       500, 200, {}, {}, 0},
      // Five-operator chain with a dynamic slice.
      {"five_stage_chain",
       "project(select_if(select_when(timeslice(r0, {[0,180]}), A1 >= 10), "
       "A2 < 95, exists), Id, A2)",
       2000, 30, {}, {}, 0},
      // Pure filter (SELECT-IF passes whole tuples through by pointer).
      {"select_if_only", "select_if(r0, A0 >= 50, exists)", 4000, 30, {}, {},
       0},
      // Blocking shape: both paths run the same whole-relation kernel.
      {"union_blocking", "union(r0, r1)", 2000, 20, {}, {}, 0},
  };

  std::string json = "{\n  \"benchmark\": \"executor\",\n  \"workloads\": [\n";
  bool first = true;
  for (Workload& w : workloads) {
    auto db = MakeDb(w.tuples);
    auto expr = query::ParseExpr(w.hrql);
    if (!expr.ok()) {
      std::fprintf(stderr, "parse failed for %s: %s\n", w.name.c_str(),
                   expr.status().ToString().c_str());
      return 1;
    }
    w.materializing = RunMaterializing(*expr, db, w.iterations);
    w.streaming = RunStreaming(*expr, db, w.iterations);
    w.speedup = w.materializing.ops_per_sec > 0
                    ? w.streaming.ops_per_sec / w.materializing.ops_per_sec
                    : 0;

    std::printf(
        "%-26s %6zu tuples | mat %8.1f ops/s (peak %6zu interm) | "
        "stream %8.1f ops/s (peak %3zu interm) | %.2fx\n",
        w.name.c_str(), w.tuples, w.materializing.ops_per_sec,
        w.materializing.peak_intermediate, w.streaming.ops_per_sec,
        w.streaming.peak_intermediate, w.speedup);

    if (!first) json += ",\n";
    first = false;
    json += "    {\n      \"name\": \"" + w.name + "\",\n";
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "      \"tuples\": %zu,\n      \"iterations\": %d,\n",
                  w.tuples, w.iterations);
    json += buf;
    AppendPathJson(&json, "materializing", w.materializing, false);
    json += ",\n";
    AppendPathJson(&json, "streaming", w.streaming, true);
    std::snprintf(buf, sizeof(buf), ",\n      \"speedup\": %.3f\n    }",
                  w.speedup);
    json += buf;
  }
  json += "\n  ]\n}\n";

  std::FILE* f = std::fopen("BENCH_executor.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_executor.json\n");
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote BENCH_executor.json\n");
  return 0;
}
