// Experiment C5 (Sections 4.6 and 5): physical join strategies.
//
// Shape to check: on selective equi-joins the hash strategy must beat the
// product (nested-loop) strategy by avoiding the |r1|·|r2| pair space —
// ≥5× at the larger sizes — while PlanStats confirms it buffers only its
// build side; the TIME-JOIN merge strategy must beat nested loop by
// frontier pruning. All strategies return identical answers (the
// differential suite asserts that; here we measure the cost gap).
//
// Like bench_executor this is a self-contained harness (no
// google-benchmark): it emits machine-readable BENCH_join.json in the same
// shape as BENCH_executor.json (per-path ops/sec, result tuples, peak
// intermediate tuples) so later PRs can track the perf trajectory.

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
using query::JoinStrategy;

constexpr TimePoint kHorizon = 200;

/// Builds `lft(LId*, LV, Ref)` and `rgt(RId*, RV)` with `tuples` rows each.
/// LV/RV are constant ints drawn from [0, value_space): the expected number
/// of equi-matching pairs is |l|·|r| / value_space, so value_space IS the
/// selectivity knob. Ref is a time value for the TIME-JOIN workloads.
storage::Database MakeJoinDb(size_t tuples, int64_t value_space,
                             uint64_t seed) {
  Rng rng(seed);
  storage::Database db;
  const Lifespan full = Span(0, kHorizon - 1);
  auto lft = *RelationScheme::Make(
      "lft",
      {{"LId", DomainType::kString, full, InterpolationKind::kDiscrete},
       {"LV", DomainType::kInt, full, InterpolationKind::kStepwise},
       {"Ref", DomainType::kTime, full, InterpolationKind::kStepwise}},
      {"LId"});
  auto rgt = *RelationScheme::Make(
      "rgt",
      {{"RId", DomainType::kString, full, InterpolationKind::kDiscrete},
       {"RV", DomainType::kInt, full, InterpolationKind::kStepwise}},
      {"RId"});
  (void)db.CreateRelation(lft);
  (void)db.CreateRelation(rgt);
  for (size_t i = 0; i < tuples; ++i) {
    const TimePoint b = rng.Uniform(0, kHorizon - 40);
    const TimePoint e = b + rng.Uniform(10, 39);
    {
      Tuple::Builder tb(lft, Span(b, e));
      tb.SetConstant("LId", Value::String("l" + std::to_string(i)));
      tb.SetConstant("LV", Value::Int(rng.Uniform(0, value_space - 1)));
      tb.SetConstant("Ref", Value::Time(rng.Uniform(0, kHorizon - 1)));
      (void)db.Insert("lft", *std::move(tb).Build());
    }
    {
      Tuple::Builder tb(rgt, Span(b, e));
      tb.SetConstant("RId", Value::String("r" + std::to_string(i)));
      tb.SetConstant("RV", Value::Int(rng.Uniform(0, value_space - 1)));
      (void)db.Insert("rgt", *std::move(tb).Build());
    }
  }
  return db;
}

struct PathResult {
  double ops_per_sec = 0;
  size_t result_tuples = 0;
  size_t peak_intermediate = 0;
  size_t pairs_tested = 0;
};

/// Runs `hrql` under a forced strategy `iterations` times.
PathResult RunStrategy(const storage::Database& db, const std::string& hrql,
                       JoinStrategy strategy, int iterations) {
  PathResult out;
  auto expr = query::ParseExpr(hrql);
  if (!expr.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 expr.status().ToString().c_str());
    return out;
  }
  const auto pin = db.CurrentVersion();
  const query::PlanResolver resolver = query::VersionResolver(*pin);
  query::PlanOptions options;
  options.force_join_strategy = strategy;
  {
    // Warm-up + stats from one instrumented run.
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
    out.peak_intermediate = plan->stats().peak_buffered;
    out.pairs_tested = plan->stats().join_pairs_tested;
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

struct Workload {
  std::string name;
  std::string hrql;
  size_t tuples;
  int64_t value_space;       // selectivity knob (0 = n/a)
  JoinStrategy optimized;    // what the chooser picks for this shape
  int product_iterations;    // the O(n²) baseline gets fewer
  int optimized_iterations;
  PathResult product;
  PathResult strategy;
  double speedup = 0;
};

void AppendPathJson(std::string* json, const char* key, const PathResult& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"ops_per_sec\": %.2f, \"result_tuples\": "
                "%zu, \"peak_intermediate_tuples\": %zu, "
                "\"pairs_tested\": %zu}",
                key, p.ops_per_sec, p.result_tuples, p.peak_intermediate,
                p.pairs_tested);
  *json += buf;
}

}  // namespace
}  // namespace hrdm

int main() {
  using namespace hrdm;
  using query::JoinStrategy;

  std::vector<Workload> workloads = {
      // Selectivity sweep at a fixed size: the hash win grows as the value
      // space widens (fewer matching pairs for the same pair space).
      {"equijoin_dense_1k", "join(lft, rgt, LV = RV)", 1000, 8,
       JoinStrategy::kHash, 3, 3, {}, {}, 0},
      {"equijoin_mid_1k", "join(lft, rgt, LV = RV)", 1000, 128,
       JoinStrategy::kHash, 3, 10, {}, {}, 0},
      {"equijoin_selective_1k", "join(lft, rgt, LV = RV)", 1000, 2048,
       JoinStrategy::kHash, 3, 20, {}, {}, 0},
      // Size sweep at high selectivity: the acceptance shape.
      {"equijoin_selective_3k", "join(lft, rgt, LV = RV)", 3000, 8192,
       JoinStrategy::kHash, 1, 10, {}, {}, 0},
      {"equijoin_selective_10k", "join(lft, rgt, LV = RV)", 10000, 32768,
       JoinStrategy::kHash, 1, 5, {}, {}, 0},
      // TIME-JOIN: merge frontier vs nested loop.
      {"timejoin_1k", "timejoin(lft, rgt, Ref)", 1000, 64,
       JoinStrategy::kMerge, 3, 3, {}, {}, 0},
      {"timejoin_3k", "timejoin(lft, rgt, Ref)", 3000, 64,
       JoinStrategy::kMerge, 1, 2, {}, {}, 0},
  };

  std::string json = "{\n  \"benchmark\": \"join\",\n  \"workloads\": [\n";
  bool first = true;
  for (Workload& w : workloads) {
    auto db = MakeJoinDb(w.tuples, w.value_space, /*seed=*/1);
    w.product = RunStrategy(db, w.hrql, JoinStrategy::kNestedLoop,
                            w.product_iterations);
    w.strategy = RunStrategy(db, w.hrql, w.optimized,
                             w.optimized_iterations);
    w.speedup = w.product.ops_per_sec > 0
                    ? w.strategy.ops_per_sec / w.product.ops_per_sec
                    : 0;

    std::printf(
        "%-24s %6zu x %-6zu | product %9.2f ops/s (%10zu pairs) | "
        "%-5s %9.2f ops/s (%9zu pairs, peak %6zu) | %.2fx\n",
        w.name.c_str(), w.tuples, w.tuples, w.product.ops_per_sec,
        w.product.pairs_tested,
        std::string(query::JoinStrategyName(w.optimized)).c_str(),
        w.strategy.ops_per_sec, w.strategy.pairs_tested,
        w.strategy.peak_intermediate, w.speedup);

    if (!first) json += ",\n";
    first = false;
    json += "    {\n      \"name\": \"" + w.name + "\",\n";
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "      \"tuples\": %zu,\n      \"value_space\": %lld,\n"
                  "      \"strategy\": \"%s\",\n",
                  w.tuples, static_cast<long long>(w.value_space),
                  std::string(query::JoinStrategyName(w.optimized)).c_str());
    json += buf;
    AppendPathJson(&json, "product", w.product);
    json += ",\n";
    AppendPathJson(&json, "optimized", w.strategy);
    std::snprintf(buf, sizeof(buf), ",\n      \"speedup\": %.3f\n    }",
                  w.speedup);
    json += buf;
  }
  json += "\n  ]\n}\n";

  std::FILE* f = std::fopen("BENCH_join.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_join.json\n");
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote BENCH_join.json\n");
  return 0;
}
