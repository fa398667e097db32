// Experiment C5 (Sections 4.6 and 5): physical join strategies.
//
// Shape to check: on selective equi-joins the hash strategy must beat the
// product (nested-loop) strategy by avoiding the |r1|·|r2| pair space —
// ≥5× at the larger sizes — while PlanStats confirms it buffers only its
// build side; the TIME-JOIN merge strategy must beat nested loop by
// frontier pruning. All strategies return identical answers (the
// differential suite asserts that; here we measure the cost gap).
//
// Writes BENCH_join.json (per-strategy throughput and latency, result
// tuples, peak intermediate tuples, pairs tested).

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

struct Workload {
  const char* name;
  const char* hrql;
  size_t tuples;
  int64_t value_space;       // selectivity knob
  query::JoinStrategy optimized;  // what the chooser picks for this shape
  int product_reps;          // the O(n²) baseline gets fewer
  int optimized_reps;
};

/// Times `expr` under a forced join strategy; `stats` gets its PlanStats.
bench::Timing RunStrategy(const storage::Database& db,
                          const query::ExprPtr& expr,
                          query::JoinStrategy strategy, int reps,
                          query::PlanStats* stats) {
  const auto pin = db.CurrentVersion();
  query::PlanOptions options;
  options.force_join_strategy = strategy;
  return bench::TimePlan(expr, query::VersionResolver(*pin), options, reps,
                         stats);
}

bench::Json PathJson(const bench::Timing& t, const query::PlanStats& stats) {
  return bench::Json::Of(t, {{"result_tuples", t.result},
                             {"peak_intermediate_tuples", stats.peak_buffered},
                             {"pairs_tested", stats.join_pairs_tested}});
}

}  // namespace
}  // namespace hrdm

int main() {
  using namespace hrdm;
  using query::JoinStrategy;

  const Workload workloads[] = {
      // Selectivity sweep at a fixed size: the hash win grows as the value
      // space widens (fewer matching pairs for the same pair space).
      {"equijoin_dense_1k", "join(lft, rgt, LV = RV)", 1000, 8,
       JoinStrategy::kHash, 3, 3},
      {"equijoin_mid_1k", "join(lft, rgt, LV = RV)", 1000, 128,
       JoinStrategy::kHash, 3, 10},
      {"equijoin_selective_1k", "join(lft, rgt, LV = RV)", 1000, 2048,
       JoinStrategy::kHash, 3, 20},
      // Size sweep at high selectivity: the acceptance shape.
      {"equijoin_selective_3k", "join(lft, rgt, LV = RV)", 3000, 8192,
       JoinStrategy::kHash, 1, 10},
      {"equijoin_selective_10k", "join(lft, rgt, LV = RV)", 10000, 32768,
       JoinStrategy::kHash, 1, 5},
      // TIME-JOIN: merge frontier vs nested loop.
      {"timejoin_1k", "timejoin(lft, rgt, Ref)", 1000, 64,
       JoinStrategy::kMerge, 3, 3},
      {"timejoin_3k", "timejoin(lft, rgt, Ref)", 3000, 64,
       JoinStrategy::kMerge, 1, 2},
  };

  std::vector<bench::Json> rows;
  for (const Workload& w : workloads) {
    const auto db = MakeJoinDb(w.tuples, w.value_space, /*seed=*/1);
    const query::ExprPtr expr = *query::ParseExpr(w.hrql);
    query::PlanStats product_stats;
    query::PlanStats stats;
    const bench::Timing product = RunStrategy(
        db, expr, JoinStrategy::kNestedLoop, w.product_reps, &product_stats);
    const bench::Timing optimized =
        RunStrategy(db, expr, w.optimized, w.optimized_reps, &stats);
    const double speedup = optimized.ops_per_sec / product.ops_per_sec;
    const std::string strategy(query::JoinStrategyName(w.optimized));

    std::printf(
        "%-24s %6zu x %-6zu | product %9.2f ops/s (%10zu pairs) | "
        "%-5s %9.2f ops/s (%9zu pairs, peak %6zu) | %.2fx\n",
        w.name, w.tuples, w.tuples, product.ops_per_sec,
        product_stats.join_pairs_tested, strategy.c_str(),
        optimized.ops_per_sec, stats.join_pairs_tested, stats.peak_buffered,
        speedup);
    rows.push_back(bench::Json::Object(
        {{"name", w.name},
         {"tuples", w.tuples},
         {"value_space", w.value_space},
         {"strategy", strategy},
         {"product", PathJson(product, product_stats)},
         {"optimized", PathJson(optimized, stats)},
         {"speedup", speedup}}));
  }
  bench::WriteBenchJson("join", {{"workloads", bench::Json::Array(rows)}});
  return 0;
}
