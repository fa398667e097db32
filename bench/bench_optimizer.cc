// Experiment C7 (Section 5): the algebraic identities as an optimizer.
//
// Shape to check: the rewrites (slice push-down, select fusion,
// distribution over union) cut evaluation time by shrinking intermediate
// results, while answers stay identical (verified in optimizer_test.cc).

#include <benchmark/benchmark.h>

#include "query/executor.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm {
namespace {

storage::Database MakeDb(int tuples, uint64_t seed = 1) {
  Rng rng(seed);
  storage::Database db;
  for (int i = 0; i < 2; ++i) {
    workload::RandomRelationConfig config;
    config.name = "r" + std::to_string(i);
    config.num_tuples = static_cast<size_t>(tuples);
    config.num_value_attrs = 2;
    config.horizon = 200;
    config.key_space = static_cast<size_t>(tuples * 3 / 2);
    auto rel = *workload::MakeRandomRelation(&rng, config);
    (void)db.CreateRelation(rel.scheme());
    for (const Tuple& t : rel) {
      (void)db.Insert(config.name, t);
    }
  }
  return db;
}

const char* kQueries[] = {
    // Narrow slice over a stack of selects: push-down pays.
    "timeslice(select_when(select_when(r0, A0 <= 80), A1 >= 5), {[0,19]})",
    // Slice over union distributes, then fuses with nested slices.
    "timeslice(timeslice(union(r0, r1), {[0,99]}), {[40,60]})",
    // Windowed select-if over set ops.
    "select_if(union(r0, r1), A0 <= 40, exists, {[0,49]})",
    // Projection stack.
    "project(project(r0, Id, A0, A1), Id)",
};

void BM_EvalRaw(benchmark::State& state) {
  storage::Database db = MakeDb(static_cast<int>(state.range(1)));
  auto expr = *query::ParseExpr(kQueries[state.range(0)]);
  const auto pin = db.CurrentVersion();
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::Eval(expr, *pin));
  }
  state.SetLabel(kQueries[state.range(0)]);
}
BENCHMARK(BM_EvalRaw)->ArgsProduct({{0, 1, 2, 3}, {200, 800}});

void BM_EvalOptimized(benchmark::State& state) {
  storage::Database db = MakeDb(static_cast<int>(state.range(1)));
  auto expr = *query::ParseExpr(kQueries[state.range(0)]);
  query::ExprPtr optimized = query::Optimize(expr);
  const auto pin = db.CurrentVersion();
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::Eval(optimized, *pin));
  }
  state.SetLabel(optimized->ToString());
}
BENCHMARK(BM_EvalOptimized)->ArgsProduct({{0, 1, 2, 3}, {200, 800}});

void BM_OptimizeItself(benchmark::State& state) {
  // Rewriting cost: microseconds, amortized over any real execution.
  auto expr = *query::ParseExpr(kQueries[state.range(0)]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::Optimize(expr));
  }
}
BENCHMARK(BM_OptimizeItself)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_ParseQuery(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::ParseExpr(kQueries[state.range(0)]));
  }
}
BENCHMARK(BM_ParseQuery)->Arg(0)->Arg(1);

}  // namespace
}  // namespace hrdm

BENCHMARK_MAIN();
