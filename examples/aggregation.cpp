// Temporal aggregation walkthrough: grouped, time-varying aggregates over
// a generated personnel history, driven end-to-end through the HRQL shell
// path (parse → optimize → streaming plan → drain) via query::Run, plus
// one manually lowered plan to show the aggregate's EXPLAIN counters.
//
//   $ ./build/example_aggregation

#include <cstdio>
#include <string>

#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "util/pretty.h"
#include "util/random.h"
#include "workload/generators.h"

using namespace hrdm;

namespace {

void RunAndPrint(const storage::Database& db, const std::string& hrql) {
  std::printf("hrdm> %s\n", hrql.c_str());
  auto result = query::Run(hrql, *db.CurrentVersion());
  if (!result.ok()) {
    std::printf("error: %s\n\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%s(%zu tuples)\n\n", RenderHistory(*result).c_str(),
              result->size());
}

}  // namespace

int main() {
  // The paper's personnel story: hires, fires, re-hires (reincarnation),
  // stepwise salary and department histories.
  Rng rng(7);
  storage::Database db;
  workload::PersonnelConfig config;
  config.num_employees = 25;
  auto emp = *workload::MakePersonnel(&rng, config);
  (void)db.CreateRelation(emp.scheme());
  for (const Tuple& t : emp) (void)db.Insert("emp", t);

  std::printf("== Head count over time (one historical tuple) ==\n");
  RunAndPrint(db, "aggregate(emp, count)");

  std::printf("== Head count per department ==\n");
  RunAndPrint(db, "aggregate(emp, count by Dept)");

  std::printf("== Average salary per department (a timeline per group) ==\n");
  RunAndPrint(db, "aggregate(emp, avg Salary by Dept)");

  std::printf("== Composed: top-earning departments, mid-history only ==\n");
  RunAndPrint(db,
              "aggregate(timeslice(select_when(emp, Salary >= 120000), "
              "{[30, 70]}), count by Dept)");

  // The same query, lowered by hand, to inspect the aggregate cursor's
  // PlanStats — the EXPLAIN view of the streaming execution.
  const std::string hrql = "aggregate(emp, count by Dept)";
  auto expr = query::ParseExpr(hrql);
  const auto pin = db.CurrentVersion();
  auto plan = query::Plan::Lower(*expr, query::VersionResolver(*pin),
                                 query::VersionPlanOptions(*pin));
  if (plan.ok()) {
    auto out = plan->Drain();
    const query::PlanStats& s = plan->stats();
    std::printf("== EXPLAIN %s ==\n", hrql.c_str());
    std::printf("tuples_scanned       = %zu\n", s.tuples_scanned);
    std::printf("agg_groups_estimated = %zu\n", s.agg_groups_estimated);
    std::printf("agg_groups_built     = %zu\n", s.agg_groups_built);
    std::printf("agg_fallback_tuples  = %zu  (dept changed mid-lifespan)\n",
                s.agg_fallback_tuples);
    std::printf("peak_buffered        = %zu\n", s.peak_buffered);
    std::printf("tuples_returned      = %zu\n", s.tuples_returned);
  }
  return 0;
}
