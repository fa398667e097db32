// Temporal aggregation walkthrough: grouped, time-varying aggregates over
// a generated personnel history, driven end-to-end through the HRQL shell
// path (parse → lower to a streaming plan → drain) via query::Run, plus
// one manually lowered plan to show the aggregate's EXPLAIN counters.
//
//   $ ./build/example_aggregation
//
// Exits 1, naming the failing step on stderr, if any step fails.

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

#define CHECK_OK(expr)                                          \
  do {                                                          \
    ::hrdm::Status _s = (expr);                                 \
    if (!_s.ok()) {                                             \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__,       \
                   __LINE__, _s.ToString().c_str());            \
      return 1;                                                 \
    }                                                           \
  } while (false)

Status RunAndPrint(const storage::Database& db, const std::string& hrql) {
  std::printf("hrdm> %s\n", hrql.c_str());
  auto result = query::Run(hrql, *db.CurrentVersion());
  if (!result.ok()) return result.status();
  std::printf("%s(%zu tuples)\n\n", RenderHistory(*result).c_str(),
              result->size());
  return Status::OK();
}

int RealMain() {
  // The paper's personnel story: hires, fires, re-hires (reincarnation),
  // stepwise salary and department histories.
  Rng rng(7);
  storage::Database db;
  workload::PersonnelConfig config;
  config.num_employees = 25;
  auto emp = workload::MakePersonnel(&rng, config);
  CHECK_OK(emp.status());
  CHECK_OK(db.CreateRelation(emp->scheme()));
  for (const Tuple& t : *emp) CHECK_OK(db.Insert("emp", t));

  std::printf("== Head count over time (one historical tuple) ==\n");
  CHECK_OK(RunAndPrint(db, "aggregate(emp, count)"));

  std::printf("== Head count per department ==\n");
  CHECK_OK(RunAndPrint(db, "aggregate(emp, count by Dept)"));

  std::printf("== Average salary per department (a timeline per group) ==\n");
  CHECK_OK(RunAndPrint(db, "aggregate(emp, avg Salary by Dept)"));

  std::printf("== Composed: top-earning departments, mid-history only ==\n");
  CHECK_OK(RunAndPrint(db,
                       "aggregate(timeslice(select_when(emp, Salary >= "
                       "120000), {[30, 70]}), count by Dept)"));

  // The same query, lowered by hand, to inspect the aggregate cursor's
  // PlanStats — the EXPLAIN view of the streaming execution.
  const std::string hrql = "aggregate(emp, count by Dept)";
  auto expr = query::ParseExpr(hrql);
  CHECK_OK(expr.status());
  const auto pin = db.CurrentVersion();
  auto plan = query::Plan::Lower(*expr, query::VersionResolver(*pin),
                                 query::VersionPlanOptions(*pin));
  CHECK_OK(plan.status());
  CHECK_OK(plan->Drain().status());
  const query::PlanStats& s = plan->stats();
  std::printf("== EXPLAIN %s ==\n", hrql.c_str());
  std::printf("tuples_scanned       = %zu\n", s.tuples_scanned);
  std::printf("agg_groups_estimated = %zu\n", s.agg_groups_estimated);
  std::printf("agg_groups_built     = %zu\n", s.agg_groups_built);
  std::printf("agg_fallback_tuples  = %zu  (dept changed mid-lifespan)\n",
              s.agg_fallback_tuples);
  std::printf("peak_buffered        = %zu\n", s.peak_buffered);
  std::printf("tuples_returned      = %zu\n", s.tuples_returned);
  return 0;
}

}  // namespace

int main() { return RealMain(); }
