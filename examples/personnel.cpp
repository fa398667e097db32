// Personnel example: the paper's Section 1 motivation end-to-end.
//
// "employees can be hired, fired, and subsequently re-hired" — this example
// drives the storage engine through an employee's full life-cycle (birth,
// temporal updates, death, reincarnation), enforces the "salary must never
// decrease" constraint of Section 5, and answers history questions with
// the algebra and HRQL.
//
//   $ ./example_personnel

#include <cstdio>
#include <string>

#include "algebra/when.h"
#include "constraints/constraints.h"
#include "query/executor.h"
#include "query/parser.h"
#include "storage/database.h"
#include "storage/snapshot.h"
#include "util/pretty.h"

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

int RealMain() {
  storage::Database db;
  const Lifespan horizon = Span(2000, 2026);  // chronons are years here

  CHECK_OK(db.CreateRelation(
      "emp",
      {{"Name", DomainType::kString, horizon, InterpolationKind::kDiscrete},
       {"Salary", DomainType::kInt, horizon, InterpolationKind::kStepwise},
       {"Dept", DomainType::kString, horizon,
        InterpolationKind::kStepwise}},
      {"Name"}));
  // Access paths for time-slice and department lookups. Every mutation
  // below keeps them in sync; the snapshot file at the end keeps their
  // registrations.
  CHECK_OK(db.CreateLifespanIndex("emp"));
  CHECK_OK(db.CreateValueIndex("emp", "Dept"));

  // --- Birth: john is hired in 2001 ---------------------------------------
  auto scheme = *db.catalog().Get("emp");
  {
    Tuple::Builder b(scheme, Span(2001, 2026));
    b.SetConstant("Name", Value::String("john"));
    b.SetAt("Salary", 2001, Value::Int(40000));
    b.SetAt("Dept", 2001, Value::String("tools"));
    auto t = std::move(b).Build();
    CHECK_OK(t.status());
    CHECK_OK(db.Insert("emp", *std::move(t)));
  }
  // Raises and a transfer, written as temporal updates.
  const std::vector<Value> john = {Value::String("john")};
  CHECK_OK(db.Assign("emp", john, "Salary", Span(2004, 2026),
                     Value::Int(55000)));
  CHECK_OK(db.Assign("emp", john, "Dept", Span(2005, 2026),
                     Value::String("toys")));

  // --- Death: fired in 2008 -------------------------------------------------
  CHECK_OK(db.EndLifespan("emp", john, 2008));

  // --- Reincarnation: re-hired 2015, history resumes ------------------------
  CHECK_OK(db.Reincarnate("emp", john, Span(2015, 2026)));
  CHECK_OK(db.Assign("emp", john, "Salary", Span(2015, 2026),
                     Value::Int(70000)));
  CHECK_OK(db.Assign("emp", john, "Dept", Span(2015, 2026),
                     Value::String("tools")));

  // A colleague for contrast.
  {
    Tuple::Builder b(scheme, Span(2003, 2026));
    b.SetConstant("Name", Value::String("mary"));
    b.SetAt("Salary", 2003, Value::Int(60000));
    b.SetAt("Salary", 2010, Value::Int(90000));
    b.SetAt("Dept", 2003, Value::String("tools"));
    auto t = std::move(b).Build();
    CHECK_OK(t.status());
    CHECK_OK(db.Insert("emp", *std::move(t)));
  }

  const Relation& emp = **db.Get("emp");
  std::printf("%s\n", RenderHistory(emp).c_str());

  // The lifespan records the firing gap — the paper's "death is not
  // necessarily terminal".
  const Tuple& john_t = emp.tuple(*emp.FindByKey(john));
  std::printf("john's lifespan: %s\n\n",
              john_t.lifespan().ToString().c_str());

  // --- Integrity: salary never decreases (Section 5) ------------------------
  auto violations = CheckMonotone(emp, "Salary", /*non_decreasing=*/true);
  CHECK_OK(violations.status());
  std::printf("salary-never-decreases violations: %zu\n",
              violations->size());
  for (const Violation& v : *violations) {
    std::printf("  %s\n", v.description.c_str());
  }

  // --- Queries ---------------------------------------------------------------
  // Queries read a pinned snapshot of the database.
  const auto pin = db.CurrentVersion();
  // When did john work in tools? (HRQL, multi-sorted: WHEN returns a
  // lifespan.)
  auto tools_times = query::EvalLifespan(
      *query::ParseLsExpr(
          R"(when(select_when(emp, Name = "john" and Dept = "tools")))"),
      *pin);
  CHECK_OK(tools_times.status());
  std::printf("\njohn in tools WHEN: %s\n",
              tools_times->ToString().c_str());

  // Who was employed in 2012 (while john was gone)?
  auto in_2012 = query::Run("timeslice(emp, {[2012]})", *pin);
  CHECK_OK(in_2012.status());
  std::printf("\n%s\n", RenderSnapshot(*in_2012, 2012).c_str());

  // Who ever earned at least 65000, and over which periods?
  auto high = query::Run("select_when(emp, Salary >= 65000)", *pin);
  CHECK_OK(high.status());
  std::printf("%s\n", RenderHistory(*high).c_str());

  // --- Persistence -------------------------------------------------------------
  // A snapshot file holds the data image plus the index registrations;
  // loading it rebuilds the indexes from the decoded relations.
  const std::string path = "/tmp/personnel_snapshot.hrdm";
  CHECK_OK(storage::WriteSnapshotFile(path, db));
  auto reloaded = storage::ReadSnapshotFile(path);
  std::remove(path.c_str());
  CHECK_OK(reloaded.status());
  const auto indexes = db.catalog().Indexes("emp");
  const auto reloaded_indexes = reloaded->catalog().Indexes("emp");
  const bool same =
      reloaded->ToString() == db.ToString() && indexes.has_value() &&
      reloaded_indexes.has_value() &&
      reloaded_indexes->lifespan == indexes->lifespan &&
      reloaded_indexes->value_attrs == indexes->value_attrs;
  std::printf("snapshot round-trip ok: %s\n", same ? "yes" : "NO");
  return same ? 0 : 1;
}

}  // namespace

int main() { return RealMain(); }
