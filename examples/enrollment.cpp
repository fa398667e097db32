// Enrollment example: temporal referential integrity (Section 1).
//
// "a student can only take a course at time t if both the student and the
// course exist in the database at time t" — this example builds a
// student/course/enrollment database, shows the FK checker accepting a
// valid instance and pinpointing an injected temporal violation, and uses
// TIME-JOIN-style queries over the history.
//
//   $ ./example_enrollment

#include <cstdio>

#include "query/executor.h"
#include "query/parser.h"
#include "storage/database.h"
#include "util/pretty.h"
#include "util/random.h"
#include "workload/generators.h"

using namespace hrdm;

namespace {

#define CHECK_OK(expr)                                        \
  do {                                                        \
    ::hrdm::Status _s = (expr);                               \
    if (!_s.ok()) {                                           \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__,     \
                   __LINE__, _s.ToString().c_str());          \
      return 1;                                               \
    }                                                         \
  } while (false)

int RealMain() {
  // Generate a consistent university database (temporal RI holds by
  // construction).
  Rng rng(2026);
  workload::EnrollmentConfig config;
  config.num_students = 8;
  config.num_courses = 3;
  config.num_enrollments = 10;
  config.horizon = 20;
  auto db_or = workload::MakeEnrollment(&rng, config);
  CHECK_OK(db_or.status());
  storage::Database db = std::move(db_or).value();

  std::printf("%s\n", RenderHistory(**db.Get("student")).c_str());
  std::printf("%s\n", RenderHistory(**db.Get("course")).c_str());
  std::printf("%s\n", RenderHistory(**db.Get("enroll")).c_str());

  // --- Integrity over the temporal dimension -------------------------------
  auto clean = db.CheckIntegrity();
  CHECK_OK(clean.status());
  std::printf("integrity violations in the generated db: %zu\n\n",
              clean->size());

  // Inject a violation: an enrollment for a student who exists, but not
  // over the whole enrollment period.
  auto enroll_scheme = *db.catalog().Get("enroll");
  const Relation& students = **db.Get("student");
  const Tuple& victim = students.tuple(0);
  const std::string sid = victim.KeyValues()[0].AsString();
  const TimePoint after_death = victim.lifespan().Max() + 1;
  if (after_death + 2 < config.horizon) {
    Tuple::Builder b(enroll_scheme,
                     Span(victim.lifespan().Max(), after_death + 2));
    b.SetConstant("EId", Value::String("e_bad"));
    b.SetConstant("SId", Value::String(sid));
    b.SetConstant("CId", Value::String("c0"));
    auto t = std::move(b).Build();
    CHECK_OK(t.status());
    CHECK_OK(db.Insert("enroll", *std::move(t)));

    auto dirty = db.CheckIntegrity();
    CHECK_OK(dirty.status());
    std::printf("after injecting e_bad (enrollment outliving student %s):\n",
                sid.c_str());
    for (const Violation& v : *dirty) {
      std::printf("  %s\n", v.description.c_str());
    }
    std::printf("\n");
  }

  // --- History questions ------------------------------------------------------
  // Queries read a pinned snapshot of the database.
  const auto pin = db.CurrentVersion();
  // Which enrollments were active at chronon 10?
  auto active = query::Run("timeslice(enroll, {[10]})", *pin);
  CHECK_OK(active.status());
  std::printf("enrollments active at t10: %zu\n", active->size());

  // Natural join of enrollments with students over their shared SId: pairs
  // are defined exactly when the enrollment's SId value matches the
  // student's key — i.e. only while both exist (no nulls, Section 5).
  auto joined = query::Run("natjoin(enroll, student)", *pin);
  CHECK_OK(joined.status());
  std::printf("enrollment–student join: %zu history pairs\n",
              joined->size());

  // When was any course being taken by anyone? (WHEN over the enroll
  // relation — the lifespan sort of the multi-sorted algebra.)
  auto when_any = query::EvalLifespan(*query::ParseLsExpr("when(enroll)"),
                                      *pin);
  CHECK_OK(when_any.status());
  std::printf("some enrollment existed during: %s\n",
              when_any->ToString().c_str());
  return 0;
}

}  // namespace

int main() { return RealMain(); }
