#ifndef HRDM_TESTS_DIFFERENTIAL_UTIL_H_
#define HRDM_TESTS_DIFFERENTIAL_UTIL_H_

// The shared differential-oracle harness of the randomized suites
// (tests/join_differential_test.cc, tests/parallel_differential_test.cc,
// tests/aggregate_test.cc): one place for
//
//  * random database generation — the join-shaped four-relation database
//    (`ra`/`rb` equi-join partners, `na`/`nb` natural-join partners with an
//    occasionally time-varying shared attribute `D`) and the
//    union-compatible pair (`r0`/`r1`) the aggregate fuzz uses;
//  * the batch-size axis — every plan execution is swept over
//    `PlanOptions::batch_size` ∈ {auto, 1, 7, 1024} and the rendered
//    output asserted *exactly equal* (`ToString()`, not set-equal) across
//    the axis: batching is a pure performance knob, and because every
//    cursor emits in input order and every parallel merge happens in
//    morsel order, even emission order must not depend on it. The `auto`
//    point doubles as the `HRDM_BATCH_SIZE` hook — CI jobs can re-run the
//    whole differential surface at any batch size without a rebuild. With
//    fuzz relations of 10–15 tuples, sizes 1 and 7 also cover the
//    input > batch regime ISSUE'd for the axis;
//  * the oracle comparison — every swept result is checked set-equal
//    against `EvalMaterializing` (the semantic oracle the plan layer must
//    never drift from) and optionally a whole-relation-API reference.
//
// Seed plumbing stays in tests/test_seeds.h (SeedsFromEnv/SeedTrace): each
// suite keeps its own env var so a red run is a one-command repro.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "storage/database.h"
#include "test_seeds.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm::testing {

/// The batch sizes every differential execution is swept over. 0 = auto
/// (kDefaultBatchSize, or the HRDM_BATCH_SIZE override — the env hook CI
/// uses to re-run the suites at arbitrary sizes); 1 degenerates to
/// tuple-at-a-time, 7 exercises ragged batch boundaries everywhere, 1024
/// is the production default (input ≪ batch on fuzz relations).
inline std::vector<size_t> BatchSizeAxis() { return {0, 1, 7, 1024}; }

/// Lowers and drains `expr` under `options` at every batch size on the
/// axis, asserting the rendered output is byte-identical across the sweep,
/// and returns the result of the first (auto) point. Any lowering or
/// execution error is returned unswallowed — callers decide whether an
/// error is expected (ASSERT_TRUE(result.ok()) or parity-of-errors).
inline Result<Relation> RunBatchInvariant(const storage::Database& db,
                                          const query::ExprPtr& expr,
                                          const query::PlanOptions& options) {
  const storage::DatabaseVersionPtr pin = db.CurrentVersion();
  std::optional<Relation> first;
  size_t first_batch = 0;
  for (size_t batch : BatchSizeAxis()) {
    query::PlanOptions swept = options;
    swept.batch_size = batch;
    HRDM_ASSIGN_OR_RETURN(
        query::Plan plan,
        query::Plan::Lower(expr, query::VersionResolver(*pin), swept));
    HRDM_ASSIGN_OR_RETURN(Relation out, plan.Drain());
    if (!first) {
      first = std::move(out);
      first_batch = batch;
      continue;
    }
    EXPECT_EQ(out.ToString(), first->ToString())
        << "batch size " << batch << " diverges from batch size "
        << first_batch << " — batching must not change results";
  }
  return std::move(*first);
}

/// String-query convenience overload.
inline Result<Relation> RunBatchInvariant(const storage::Database& db,
                                          const std::string& hrql,
                                          const query::PlanOptions& options) {
  HRDM_ASSIGN_OR_RETURN(query::ExprPtr expr, query::ParseExpr(hrql));
  return RunBatchInvariant(db, expr, options);
}

/// The oracle check shared by every suite: `got` (a plan-layer result for
/// `hrql`) must be set-equal to the materializing interpreter's answer,
/// and to `reference` (a whole-relation-API answer) when one is supplied.
inline void ExpectMatchesOracle(const storage::Database& db,
                                const std::string& hrql, const Relation& got,
                                const Relation* reference) {
  auto expr = query::ParseExpr(hrql);
  ASSERT_TRUE(expr.ok()) << hrql << ": " << expr.status().ToString();
  auto materialized = query::EvalMaterializing(
      *expr, query::VersionResolver(*db.CurrentVersion()));
  ASSERT_TRUE(materialized.ok())
      << hrql << ": " << materialized.status().ToString();
  EXPECT_TRUE(materialized->EqualsAsSet(got))
      << hrql << "\nmaterializing oracle:\n"
      << materialized->ToString() << "plan:\n"
      << got.ToString();
  if (reference != nullptr) {
    EXPECT_TRUE(reference->EqualsAsSet(got))
        << hrql << "\nwhole-relation API:\n"
        << reference->ToString() << "plan:\n"
        << got.ToString();
  }
}

/// Tuple counts for RandomJoinStyleDb — the only knobs on which the join
/// and parallel differential databases historically differed.
struct JoinStyleDbConfig {
  size_t ra_tuples = 10;
  size_t na_tuples = 8;
  size_t nb_tuples = 7;
};

/// The four-relation random database both join-shaped suites fuzz over:
///  * `ra(Id*, A0, Ref)` — int attribute A0, time-valued Ref (dynamic
///    TIME-SLICE / TIME-JOIN driver), scan & restriction input;
///  * `rb(Id2*, B0)` — disjoint attribute names, value space overlapping
///    A0's (selective equi-matches);
///  * `na(NId*, D, X)` / `nb(MId*, D, Y)` — one shared attribute D for
///    NATURAL-JOIN and GROUP-BY, where ~30% of D values flip mid-lifespan
///    (the digest fallback paths, under every strategy and parallelism).
inline storage::Database RandomJoinStyleDb(uint64_t seed,
                                           const JoinStyleDbConfig& cfg) {
  Rng rng(seed);
  storage::Database db;
  const TimePoint horizon = 60;
  const Lifespan full = Span(0, horizon - 1);

  workload::RandomRelationConfig ca;
  ca.name = "ra";
  ca.num_tuples = cfg.ra_tuples;
  ca.num_value_attrs = 1;
  ca.with_time_attribute = true;
  ca.key_prefix = "x";
  auto ra = *workload::MakeRandomRelation(&rng, ca);
  EXPECT_TRUE(db.CreateRelation(ra.scheme()).ok());
  for (const Tuple& t : ra) EXPECT_TRUE(db.Insert("ra", t).ok());

  // rb mirrors another random relation under renamed (disjoint) attributes.
  workload::RandomRelationConfig cb = ca;
  cb.name = "rb";
  cb.key_prefix = "y";
  cb.with_time_attribute = false;
  auto src = *workload::MakeRandomRelation(&rng, cb);
  auto rb_scheme = *RelationScheme::Make(
      "rb",
      {{"Id2", DomainType::kString, full, InterpolationKind::kDiscrete},
       {"B0", DomainType::kInt, full, InterpolationKind::kStepwise}},
      {"Id2"});
  EXPECT_TRUE(db.CreateRelation(rb_scheme).ok());
  for (const Tuple& t : src) {
    std::vector<TemporalValue> vals = {t.value(0), t.value(1)};
    EXPECT_TRUE(
        db.Insert("rb", Tuple::FromParts(rb_scheme, t.lifespan(), vals))
            .ok());
  }

  // Natural-join pair sharing attribute D (small int range → real matches).
  auto na_scheme = *RelationScheme::Make(
      "na",
      {{"NId", DomainType::kString, full, InterpolationKind::kDiscrete},
       {"D", DomainType::kInt, full, InterpolationKind::kStepwise},
       {"X", DomainType::kInt, full, InterpolationKind::kStepwise}},
      {"NId"});
  auto nb_scheme = *RelationScheme::Make(
      "nb",
      {{"MId", DomainType::kString, full, InterpolationKind::kDiscrete},
       {"D", DomainType::kInt, full, InterpolationKind::kStepwise},
       {"Y", DomainType::kInt, full, InterpolationKind::kStepwise}},
      {"MId"});
  EXPECT_TRUE(db.CreateRelation(na_scheme).ok());
  EXPECT_TRUE(db.CreateRelation(nb_scheme).ok());
  auto fill = [&](const char* rel, const SchemePtr& scheme, const char* key,
                  const char* val, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const TimePoint b = rng.Uniform(0, horizon - 10);
      const TimePoint e = std::min<TimePoint>(b + rng.Uniform(3, 25),
                                              horizon - 1);
      Tuple::Builder tb(scheme, Span(b, e));
      std::string id(key);
      id += std::to_string(i);
      tb.SetConstant(scheme->attribute(0).name, Value::String(std::move(id)));
      if (rng.Chance(0.3)) {
        // A D that changes value mid-lifespan: exercises the hash join's
        // and the grouping kernel's varying-attribute fallbacks on random
        // data.
        const TimePoint mid = b + (e - b) / 2;
        std::vector<Segment> segs;
        segs.push_back({Interval(b, mid), Value::Int(rng.Uniform(0, 4))});
        if (mid + 1 <= e) {
          segs.push_back(
              {Interval(mid + 1, e), Value::Int(rng.Uniform(0, 4))});
        }
        tb.Set("D", *TemporalValue::FromSegments(std::move(segs)));
      } else {
        tb.SetConstant("D", Value::Int(rng.Uniform(0, 4)));
      }
      tb.SetConstant(val, Value::Int(rng.Uniform(0, 99)));
      EXPECT_TRUE(db.Insert(rel, *std::move(tb).Build()).ok());
    }
  };
  fill("na", na_scheme, "n", "X", cfg.na_tuples);
  fill("nb", nb_scheme, "m", "Y", cfg.nb_tuples);
  return db;
}

/// Two union-compatible random relations r0/r1 (overlapping key spaces,
/// random ALS gaps, varying int attributes, a time-valued Ref) — the
/// aggregate fuzz database.
inline storage::Database RandomUnionCompatibleDb(uint64_t seed) {
  Rng rng(seed);
  storage::Database db;
  for (int i = 0; i < 2; ++i) {
    workload::RandomRelationConfig config;
    config.name = "r" + std::to_string(i);
    config.num_tuples = 15;
    config.num_value_attrs = 2;
    config.horizon = 60;
    config.with_time_attribute = true;
    config.random_attribute_lifespans = true;
    config.key_space = 22;  // overlap between r0 and r1
    auto rel = workload::MakeRandomRelation(&rng, config);
    EXPECT_TRUE(rel.ok());
    EXPECT_TRUE(db.CreateRelation(rel->scheme()).ok());
    for (const Tuple& t : *rel) {
      EXPECT_TRUE(db.Insert(config.name, t).ok());
    }
  }
  return db;
}

/// The default 100-seed list (1..100) the randomized suites share.
inline std::vector<uint64_t> DefaultFuzzSeeds() {
  std::vector<uint64_t> seeds(100);
  for (size_t i = 0; i < seeds.size(); ++i) seeds[i] = i + 1;
  return seeds;
}

}  // namespace hrdm::testing

#endif  // HRDM_TESTS_DIFFERENTIAL_UTIL_H_
