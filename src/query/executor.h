#ifndef HRDM_QUERY_EXECUTOR_H_
#define HRDM_QUERY_EXECUTOR_H_

/// \file executor.h
/// \brief Evaluation of HRQL query trees against a pinned database version.
///
/// Two execution strategies share the algebra's per-tuple kernels:
///
///  * **Streaming** (the default, `Eval`): the tree is lowered to a
///    physical plan of batch-at-a-time cursors (query/plan.h) and drained.
///    Unary pipelines (`timeslice` → `select_*` → `project` chains) stream
///    end-to-end without materializing any intermediate relation; blocking
///    operators buffer internally.
///
///  * **Materializing** (`EvalMaterializing`): the original recursive
///    interpreter — each AST node evaluates its children to whole
///    `Relation`s and applies the corresponding src/algebra operator. Kept
///    as the semantic reference and performance baseline
///    (bench/bench_executor.cc); `Eval` is property-tested equal to it in
///    tests/plan_test.cc.
///
/// Because the algebra is multi-sorted, evaluation comes in two flavors —
/// `Eval` for relation-sorted and `EvalLifespan` for lifespan-sorted
/// expressions (where `when(e)` first evaluates `e` and then applies Ω).
///
/// The read surface is one `storage::DatabaseVersion` — a pinned,
/// immutable snapshot (storage/database_version.h). Reads touch no lock
/// and no live engine state, so any number of threads can evaluate against
/// their pinned versions while writers commit (src/session/session.h wraps
/// this as `Session`). Callers hold the pin: a one-shot call can write
/// `query::Run(q, *db.CurrentVersion())`; anything that keeps a `Plan` or
/// `PlanOptions` alive binds the pin to a named local that outlives both,
/// because the hooks capture the version by reference.

#include <cstdint>
#include <functional>
#include <string_view>

#include "core/relation.h"
#include "query/ast.h"
#include "query/optimizer.h"
#include "query/plan.h"
#include "storage/database_version.h"
#include "util/status.h"

namespace hrdm::query {

/// \brief Wraps a pinned database version as a PlanResolver. The version
/// must outlive the returned function (hold the `DatabaseVersionPtr` pin).
PlanResolver VersionResolver(const storage::DatabaseVersion& version);

/// \brief The full set of planning hooks for evaluating against `version`:
/// the catalog's index registrations and the index probes backed by the
/// version's storage indexes (storage/index.h). Relation sizes need no
/// hook: the planner reads them through the resolver. Every hook answers
/// from the immutable snapshot, so the options are safe to use from any
/// thread, concurrently with writers. This is what `Eval` lowers with;
/// tests and benches start from it and set `force_*` knobs. The version
/// must outlive the options.
PlanOptions VersionPlanOptions(const storage::DatabaseVersion& version);

/// \brief Counters for the materializing interpreter (the baseline the
/// plan layer's PlanStats is compared against).
struct EvalStats {
  /// Total tuples held by intermediate (non-root) relations produced
  /// during evaluation, including materialized scan leaves.
  size_t intermediate_tuples = 0;
  /// Tuples in currently-live relations during evaluation.
  size_t live_tuples = 0;
  /// Peak of `live_tuples` — the materializing analogue of
  /// PlanStats::peak_buffered.
  size_t peak_live_tuples = 0;

  void OnRelation(size_t n) {
    intermediate_tuples += n;
    live_tuples += n;
    if (live_tuples > peak_live_tuples) peak_live_tuples = live_tuples;
  }
  void OnRelease(size_t n) { live_tuples -= n < live_tuples ? n : live_tuples; }
};

/// \brief Evaluates a relation-sorted expression by lowering it to a
/// streaming physical plan (query/plan.h) with `VersionPlanOptions`. A bare
/// relation reference returns a copy-on-write copy of the stored relation
/// (no tuple is duplicated).
Result<Relation> Eval(const ExprPtr& expr,
                      const storage::DatabaseVersion& version);

/// \brief Evaluates via the materializing recursive interpreter: every
/// operator node materializes a whole intermediate `Relation`. `stats`, if
/// non-null, receives intermediate-relation counters (root output
/// excluded from `intermediate_tuples`).
Result<Relation> EvalMaterializing(const ExprPtr& expr,
                                   const PlanResolver& resolver,
                                   EvalStats* stats = nullptr);

/// \brief Evaluates a lifespan-sorted expression through the plan layer's
/// window evaluator (`Plan::EvalWindow`) with `VersionPlanOptions`, so a
/// `when(e)` reads `e` through the same access paths as inside `Eval`.
Result<Lifespan> EvalLifespan(const LsExprPtr& expr,
                              const storage::DatabaseVersion& version);

/// \brief Convenience: parse and evaluate a relation-sorted HRQL string
/// (parse + execute the tree as written).
Result<Relation> Run(std::string_view hrql,
                     const storage::DatabaseVersion& version);

}  // namespace hrdm::query

#endif  // HRDM_QUERY_EXECUTOR_H_
