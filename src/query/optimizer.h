#ifndef HRDM_QUERY_OPTIMIZER_H_
#define HRDM_QUERY_OPTIMIZER_H_

/// \file optimizer.h
/// \brief The physical choosers consulted when a query tree is lowered to a
/// cursor plan (query/plan.h): join strategy (`ChooseJoinStrategy`),
/// base-relation access path (`ChooseAccessPath`), degree of parallelism
/// (`ChooseParallelism`) and batch size (`ChooseBatchSize`), plus the
/// cardinality estimates that drive them.
///
/// None of them rewrites the tree: the plan runs the operators as
/// written, and every choice only picks *how* an operator runs, never what
/// it answers. The Section 5 algebraic identities are properties of the
/// operators themselves, checked in tests/algebra_laws_test.cc; the one
/// identity the lowering exploits (fusing a TIME-SLICE / SELECT-WHEN
/// restriction chain over a scan) lives in plan.cc.

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "core/schema.h"
#include "query/ast.h"

namespace hrdm::query {

// --- join strategy selection -------------------------------------------------
//
// The planner picks a *physical* strategy for every JOIN node when the tree
// is lowered to a cursor plan (query/plan.h):
//
//  * kNestedLoop — pairwise θ-evaluation streaming the left input against a
//    buffered right input. Always correct; O(|l|·|r|) pair checks.
//  * kHash — for equality patterns (EQUIJOIN, NATURAL-JOIN with shared
//    attributes): the smaller (build) side is partitioned by a
//    time-invariant digest of its join attribute values, the other side
//    probes. Tuples whose join attribute varies over their lifespan fall
//    back to per-pair probing, so the strategy is exact, not approximate.
//  * kMerge — for TIME-JOIN: both sides sorted by the start of their
//    effective chronon span; a frontier sweep only tests pairs whose spans
//    can overlap.
//
// The choice is driven by equi-pattern detection on the AST node, domain
// comparability from the operand schemes, and cardinality estimates (from
// the stored relations' exact sizes).

/// \brief Physical join strategies the planner can select.
enum class JoinStrategy : uint8_t {
  kNestedLoop,
  kHash,
  kMerge,
};

std::string_view JoinStrategyName(JoinStrategy s);

/// \brief Base-relation cardinality source (the plan layer passes the
/// stored relations' exact sizes); nullopt when the relation is unknown to
/// the source.
using CardinalityFn =
    std::function<std::optional<size_t>(std::string_view relation)>;

/// \brief One JOIN node's physical plan decision.
struct JoinChoice {
  JoinStrategy strategy = JoinStrategy::kNestedLoop;
  /// Hash only: drain the *left* input into the hash table (chosen when its
  /// estimated cardinality is smaller); otherwise the right input builds.
  bool build_left = false;
  /// The input-cardinality estimates the decision was based on.
  size_t est_left = 0;
  size_t est_right = 0;
};

/// \brief Rough output-cardinality estimate for a query subtree. Base
/// relations come from `card` (unknown relations estimate at a default);
/// operators apply simple selectivity rules (filters halve, unions add,
/// joins multiply with an equality discount). Only the *relative order* of
/// estimates matters — they pick hash build sides, nothing else.
size_t EstimateCardinality(const ExprPtr& expr, const CardinalityFn& card);

/// \brief Selects the physical strategy for one JOIN node (kThetaJoin,
/// kNaturalJoin or kTimeJoin) whose operand schemes are known.
/// Non-join nodes get kNestedLoop trivially.
JoinChoice ChooseJoinStrategy(const Expr& join, const RelationScheme& left,
                              const RelationScheme& right,
                              const CardinalityFn& card);

// --- aggregation estimates ---------------------------------------------------
//
// AGGREGATE lowers to a blocking HashAggregateCursor (query/plan.h) whose
// memory is proportional to the number of *groups*, not input tuples. The
// planner pre-sizes the cursor's group table from the base relations'
// sizes: an ungrouped aggregate has at most one group; a grouped one is
// estimated with the classic quarter-of-input rule over the child's
// cardinality estimate. Like every other estimate here, it is advisory —
// a wrong guess resizes a hash table, never changes answers.

/// \brief Estimated number of groups (output tuples) of one kAggregate
/// node (`agg.left` is the aggregated input).
size_t EstimateGroupCount(const Expr& agg, const CardinalityFn& card);

// --- access-path selection ----------------------------------------------------
//
// The entry-point restrictions (SELECT-IF, SELECT-WHEN, TIME-SLICE, §4.3–4.4)
// normally read their base relation through a full scan — O(|r|) per
// query regardless of selectivity. When the storage engine maintains an
// index on the relation (storage/index.h, registered in the catalog), the
// planner can open the pipeline with the ScanCursor leaf over the index's
// candidate set instead of the whole stored relation. Two index shapes are
// recognised:
//
//  * value index — a sargable `attr = constant` conjunct under SELECT-IF
//    (existential) or SELECT-WHEN probes the equality index; candidates are
//    the matching digest bucket plus every varying-valued tuple, a strict
//    superset of the answer that the exact per-tuple kernel then filters.
//  * lifespan index — a TIME-SLICE window (or a windowed existential
//    SELECT-IF) probes the interval index for tuples alive during the
//    window.
//
// Both paths are *candidate pruners*: the operator's own kernel re-runs on
// every candidate, so a probe can only change performance, never answers.
// Universally-quantified SELECT-IF stays on the full scan — with an empty
// quantification domain `forall` holds vacuously, so tuples outside the
// index's candidate set can still qualify.

/// \brief Physical access paths for a base-relation read under an
/// entry-point restriction.
enum class AccessPath : uint8_t {
  kFullScan,
  kLifespanIndex,
  kValueIndex,
};

/// \brief Which indexes exist on a base relation — the optimizer's view of
/// the catalog's registrations (storage::IndexSpec), decoupled through a
/// function hook so the query layer never touches storage types.
struct IndexInfo {
  bool lifespan = false;
  std::vector<std::string> value_attrs;
};

/// \brief Index-registration source (typically the storage catalog);
/// nullopt when the relation has no registered indexes.
using IndexCatalogFn =
    std::function<std::optional<IndexInfo>(std::string_view relation)>;

/// \brief One restriction node's access-path decision. `path` is the
/// cost-based pick; the eligibility flags record which probes would be
/// semantically valid (the force_access_path test hook consults them so a
/// forced path the node is not eligible for falls back to the scan).
struct AccessPathChoice {
  AccessPath path = AccessPath::kFullScan;
  /// A value-index probe is semantically valid for this node.
  bool value_eligible = false;
  /// A lifespan-index probe is semantically valid for this node.
  bool lifespan_eligible = false;
  /// kValueIndex: the indexed attribute and equality constant to probe.
  std::string attr;
  std::optional<Value> key;
  /// The base-relation cardinality estimate the decision was based on.
  size_t est_base = 0;
};

/// \brief Base relations at or below this estimated size keep the full
/// scan: a probe + candidate materialization costs more than reading a
/// handful of tuples. (force_access_path bypasses this threshold.)
inline constexpr size_t kIndexScanMinTuples = 64;

/// \brief Selects the access path for one restriction node (kSelectIf,
/// kSelectWhen or kTimeSlice) whose *immediate* child is a base-relation
/// reference. Other nodes get kFullScan trivially.
AccessPathChoice ChooseAccessPath(const Expr& op, const IndexCatalogFn& indexes,
                                  const CardinalityFn& card);

// --- parallel execution -------------------------------------------------------
//
// Parallel-eligible physical operators (the scan leaves' interpolation
// pass, the hash join's build partitioning and probe phase, the aggregate
// fold — query/plan.h) split their input into fixed-size *morsels*
// dispatched to the shared worker pool (util/thread_pool.h). Like the join
// strategy and access path, the degree of parallelism is a per-operator
// planning decision: the requested degree comes from
// `PlanOptions::parallelism` (default: HRDM_THREADS env override, else
// `hardware_concurrency`), and `ChooseParallelism` falls back to serial
// execution below a cardinality threshold — forking workers over a handful
// of tuples costs more than the work itself. Parallelism never changes
// answers, only schedules: every parallel path merges per-morsel partial
// results in morsel order, so the merged state is deterministic.

/// \brief Tuples per morsel dispatched to the worker pool. Small enough to
/// load-balance skewed kernels, large enough that task dispatch is noise.
inline constexpr size_t kMorselSize = 2048;

/// \brief Operators whose estimated input is below this stay serial: the
/// dispatch + merge overhead would dominate. (PlanOptions::force_parallel
/// bypasses the threshold for the differential tests.)
inline constexpr size_t kParallelMinTuples = 8192;

/// \brief The requested degree of parallelism when PlanOptions leaves it 0:
/// the HRDM_THREADS environment variable if set to a positive integer,
/// otherwise `std::thread::hardware_concurrency` (at least 1). Cached after
/// the first call.
size_t DefaultParallelism();

/// \brief The effective degree of parallelism for one operator whose input
/// is estimated at `est_tuples`: 1 (serial) when `requested` <= 1 or the
/// estimate is below kParallelMinTuples, otherwise `requested` capped by
/// the morsel count so no worker is provisioned without a morsel to run.
/// `force` bypasses the threshold and the cap (the differential fuzz
/// suite runs many workers over small inputs on purpose).
size_t ChooseParallelism(size_t requested, size_t est_tuples, bool force);

// --- batch execution ----------------------------------------------------------
//
// Cursors exchange *batches* of tuple handles (query/plan.h), amortizing
// the per-pull virtual dispatch and keeping the kernel loops tight. Like
// the degree of parallelism, the batch size is a planning decision made
// once per plan at lowering time.

/// \brief Tuple handles per cursor batch when nothing overrides it: large
/// enough to amortize virtual dispatch, small enough that a pipeline's
/// in-flight batches stay cache-resident.
inline constexpr size_t kDefaultBatchSize = 1024;

/// \brief The batch size when PlanOptions leaves it 0: the HRDM_BATCH_SIZE
/// environment variable if set to a positive integer, otherwise
/// kDefaultBatchSize. Re-read on every call (unlike DefaultParallelism) so
/// the differential suites can sweep batch sizes within one process.
size_t DefaultBatchSize();

/// \brief The batch size a plan actually runs with: `requested` (0 = auto,
/// DefaultBatchSize), clamped to [1, kMorselSize] — a batch never outgrows
/// the unit of parallel work distribution, so batch-filling drains and
/// morsel-parallel phases (ChooseParallelism) stay composable.
size_t ChooseBatchSize(size_t requested);

}  // namespace hrdm::query

#endif  // HRDM_QUERY_OPTIMIZER_H_
