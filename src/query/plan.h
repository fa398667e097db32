#ifndef HRDM_QUERY_PLAN_H_
#define HRDM_QUERY_PLAN_H_

/// \file plan.h
/// \brief The physical execution layer: batch-at-a-time cursor pipelines.
///
/// Sits between the parser and the algebra. A query tree is *lowered*
/// to a tree of cursors, each pulling a `TupleBatch` — a vector of
/// `std::shared_ptr<const Tuple>` handles, `PlanContext::batch_size`
/// (default ~1024) per batch — from its child via `NextBatch()`. No
/// intermediate `Relation` is ever materialized along a unary pipeline
/// (`project(select_when(timeslice(r, L), p), X)` streams end-to-end with
/// one batch in flight per operator), and the per-pull virtual-call and
/// handle-shuffling overhead is amortized over whole batches: each
/// operator runs its kernel in a tight loop over the batch it holds.
///
/// **Batch protocol.** `NextBatch()` is the only cursor protocol. It
/// returns a pointer to a batch owned by the producing cursor, or null at
/// end of stream; emitted batches are never empty, and the pointed-to batch
/// is valid only until the next `NextBatch()` call on the same cursor. The
/// consumer MAY move handles out of the batch (every cursor refills or
/// clears its batch before reuse). Consumers that walk their input a tuple
/// at a time (the join probes) hold the current input batch and an index
/// into it.
///
/// **Arena memory.** Per-query tuple temporaries (restricted, projected
/// and joined tuples created by the serial operator kernels) are
/// placement-constructed in a per-plan bump allocator
/// (`util::Arena`, owned by `PlanContext`) instead of one heap
/// allocation + shared_ptr control block each; the handles alias the
/// arena's `shared_ptr`, so tuples escaping into results keep the arena
/// alive and nothing dangles. Morsel-parallel *workers* still allocate
/// through the heap (the arena is single-threaded by design).
/// `PlanStats::arena_bytes` tracks the arena traffic,
/// `batches_emitted`/`batch_tuples` the batch traffic.
///
/// Cursors reuse the algebra's kernels (SelectIfBatch, SelectWhenHolds,
/// DynSliceTuple, ProjectTupleRaw, JoinAssembly, JoinKeysDigest, ...),
/// so the streaming and whole-relation paths share one implementation of
/// the paper's semantics. Interpolation (representation → model mapping,
/// Figure 9) happens once, per tuple, at the scan leaf. Restriction
/// cursors take a pass-through fast path where the restriction is provably
/// the identity (the criterion holds over the whole lifespan / the window
/// covers it), re-emitting the input handle untouched.
///
/// Blocking operators buffer internally and account for every buffered
/// tuple in `PlanStats`:
///  * `SetOpCursor` — the set-theoretic/object-based operators need both
///    whole inputs (structural/mergeable lookups), so it drains both
///    children, applies the whole-relation operator, and streams (or
///    surrenders) the result;
///  * `HashAggregateCursor` — AGGREGATE: folds the input batches into
///    per-group aggregation state (key vector + contribution segments, via
///    the shared kernel of algebra/aggregate.h), holding input handles only
///    for the duplicate elimination a set-semantics aggregate requires.
///
/// The JOIN family and the Cartesian product lower to dedicated join
/// cursors, all built on the shared assembly kernel of algebra/join.h and
/// selected by the optimizer's `ChooseJoinStrategy` (equi-pattern detection
/// + the stored relations' sizes):
///  * `NestedLoopJoinCursor` — pairwise θ evaluation; buffers only the
///    right input, streams the left (the fallback "product" strategy).
///    `r × s` is this cursor too: Section 5 reads JOIN as SELECT-WHEN ∘ ×,
///    so × is the degenerate join whose pair lifespan is `t1.l ∪ t2.l`,
///    and `r × s` holds |s| tuples, not |r × s|;
///  * `HashEquiJoinCursor` — EQUIJOIN/NATURAL-JOIN: buffers only its
///    *build* side, partitioned by a time-invariant digest of the join
///    attribute values; build tuples whose join attribute varies over
///    their lifespan are probed per pair, so results are exact. Builds
///    and probes batch-at-a-time, suspending mid-bucket when the output
///    batch fills;
///  * `MergeTimeJoinCursor` — TIME-JOIN: buffers both sides sorted by
///    effective-span start and sweeps a chronon-interval frontier so only
///    pairs whose spans can overlap are tested.
/// Every join cursor fills its output batch pair by pair and suspends its
/// pair walk wherever the batch fills, resuming there on the next pull.
///
/// Base relations are read through one leaf, `ScanCursor`, over the tuple
/// chunks of the access path the optimizer's `ChooseAccessPath`
/// (query/optimizer.h) picks at lowering time: the stored relation's shared
/// chunks (full scan), or one chunk holding the candidate set of a
/// storage-index probe (lifespan interval
/// index for TIME-SLICE windows, value equality index for sargable
/// SELECT-IF/SELECT-WHEN conjuncts — see storage/index.h), reached through
/// the probe hooks of `PlanOptions` so this layer never depends on storage
/// types. The enclosing operator's kernel re-checks every candidate, so
/// index reads prune work, never change answers.
///
/// `PlanStats::peak_buffered` is the peak intermediate tuple count: 0 for a
/// fully streaming pipeline (in-flight batches are not "buffered" — they
/// are the stream). tests/plan_test.cc asserts this, and
/// bench/bench_executor.cc, bench/bench_join.cc and bench/bench_scan.cc
/// track it alongside the access-path and join-strategy counters.
///
/// **Parallel execution.** Three operator families can run morsel-parallel
/// on the shared worker pool (util/thread_pool.h) when the optimizer's
/// `ChooseParallelism` grants them more than one worker
/// (`PlanOptions::parallelism`, default HRDM_THREADS / hardware
/// concurrency; serial below a cardinality threshold):
///  * the scan leaf splits its interpolation pass (representation →
///    model, the per-tuple CPU cost of a base read) into ~kMorselSize-tuple
///    morsels materialized by workers into per-morsel slots;
///  * `HashEquiJoinCursor` digests its drained build side via per-morsel
///    partition tables merged in morsel order (bucket contents identical
///    to the serial build), then buffers the probe side and probes morsels
///    in parallel, concatenating per-morsel outputs in morsel order;
///  * `HashAggregateCursor` folds the deduplicated input into per-morsel
///    `GroupedAggregator` partials merged in morsel order; the
///    order-insensitive finishing sweep makes per-group results bitwise
///    equal to the serial fold.
/// All merges happen on the coordinator thread in deterministic morsel
/// order, so a parallel plan's output is the same *set* of tuples as the
/// serial plan's (and identical across runs); with parallelism 1 every
/// cursor takes exactly the legacy serial path. PlanStats records the
/// morsel traffic (`morsels_dispatched`, `partitions_merged`,
/// `worker_tuples`) for EXPLAIN. The optimizer's `ChooseBatchSize` keeps
/// batches within a morsel (`kMorselSize`), so batch boundaries never
/// straddle morsel boundaries.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "algebra/aggregate.h"
#include "algebra/join.h"
#include "algebra/predicate.h"
#include "algebra/setops.h"
#include "core/relation.h"
#include "query/ast.h"
#include "query/optimizer.h"
#include "util/arena.h"
#include "util/status.h"

namespace hrdm::query {

/// \brief Resolves a base-relation name to a stored relation
/// (executor.h's `VersionResolver` builds one over a pinned version). The
/// scan leaf interpolates every tuple it reads (Figure 9), so a resolver
/// hands out stored relations, never already-materialized algebra outputs.
using PlanResolver = std::function<Result<const Relation*>(std::string_view)>;

/// \brief The unit of flow between cursors: a run of shared tuple handles,
/// owned by the emitting cursor (see the batch protocol in the header
/// comment).
using TupleBatch = std::vector<TuplePtr>;

/// \brief Probes a lifespan interval index: the stored tuples of
/// `relation` alive at some chronon of `window` — a superset of the
/// qualifying tuples, still at the representation level like the stored
/// relation. nullopt when no such index exists.
using LifespanProbeFn = std::function<std::optional<std::vector<TuplePtr>>(
    std::string_view relation, const Lifespan& window)>;

/// \brief Probes a value equality index: candidate stored tuples of
/// `relation` with `attr = key` at some chronon (the matching digest bucket
/// plus every varying-valued tuple). nullopt when no such index exists.
using ValueProbeFn = std::function<std::optional<std::vector<TuplePtr>>(
    std::string_view relation, std::string_view attr, const Value& key)>;

/// \brief Execution counters shared by every cursor of one physical plan.
struct PlanStats {
  /// Tuples pulled out of base-relation scan leaves.
  size_t tuples_scanned = 0;
  /// Tuples produced by the root cursor.
  size_t tuples_returned = 0;
  /// Intermediate tuples currently buffered by blocking operators.
  size_t buffered_now = 0;
  /// Peak of `buffered_now` over the plan's lifetime — the peak
  /// intermediate tuple count. 0 for a fully streaming (unary) pipeline.
  size_t peak_buffered = 0;
  /// Physical join operators instantiated in this plan, by strategy
  /// (records what the optimizer's ChooseJoinStrategy picked).
  size_t joins_nested_loop = 0;
  size_t joins_hash = 0;
  size_t joins_merge = 0;
  /// Join pairs whose exact per-pair lifespan kernel ran (the pruning
  /// metric: product tests |l|·|r| pairs, hash/merge far fewer).
  size_t join_pairs_tested = 0;
  /// Base-relation leaves by access path (records what the optimizer's
  /// ChooseAccessPath picked — the scan analogue of the joins_* counters).
  size_t scans_full = 0;
  size_t scans_lifespan_index = 0;
  size_t scans_value_index = 0;
  /// Candidate tuples handed over by index probes. Compare against the
  /// base-relation size for the access-path pruning metric (the scan
  /// analogue of join_pairs_tested).
  size_t index_candidates = 0;
  /// Aggregate operators instantiated in this plan.
  size_t aggregates = 0;
  /// Groups the planner pre-sized aggregate tables for (the optimizer's
  /// EstimateGroupCount) vs. groups actually built — compare the two for
  /// the estimator's accuracy, the aggregate analogue of join_pairs_tested.
  size_t agg_groups_estimated = 0;
  size_t agg_groups_built = 0;
  /// Input tuples that took the per-chronon varying-group-key fallback
  /// (grouping attributes whose value changes over the tuple's lifespan).
  size_t agg_fallback_tuples = 0;
  /// --- batch execution (see the header comment; util/arena.h) ------------
  /// Batches emitted by all cursors of the plan, and the tuples they
  /// carried. Their ratio is how full the average batch ran (a selective
  /// filter or a tiny input drives it down).
  size_t batches_emitted = 0;
  size_t batch_tuples = 0;
  /// Bytes of per-query tuple temporaries served by the plan's arena
  /// (util/arena.h) instead of the heap.
  size_t arena_bytes = 0;
  /// --- parallel execution (see the header comment; util/thread_pool.h) ---
  /// Effective parallelism of the widest operator in the plan — what the
  /// optimizer's ChooseParallelism granted (1 = fully serial plan).
  size_t parallelism = 1;
  /// Operators that actually ran a morsel-parallel phase.
  size_t parallel_operators = 0;
  /// Morsels dispatched to the worker pool across all parallel phases.
  size_t morsels_dispatched = 0;
  /// Per-morsel partial results merged on the coordinator (hash-join digest
  /// partitions + aggregate partials), in morsel order.
  size_t partitions_merged = 0;
  /// Tuples processed by each pool worker (index = worker id) — the
  /// per-thread EXPLAIN counters. Empty for a fully serial plan.
  std::vector<size_t> worker_tuples;

  void OnParallelOperator(size_t effective) {
    if (effective > parallelism) parallelism = effective;
    if (effective > 1) ++parallel_operators;
  }
  void OnWorkerTuples(size_t worker, size_t n) {
    if (worker >= worker_tuples.size()) worker_tuples.resize(worker + 1, 0);
    worker_tuples[worker] += n;
  }

  void OnBuffer(size_t n) {
    buffered_now += n;
    if (buffered_now > peak_buffered) peak_buffered = buffered_now;
  }
  void OnRelease(size_t n) { buffered_now -= n < buffered_now ? n : buffered_now; }
};

/// \brief Per-plan execution state shared by every cursor of one physical
/// plan: the stats block, the chosen batch size, and the arena backing
/// per-query tuple temporaries. Owned by the enclosing `Plan`,
/// address-stable for the cursor tree's lifetime.
struct PlanContext {
  PlanStats stats;
  /// Handles per emitted batch (ChooseBatchSize: PlanOptions::batch_size,
  /// the HRDM_BATCH_SIZE env override, else kDefaultBatchSize).
  size_t batch_size = kDefaultBatchSize;
  /// The per-plan bump allocator for tuple temporaries; null = heap
  /// allocation (e.g. cursor trees composed without a Plan). Coordinator
  /// thread only — morsel workers allocate through the heap.
  std::shared_ptr<util::Arena> arena;

  /// \brief Moves a freshly built tuple into the arena (heap when none)
  /// and returns a shared handle. Arena-backed handles alias the arena's
  /// shared_ptr, so tuples escaping into results keep the arena alive.
  TuplePtr AdoptTuple(Tuple&& t);
};

/// \brief A pull-based physical operator emitting its output batch-at-a-
/// time: `NextBatch` yields the next (never-empty) run of output tuples,
/// or null at end of stream. Every tuple flowing between cursors is
/// materialized (model-level) and bound to `scheme()`. The returned batch
/// is owned by this cursor and valid until the next `NextBatch` call; the
/// consumer may move handles out of it.
///
/// The stream is a tuple *stream*, not a set: restriction operators (and
/// the streaming join cursors, whose pairs may assemble to equal tuples)
/// can emit structural duplicates mid-pipeline. Set semantics — the
/// whole-relation operators' output contract — are established at the
/// materialization boundary: `Plan::Drain` and `SetOpCursor`'s input
/// draining collapse duplicates via `InsertDedup`.
class Cursor {
 public:
  Cursor(SchemePtr scheme, PlanContext* ctx)
      : scheme_(std::move(scheme)), ctx_(ctx), stats_(&ctx->stats) {}
  virtual ~Cursor() = default;

  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  /// \brief Pulls the next output batch; null at end of stream.
  virtual Result<TupleBatch*> NextBatch() = 0;

  /// \brief Blocking cursors that already hold their entire output as a
  /// set-semantics Relation may surrender it wholesale, so a draining
  /// consumer does not re-deduplicate an already-deduplicated result.
  /// Returns nullopt (the default) when the cursor must be pulled
  /// batch-by-batch; only valid before the first NextBatch().
  virtual Result<std::optional<Relation>> TakeBuffered() {
    return std::optional<Relation>();
  }

  /// \brief The output scheme, known at plan-build time.
  const SchemePtr& scheme() const { return scheme_; }

 protected:
  /// \brief The tail of every NextBatch implementation: null for an empty
  /// batch (end of stream), else the batch pointer with the plan-wide
  /// batch counters bumped.
  TupleBatch* EmitOrEnd(TupleBatch& batch) {
    if (batch.empty()) return nullptr;
    ++stats_->batches_emitted;
    stats_->batch_tuples += batch.size();
    return &batch;
  }

  SchemePtr scheme_;
  PlanContext* ctx_;  // owned by the enclosing Plan; never null
  PlanStats* stats_;  // == &ctx_->stats (kept for kernel-loop brevity)
};

using CursorPtr = std::unique_ptr<Cursor>;

// --- cursors -----------------------------------------------------------------

/// \brief The one leaf: streams a base relation's tuples without copying
/// them, slicing a run of tuple chunks directly into batches. `path`
/// records where the chunks came from — the stored relation's own shared
/// chunks (kFullScan), or one chunk holding the candidate set of a
/// lifespan / value index probe, a superset of the qualifying tuples that
/// the enclosing operator's kernel re-checks, so the read is exact — and
/// picks the PlanStats access-path counter. Holding the chunk handles (not
/// the relation's key map) keeps the scan safe even if the stored relation
/// is later mutated — the relation then clones any chunk it writes — and
/// makes construction O(#chunks) pointer bumps.
/// The tuples are stored (representation-level) tuples, interpolated per
/// batch; with `parallelism > 1` the whole interpolation pass instead runs
/// up front, morsel-parallel on the worker pool (per-morsel output slots,
/// so tuple order is unchanged), and the interpolated tuples stream from
/// the buffer (accounted in PlanStats until each one is emitted).
class ScanCursor : public Cursor {
 public:
  ScanCursor(SchemePtr scheme, std::vector<TupleChunkPtr> chunks,
             AccessPath path, size_t parallelism, PlanContext* ctx);
  ~ScanCursor() override;
  Result<TupleBatch*> NextBatch() override;

 private:
  std::vector<TupleChunkPtr> chunks_;
  size_t size_ = 0;  // handles over all chunks
  size_t parallelism_;
  /// The parallel pass has run: chunks_ is one chunk of interpolated
  /// handles.
  bool parallel_primed_ = false;
  size_t emitted_ = 0;
  size_t chunk_ = 0;  // the next handle is chunks_[chunk_][offset_]
  size_t offset_ = 0;
  TupleBatch batch_;
};

/// \brief SELECT-IF: pure tuple filter (whole tuples pass or are dropped).
/// The predicate runs in one tight loop per input batch (SelectIfBatch);
/// passing handles move to the output batch untouched. Input batches the
/// filter empties entirely are skipped, never emitted.
class SelectIfCursor : public Cursor {
 public:
  SelectIfCursor(CursorPtr child, Predicate predicate, Quantifier quantifier,
                 std::optional<Lifespan> window, PlanContext* ctx);
  Result<TupleBatch*> NextBatch() override;

 private:
  CursorPtr child_;
  Predicate predicate_;
  Quantifier quantifier_;
  std::optional<Lifespan> window_;
  TupleBatch out_;
};

/// \brief SELECT-WHEN: restricts each tuple to the chronons where the
/// criterion holds; tuples that never satisfy it are dropped. Tuples the
/// criterion holds over entirely pass through as the original handle (no
/// copy); the rest are restricted into the arena.
///
/// It is the one cursor for every restriction chain: the lowering
/// collapses consecutive SELECT-WHEN / static TIME-SLICE operators (a lone
/// static TIME-SLICE included) into one cursor whose `stages`
/// (innermost-first) are slice windows and criteria. Per tuple the
/// effective lifespan is accumulated across the stages, starting from the
/// first stage's intersection with the tuple's lifespan — windows
/// intersect, criteria evaluate scoped to the lifespan accumulated so far
/// (exactly the holds the unfused pipeline computes on the stage-restricted
/// tuple) — and the tuple is restricted once at the end instead of once
/// per operator. A tuple whose effective lifespan empties
/// mid-chain is dropped immediately, before the later criteria run,
/// mirroring the unfused per-stage drops.
///
/// A PROJECT directly above the chain fuses too: emission then builds the
/// projected tuple straight from the original handle (each kept attribute
/// restricted to the effective lifespan), skipping both the intermediate
/// restricted tuple and the separate projection pass — the result is
/// value-for-value what ProjectTupleRaw applied to the restricted tuple
/// would produce (projection copies values verbatim, so restriction and
/// projection commute per attribute).
class SelectWhenCursor : public Cursor {
 public:
  /// One fused restriction stage: a static slice window or a criterion.
  using Stage = std::variant<Lifespan, Predicate>;

  /// `stages` are innermost-first and never empty. With `project_scheme`
  /// non-null the cursor also applies the projection it describes
  /// (`project_src` maps output attribute positions to child positions).
  SelectWhenCursor(CursorPtr child, std::vector<Stage> stages,
                   SchemePtr project_scheme, std::vector<size_t> project_src,
                   PlanContext* ctx);
  Result<TupleBatch*> NextBatch() override;

 private:
  CursorPtr child_;
  std::vector<Stage> stages_;        // innermost-first
  bool project_ = false;             // emission projects to scheme_
  std::vector<size_t> project_src_;  // output position -> child position
  TupleBatch out_;
};

/// \brief PROJECT: narrows each tuple to the projected attributes, one
/// arena-built tuple per input handle in a tight per-batch loop.
class ProjectCursor : public Cursor {
 public:
  ProjectCursor(CursorPtr child, SchemePtr out_scheme,
                std::vector<size_t> src, PlanContext* ctx);
  Result<TupleBatch*> NextBatch() override;

 private:
  CursorPtr child_;
  std::vector<size_t> src_;
  TupleBatch out_;
};

/// \brief Dynamic TIME-SLICE (`T_@A`): restricts each tuple to the image
/// of its own value of A; tuples whose restricted lifespan is empty are
/// dropped. (A static slice `T_L` is a one-window SelectWhenCursor chain.)
class TimeSliceCursor : public Cursor {
 public:
  /// `attr_idx` is the slicing attribute, pre-checked time-valued.
  TimeSliceCursor(CursorPtr child, size_t attr_idx, PlanContext* ctx);
  Result<TupleBatch*> NextBatch() override;

 private:
  CursorPtr child_;
  size_t attr_idx_;
  TupleBatch out_;
};

// --- join cursors ------------------------------------------------------------

/// \brief The joined lifespan of one (left, right) tuple pair — empty means
/// the pair produces no tuple. Bound to one of the per-pair kernels of
/// algebra/join.h at lowering time.
using JoinPairFn =
    std::function<Result<Lifespan>(const Tuple& left, const Tuple& right)>;

/// \brief Fallback join strategy and the Cartesian product: streams the
/// left input against a buffered right input, evaluating the pair kernel
/// for every pair (the JOIN ≡ SELECT-WHEN ∘ × reading, with the filter
/// fused so no wide product tuple is ever assembled for non-matching
/// pairs; × itself binds the kernel `t1.l ∪ t2.l`). Emits left-major, then
/// in right-buffer order, suspending mid-right-buffer when the output batch
/// fills. Buffers |right| tuples.
class NestedLoopJoinCursor : public Cursor {
 public:
  NestedLoopJoinCursor(CursorPtr left, CursorPtr right,
                       JoinAssembly assembly, JoinPairFn pair,
                       PlanContext* ctx);
  ~NestedLoopJoinCursor() override;
  Result<TupleBatch*> NextBatch() override;

 private:
  CursorPtr left_;
  CursorPtr right_;
  JoinAssembly assembly_;
  JoinPairFn pair_;
  bool primed_ = false;
  std::vector<TuplePtr> right_buffer_;
  // Pair walk: the current left input batch, the left tuple's index in it,
  // and the next right-buffer position to pair it with.
  TupleBatch* left_batch_ = nullptr;
  size_t left_pos_ = 0;
  size_t right_pos_ = 0;
  TupleBatch out_;
};

/// \brief Hash equi-join (EQUIJOIN / NATURAL-JOIN with shared attributes):
/// drains its *build* side batch-at-a-time into buckets keyed by a
/// time-invariant digest of the join attribute values (JoinKeysDigest),
/// then streams the probe side, testing only digest-matching candidates
/// with the exact pair kernel and assembling matches into the output batch
/// until it fills (the probe position suspends mid-bucket and resumes on
/// the next pull). Build tuples whose join attribute varies over their
/// lifespan cannot be digested time-invariantly and are probed per pair
/// instead — the result is always exact. Buffers only the build side.
///
/// With `parallelism > 1`, both blocking phases go morsel-parallel on the
/// worker pool: the drained build side is digested into per-morsel
/// partition tables merged in morsel order (identical bucket contents to
/// the serial build, since morsels are contiguous index ranges), and the
/// probe side is buffered and probed per morsel with the per-morsel output
/// runs concatenated in morsel order before streaming out in batch-size
/// slices. The parallel form additionally buffers the probe input and the
/// joined output.
class HashEquiJoinCursor : public Cursor {
 public:
  /// `key_attrs` are the equality columns as (left index, right index)
  /// pairs; `build_left` selects which input is drained into the table
  /// (the optimizer picks the smaller estimate).
  HashEquiJoinCursor(CursorPtr left, CursorPtr right, bool build_left,
                     std::vector<std::pair<size_t, size_t>> key_attrs,
                     JoinAssembly assembly, JoinPairFn pair, size_t parallelism,
                     PlanContext* ctx);
  ~HashEquiJoinCursor() override;
  Result<TupleBatch*> NextBatch() override;

 private:
  Status Prime();
  /// Parallel build partitioning: per-morsel digest tables over `build_`,
  /// merged into buckets_/varying_ in morsel order.
  Status PartitionBuildParallel();
  /// Parallel probe: drains the probe child into a buffer, probes morsels
  /// on the pool, concatenates per-morsel outputs in morsel order.
  Status RunProbeParallel();
  /// Appends the joined tuple of probe_ × build_[idx] to `out` (nothing
  /// when the pair's lifespan is empty).
  Status TryPairInto(size_t build_idx, TupleBatch& out);
  /// Worker-side probe kernel: every joined tuple of `probe` against the
  /// digest table, appended to `out`. Reads shared state only; per-morsel
  /// pair counts go to `pairs_tested`, not PlanStats.
  Status ProbeOne(const TuplePtr& probe, std::vector<TuplePtr>& out,
                  size_t& pairs_tested) const;

  CursorPtr left_;
  CursorPtr right_;
  bool build_left_;
  std::vector<std::pair<size_t, size_t>> key_attrs_;
  JoinAssembly assembly_;
  JoinPairFn pair_;
  size_t parallelism_;

  bool primed_ = false;
  std::vector<TuplePtr> build_;                  // the buffered build side
  std::unordered_map<uint64_t, std::vector<size_t>> buckets_;
  std::vector<size_t> varying_;  // build tuples without a constant digest

  // Probe iteration state (serial mode). The candidate walk for probe_
  // suspends wherever the output batch fills and resumes on the next pull;
  // probe_ is taken from probe_batch_[probe_pos_ - 1].
  TupleBatch* probe_batch_ = nullptr;
  size_t probe_pos_ = 0;
  TuplePtr probe_;
  const std::vector<size_t>* bucket_ = nullptr;  // candidates for probe_
  size_t bucket_pos_ = 0;
  bool in_varying_ = false;   // finished bucket_, now scanning varying_
  bool scan_all_ = false;     // probe digest unavailable: scan all of build_
  size_t scan_pos_ = 0;
  TupleBatch out_;

  // Parallel-probe state: the concatenated output runs, streamed out.
  bool parallel_probed_ = false;
  std::vector<TuplePtr> parallel_out_;
  size_t parallel_out_pos_ = 0;
};

/// \brief TIME-JOIN via a lifespan merge: both sides are drained and sorted
/// by the start of their effective chronon span (left: image(t(A)) ∩ t.l,
/// right: t.l); a sweep keeps a frontier of right tuples whose spans can
/// still overlap, so far fewer than |l|·|r| pairs are tested. Emits in
/// sorted-left order, then active-set order, suspending mid-active-set
/// when the output batch fills. Buffers both sides.
class MergeTimeJoinCursor : public Cursor {
 public:
  MergeTimeJoinCursor(CursorPtr left, CursorPtr right, size_t attr_a,
                      JoinAssembly assembly, PlanContext* ctx);
  ~MergeTimeJoinCursor() override;
  Result<TupleBatch*> NextBatch() override;

 private:
  struct Entry {
    TuplePtr tuple;
    Lifespan effective;  // the span the joined lifespan is confined to
    TimePoint begin = 0;
    TimePoint end = 0;
  };

  Status Prime();

  CursorPtr left_;
  CursorPtr right_;
  size_t attr_a_;
  JoinAssembly assembly_;

  bool primed_ = false;
  std::vector<Entry> lefts_;   // sorted by begin
  std::vector<Entry> rights_;  // sorted by begin
  size_t li_ = 0;              // current left entry
  size_t next_right_ = 0;      // first right entry not yet activated
  std::vector<size_t> active_; // rights whose span may still overlap
  size_t ai_ = 0;              // next active candidate for lefts_[li_]
  bool left_open_ = false;     // activation done for lefts_[li_]
  TupleBatch out_;
};

/// \brief Base for blocking cursors that compute their entire output
/// relation on the first pull and then stream (or surrender) it: owns the
/// priming protocol, the already-being-pulled guard, and the release-side
/// PlanStats accounting. Subclasses implement `Prime`, which must account
/// the *returned* relation's tuples via `stats_->OnBuffer` (they stay
/// buffered until streamed out wholesale, taken, or destroyed — the base
/// pairs the `OnRelease`). Streams the primed result in batch-size slices.
class BufferedResultCursor : public Cursor {
 public:
  using Cursor::Cursor;
  ~BufferedResultCursor() override;
  Result<TupleBatch*> NextBatch() override;
  Result<std::optional<Relation>> TakeBuffered() override;

 protected:
  /// Computes the full output (set semantics, materialized), called once.
  virtual Result<Relation> Prime() = 0;

 private:
  Status EnsurePrimed();

  bool primed_ = false;
  std::optional<Relation> result_;
  size_t pos_ = 0;
  TupleBatch batch_;
};

/// \brief AGGREGATE: blocking unary operator computing time-varying
/// COUNT/SUM/MIN/MAX/AVG with optional GROUP-BY (algebra/aggregate.h is the
/// shared kernel, so the streaming and whole-relation paths cannot
/// diverge). The input batches are folded into per-*group* state — key
/// vector, member spans, contribution segments — never whole wide tuples;
/// the only per-input retention is the shared handles needed to establish
/// set semantics at this blocking boundary (the stream may carry structural
/// duplicates, and COUNT/SUM/AVG are duplicate-sensitive). Group keys that
/// are constant over a tuple's lifespan take the JoinKeyDigest fast path;
/// varying keys take the exact per-chronon fallback, counted in
/// `PlanStats::agg_fallback_tuples`.
/// With `parallelism > 1` the fold phase runs morsel-parallel: the
/// deduplicated input handles are split into morsels, each folded into a
/// `GroupedAggregator::Fork()` partial on a pool worker, and the partials
/// merged (`MergeFrom`) in morsel order — bitwise-identical group results,
/// since the finishing sweep is order-insensitive.
class HashAggregateCursor : public BufferedResultCursor {
 public:
  /// `estimated_groups` pre-sizes the group table (the optimizer's
  /// EstimateGroupCount, advisory).
  HashAggregateCursor(CursorPtr child, GroupedAggregator aggregator,
                      size_t estimated_groups, size_t parallelism,
                      PlanContext* ctx);

 protected:
  Result<Relation> Prime() override;

 private:
  /// Folds the tuples of `unique` into aggregator_, in relation order —
  /// serially (FoldBatch), or via per-morsel partials on the worker pool
  /// when parallelism_ > 1.
  Status FoldAll(const Relation& unique);

  CursorPtr child_;
  GroupedAggregator aggregator_;
  size_t parallelism_;
};

/// \brief Blocking binary operator: drains both children into relations,
/// applies a whole-relation algebra operator, then streams the result.
/// Used for the set-theoretic/object-based operators, whose semantics need
/// both whole inputs.
class SetOpCursor : public BufferedResultCursor {
 public:
  /// The algebra operator to apply to the two drained inputs.
  using WholeRelationOp =
      std::function<Result<Relation>(const Relation&, const Relation&)>;

  SetOpCursor(CursorPtr left, CursorPtr right, SchemePtr out_scheme,
              WholeRelationOp op, PlanContext* ctx);

 protected:
  Result<Relation> Prime() override;

 private:
  CursorPtr left_;
  CursorPtr right_;
  WholeRelationOp op_;
};

// --- plans -------------------------------------------------------------------

/// \brief Knobs for lowering a query tree to a physical plan.
///
/// Base-relation sizes, for the join-strategy, access-path, parallelism and
/// group-count choices, are always the exact `Relation::size()` of the
/// relation the PlanResolver returns; there is no separate size hook.
struct PlanOptions {
  /// Test hook (the differential join suite): force every *eligible* JOIN
  /// node onto one strategy. Nodes the strategy cannot execute (e.g. kHash
  /// on a non-equality θ-join, kMerge on anything but TIME-JOIN) fall back
  /// to nested loop.
  std::optional<JoinStrategy> force_join_strategy;

  // --- access paths (storage indexes; see VersionPlanOptions in
  // executor.h for the hooks wired to a pinned version) -----------------------

  /// Which indexes exist per base relation, for the access-path chooser.
  /// When null, every base read is a full scan.
  IndexCatalogFn index_catalog;
  /// Probes a lifespan interval index for TIME-SLICE / windowed SELECT-IF.
  LifespanProbeFn lifespan_probe;
  /// Probes a value equality index for sargable SELECT-IF / SELECT-WHEN.
  ValueProbeFn value_probe;
  /// Test hook (the index differential fuzz): force every *eligible*
  /// restriction onto one access path; nodes the path is not valid for (or
  /// relations without the index) fall back to the full scan. kFullScan
  /// disables index scans entirely.
  std::optional<AccessPath> force_access_path;

  // --- parallel execution (see the header comment) ---------------------------

  /// Requested degree of parallelism. 0 = auto (DefaultParallelism: the
  /// HRDM_THREADS env override, else hardware concurrency); 1 = exact
  /// legacy serial execution, bit-for-bit; > 1 = morsel-parallel operators
  /// on that many pool workers where ChooseParallelism allows.
  size_t parallelism = 0;
  /// Test hook (the parallel differential fuzz): bypass ChooseParallelism's
  /// cardinality threshold so even tiny inputs run morsel-parallel.
  bool force_parallel = false;

  // --- batch execution (see the header comment) ------------------------------

  /// Handles per emitted batch. 0 = auto (ChooseBatchSize: the
  /// HRDM_BATCH_SIZE env override, else kDefaultBatchSize); explicit values
  /// are clamped to [1, kMorselSize]. The differential suites sweep this
  /// axis ({1, 7, 1024, ...}) — output must be identical at every setting.
  size_t batch_size = 0;
};

/// \brief A lowered physical plan: owns the cursor tree and its context
/// (stats + batch size + arena).
class Plan {
 public:
  /// \brief Lowers a relation-sorted query tree to a cursor pipeline.
  /// Scheme computation and compatibility checks happen here, eagerly;
  /// lifespan-sorted windows are evaluated eagerly too (they are
  /// parameters, not streams). Per-tuple errors (e.g. a predicate naming an
  /// unknown attribute) surface on `NextBatch`/`Drain`.
  static Result<Plan> Lower(const ExprPtr& expr, const PlanResolver& resolver,
                            const PlanOptions& options = PlanOptions{});

  /// \brief Evaluates a lifespan-sorted expression (`when(e)` lowers `e`
  /// with `options` and drains it, then applies Ω) — the one window
  /// evaluator, also used for the slice/quantification windows inside
  /// `Lower`.
  static Result<Lifespan> EvalWindow(
      const LsExprPtr& expr, const PlanResolver& resolver,
      const PlanOptions& options = PlanOptions{});

  /// \brief Pulls the next root batch; null at end of stream. Owned by the
  /// root cursor, valid until the next call.
  Result<TupleBatch*> NextBatch();

  /// \brief Runs the plan to completion into a set-semantics `Relation`
  /// (structural duplicates collapsed, empty-lifespan tuples dropped),
  /// marked materialized — exactly the contract of the whole-relation
  /// algebra operators.
  Result<Relation> Drain();

  const SchemePtr& scheme() const { return root_->scheme(); }
  const PlanStats& stats() const { return ctx_->stats; }

 private:
  Plan(std::unique_ptr<PlanContext> ctx, CursorPtr root)
      : ctx_(std::move(ctx)), root_(std::move(root)) {}

  std::unique_ptr<PlanContext> ctx_;  // address-stable; outlives root_
  CursorPtr root_;
};

}  // namespace hrdm::query

#endif  // HRDM_QUERY_PLAN_H_
