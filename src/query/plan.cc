#include "query/plan.h"

#include <algorithm>
#include <utility>

#include "algebra/join.h"
#include "algebra/project.h"
#include "algebra/select.h"
#include "algebra/timeslice.h"
#include "util/thread_pool.h"

namespace hrdm::query {

namespace {

/// Builds a cursor of concrete type `C` and returns it as a CursorPtr, so the
/// result converts into Result<CursorPtr> in a single user-defined step.
template <typename C, typename... Args>
CursorPtr MakeCursor(Args&&... args) {
  return std::make_unique<C>(std::forward<Args>(args)...);
}

/// Lowers `expr` onto an existing plan context (defined with the lowering
/// rules below; Plan::Lower is the public entry point).
Result<CursorPtr> LowerExpr(const ExprPtr& expr, const PlanResolver& resolver,
                            PlanContext* ctx, const PlanOptions& options);

// --- parallel execution helpers ---------------------------------------------

/// The degree of parallelism PlanOptions asks for (0 = auto).
size_t RequestedParallelism(const PlanOptions& options) {
  return options.parallelism == 0 ? DefaultParallelism() : options.parallelism;
}

/// The morsel size for `n` items on `workers` workers: kMorselSize, shrunk
/// only so every worker has at least one morsel on small (forced-parallel)
/// inputs.
size_t MorselSizeFor(size_t n, size_t workers) {
  const size_t per_worker = (n + workers - 1) / workers;
  return std::max<size_t>(1, std::min(kMorselSize, per_worker));
}

size_t MorselCountFor(size_t n, size_t morsel) {
  return n == 0 ? 0 : (n + morsel - 1) / morsel;
}

/// Interpolates `tuples[begin, end)` in place (representation → model,
/// Figure 9) — the per-morsel kernel of the parallel scan leaf. Worker
/// threads allocate through the heap: the plan arena is coordinator-only.
Status MaterializeRange(std::vector<TuplePtr>& tuples, size_t begin,
                        size_t end) {
  for (size_t i = begin; i < end; ++i) {
    HRDM_ASSIGN_OR_RETURN(tuples[i], tuples[i]->MaterializedShared());
  }
  return Status::OK();
}

/// The scan leaf's morsel-parallel interpolation pass: every morsel writes
/// its own disjoint slice of `tuples`, so order is unchanged and no two
/// workers touch the same slot. Stats are updated on the coordinator after
/// all morsels join.
Status ParallelMaterialize(std::vector<TuplePtr>& tuples, size_t workers,
                           PlanStats* stats) {
  util::ThreadPool& pool = util::SharedThreadPool(workers);
  const size_t morsel = MorselSizeFor(tuples.size(), workers);
  const size_t count = MorselCountFor(tuples.size(), morsel);
  std::vector<size_t> morsel_worker(count, 0);
  size_t dispatched = 0;
  HRDM_RETURN_IF_ERROR(util::ParallelMorsels(
      pool, tuples.size(), morsel,
      [&](size_t begin, size_t end, size_t worker_id) -> Status {
        morsel_worker[begin / morsel] = worker_id;
        return MaterializeRange(tuples, begin, end);
      },
      &dispatched));
  stats->morsels_dispatched += dispatched;
  for (size_t m = 0; m < count; ++m) {
    const size_t begin = m * morsel;
    const size_t end = std::min(begin + morsel, tuples.size());
    stats->OnWorkerTuples(morsel_worker[m], end - begin);
  }
  return Status::OK();
}

/// Folds tuples [begin, end) of `rel` into `agg` in relation order, one
/// contiguous piece of a chunk at a time (every chunk but the last holds
/// exactly Relation::kChunkSize handles).
Status FoldRange(GroupedAggregator& agg, const Relation& rel, size_t begin,
                 size_t end) {
  while (begin < end) {
    const size_t chunk_end = (begin | (Relation::kChunkSize - 1)) + 1;
    const size_t n = std::min(end, chunk_end) - begin;
    HRDM_RETURN_IF_ERROR(agg.FoldBatch(&rel.tuple_ptr(begin), n));
    begin += n;
  }
  return Status::OK();
}

/// Runs a cursor to completion into a set-semantics Relation (the
/// whole-relation operators' output contract). Blocking cursors hand over
/// their buffered result directly; everything else drains batch-at-a-time.
Result<Relation> DrainCursor(Cursor* cursor) {
  HRDM_ASSIGN_OR_RETURN(std::optional<Relation> whole,
                        cursor->TakeBuffered());
  if (whole) return std::move(*whole);
  Relation out(cursor->scheme());
  while (true) {
    HRDM_ASSIGN_OR_RETURN(TupleBatch* batch, cursor->NextBatch());
    if (!batch) break;
    for (TuplePtr& t : *batch) {
      HRDM_RETURN_IF_ERROR(out.InsertDedup(std::move(t)));
    }
  }
  out.set_materialized(true);
  return out;
}

/// Evaluates a lifespan-sorted window expression against the same context
/// as the enclosing plan, so the relations a `when(e)` subquery
/// materializes are visible in `peak_buffered` (they are genuine
/// intermediate materializations — the materializing interpreter counts
/// them too).
Result<Lifespan> EvalWindowIn(const LsExprPtr& expr,
                              const PlanResolver& resolver, PlanContext* ctx,
                              const PlanOptions& options) {
  if (!expr) return Status::InvalidArgument("null lifespan expression");
  switch (expr->kind) {
    case LsExprKind::kLiteral:
      return expr->literal;
    case LsExprKind::kWhen: {
      HRDM_ASSIGN_OR_RETURN(
          CursorPtr cursor,
          LowerExpr(expr->relation, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(Relation rel, DrainCursor(cursor.get()));
      ctx->stats.OnBuffer(rel.size());
      Lifespan ls = rel.LS();  // Ω(r) = LS(r), §4.5
      ctx->stats.OnRelease(rel.size());
      return ls;
    }
    case LsExprKind::kUnion:
    case LsExprKind::kIntersect:
    case LsExprKind::kDifference: {
      HRDM_ASSIGN_OR_RETURN(
          Lifespan l, EvalWindowIn(expr->left, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(
          Lifespan r, EvalWindowIn(expr->right, resolver, ctx, options));
      switch (expr->kind) {
        case LsExprKind::kUnion:
          return l.Union(r);
        case LsExprKind::kIntersect:
          return l.Intersect(r);
        case LsExprKind::kDifference:
          return l.Difference(r);
        case LsExprKind::kLiteral:
        case LsExprKind::kWhen:
          break;  // unreachable: the enclosing case covers ∪ ∩ − only
      }
    }
  }
  return Status::Internal("unhandled lifespan expression kind");
}

/// The planner's one size source: the exact stored size of each base
/// relation, read through the resolver (shared by every chooser).
CardinalityFn ExactCardinality(const PlanResolver& resolver) {
  return [&resolver](std::string_view name) -> std::optional<size_t> {
    auto rel = resolver(name);
    if (!rel.ok()) return std::nullopt;
    return (*rel)->size();
  };
}

/// The optimizer's strategy choice for one JOIN node, with the forced
/// override (differential tests) applied — a forced strategy the node is
/// not eligible for falls back to nested loop rather than mis-executing.
JoinChoice ResolveJoinChoice(const Expr& e, const RelationScheme& ls,
                             const RelationScheme& rs,
                             const PlanResolver& resolver,
                             const PlanOptions& options) {
  JoinChoice choice = ChooseJoinStrategy(e, ls, rs, ExactCardinality(resolver));
  if (options.force_join_strategy) {
    switch (*options.force_join_strategy) {
      case JoinStrategy::kNestedLoop:
        choice.strategy = JoinStrategy::kNestedLoop;
        break;
      case JoinStrategy::kHash:
        if (choice.strategy != JoinStrategy::kHash) {
          choice.strategy = JoinStrategy::kNestedLoop;
        }
        break;
      case JoinStrategy::kMerge:
        choice.strategy = e.kind == ExprKind::kTimeJoin
                              ? JoinStrategy::kMerge
                              : JoinStrategy::kNestedLoop;
        break;
    }
  }
  return choice;
}

}  // namespace

// --- PlanContext -------------------------------------------------------------

TuplePtr PlanContext::AdoptTuple(Tuple&& t) {
  if (!arena) return std::make_shared<const Tuple>(std::move(t));
  const Tuple* obj = arena->Create<Tuple>(std::move(t));
  stats.arena_bytes = arena->bytes_allocated();
  // Aliasing handle: shares the arena's control block, points at the
  // arena-resident tuple — escaping handles keep the whole arena alive.
  return TuplePtr(arena, obj);
}

// --- ScanCursor --------------------------------------------------------------

ScanCursor::ScanCursor(SchemePtr scheme, std::vector<TupleChunkPtr> chunks,
                       AccessPath path, size_t parallelism, PlanContext* ctx)
    : Cursor(std::move(scheme), ctx),
      chunks_(std::move(chunks)),
      parallelism_(parallelism) {
  for (const TupleChunkPtr& chunk : chunks_) size_ += chunk->size();
  switch (path) {
    case AccessPath::kFullScan:
      ++stats_->scans_full;
      break;
    case AccessPath::kLifespanIndex:
      ++stats_->scans_lifespan_index;
      stats_->index_candidates += size_;
      break;
    case AccessPath::kValueIndex:
      ++stats_->scans_value_index;
      stats_->index_candidates += size_;
      break;
  }
  stats_->OnParallelOperator(parallelism_);
}

ScanCursor::~ScanCursor() {
  // Only the interpolated copies never streamed out are still buffered.
  if (parallel_primed_) stats_->OnRelease(size_ - emitted_);
}

Result<TupleBatch*> ScanCursor::NextBatch() {
  if (parallelism_ > 1 && !parallel_primed_) {
    parallel_primed_ = true;
    TupleChunk flat;
    flat.reserve(size_);
    for (const TupleChunkPtr& chunk : chunks_) {
      flat.insert(flat.end(), chunk->begin(), chunk->end());
    }
    HRDM_RETURN_IF_ERROR(ParallelMaterialize(flat, parallelism_, stats_));
    chunks_.assign(1, std::make_shared<const TupleChunk>(std::move(flat)));
    stats_->OnBuffer(size_);  // interpolated copies, not yet emitted
  }
  if (emitted_ >= size_) return nullptr;
  const size_t n = std::min(ctx_->batch_size, size_ - emitted_);
  batch_.clear();
  // Batches run across chunk boundaries, so they are cut exactly as they
  // would be from one flat handle vector.
  while (batch_.size() < n) {
    const TupleChunk& chunk = *chunks_[chunk_];
    const size_t end = std::min(chunk.size(), offset_ + (n - batch_.size()));
    for (size_t i = offset_; i < end; ++i) {
      if (parallel_primed_) {
        batch_.push_back(chunk[i]);  // already interpolated
        continue;
      }
      // Representation → model mapping (Figure 9), one tight loop per
      // batch. MaterializedShared memoizes per stored tuple, so re-scanning
      // a database version re-uses the interpolated handles instead of
      // re-running Figure 9's mapping every query.
      HRDM_ASSIGN_OR_RETURN(TuplePtr m, chunk[i]->MaterializedShared());
      batch_.push_back(std::move(m));
    }
    offset_ = end;
    if (offset_ == chunk.size()) {
      ++chunk_;
      offset_ = 0;
    }
  }
  if (parallel_primed_) stats_->OnRelease(n);
  emitted_ += n;
  stats_->tuples_scanned += n;
  return EmitOrEnd(batch_);
}

// --- SelectIfCursor ----------------------------------------------------------

SelectIfCursor::SelectIfCursor(CursorPtr child, Predicate predicate,
                               Quantifier quantifier,
                               std::optional<Lifespan> window,
                               PlanContext* ctx)
    : Cursor(child->scheme(), ctx),
      child_(std::move(child)),
      predicate_(std::move(predicate)),
      quantifier_(quantifier),
      window_(std::move(window)) {}

Result<TupleBatch*> SelectIfCursor::NextBatch() {
  // Keep pulling child batches until one survives the filter (batches are
  // never empty, so a fully-filtered input batch is skipped, not emitted).
  while (true) {
    HRDM_ASSIGN_OR_RETURN(TupleBatch* in, child_->NextBatch());
    if (!in) return nullptr;
    out_.clear();
    HRDM_RETURN_IF_ERROR(SelectIfBatch(*in, predicate_, quantifier_,
                                       window_ ? &*window_ : nullptr, out_));
    if (!out_.empty()) return EmitOrEnd(out_);
  }
}

// --- SelectWhenCursor --------------------------------------------------------

SelectWhenCursor::SelectWhenCursor(CursorPtr child, std::vector<Stage> stages,
                                   SchemePtr project_scheme,
                                   std::vector<size_t> project_src,
                                   PlanContext* ctx)
    : Cursor(project_scheme ? std::move(project_scheme) : child->scheme(),
             ctx),
      child_(std::move(child)),
      stages_(std::move(stages)),
      project_(!project_src.empty()),  // projection lists are never empty
      project_src_(std::move(project_src)) {}

Result<TupleBatch*> SelectWhenCursor::NextBatch() {
  while (true) {
    HRDM_ASSIGN_OR_RETURN(TupleBatch* in, child_->NextBatch());
    if (!in) return nullptr;
    out_.clear();
    for (TuplePtr& t : *in) {
      // Accumulate the chain's effective lifespan, innermost stage first.
      // Criteria are evaluated scoped to the lifespan accumulated so far,
      // which equals SelectWhenHolds on the stage-restricted tuple — so the
      // chronons kept, the comparisons attempted, and the per-stage drops
      // all match the unfused pipeline, with a single Restrict at the end.
      // The first stage reads the tuple's own lifespan; no copy is made.
      Lifespan eff;
      for (size_t i = 0; i < stages_.size(); ++i) {
        const Lifespan& scope = i == 0 ? t->lifespan() : eff;
        if (const Lifespan* window = std::get_if<Lifespan>(&stages_[i])) {
          eff = scope.Intersect(*window);
        } else {
          HRDM_ASSIGN_OR_RETURN(
              eff, std::get<Predicate>(stages_[i]).TimesWhere(
                       *t, ValueView::kStored, &scope));
        }
        if (eff.empty()) break;
      }
      if (eff.empty()) continue;
      if (project_) {
        // Fused restrict+project: only the kept attributes are restricted,
        // straight into the projected tuple. Equal to ProjectTupleRaw over
        // the restricted tuple — projection copies values verbatim, so the
        // two operations commute attribute-by-attribute.
        std::vector<TemporalValue> values;
        values.reserve(project_src_.size());
        for (size_t idx : project_src_) {
          values.push_back(t->value(idx).Restrict(eff));
        }
        out_.push_back(ctx_->AdoptTuple(
            Tuple::FromParts(scheme_, eff, std::move(values))));
        continue;
      }
      if (t->scheme() != scheme_) {
        Tuple restricted = t->Restrict(eff, scheme_);
        if (restricted.lifespan().empty()) continue;
        out_.push_back(ctx_->AdoptTuple(std::move(restricted)));
        continue;
      }
      // Identity fast path: the whole chain holds over the whole lifespan,
      // so Restrict would rebuild the tuple unchanged — re-emit the handle.
      if (eff.ContainsAll(t->lifespan())) {
        out_.push_back(std::move(t));
        continue;
      }
      // eff ⊆ t.l (every stage narrows the tuple's own lifespan), so
      // t|_eff is eff with each value restricted to it — what Restrict
      // builds, without its second cover test and t.l ∩ eff.
      std::vector<TemporalValue> values;
      values.reserve(t->arity());
      for (size_t i = 0; i < t->arity(); ++i) {
        values.push_back(t->value(i).Restrict(eff));
      }
      out_.push_back(ctx_->AdoptTuple(
          Tuple::FromParts(scheme_, std::move(eff), std::move(values))));
    }
    if (!out_.empty()) return EmitOrEnd(out_);
  }
}

// --- ProjectCursor -----------------------------------------------------------

ProjectCursor::ProjectCursor(CursorPtr child, SchemePtr out_scheme,
                             std::vector<size_t> src, PlanContext* ctx)
    : Cursor(std::move(out_scheme), ctx),
      child_(std::move(child)),
      src_(std::move(src)) {}

Result<TupleBatch*> ProjectCursor::NextBatch() {
  HRDM_ASSIGN_OR_RETURN(TupleBatch* in, child_->NextBatch());
  if (!in) return nullptr;
  out_.clear();
  for (const TuplePtr& t : *in) {
    out_.push_back(ctx_->AdoptTuple(ProjectTupleRaw(*t, scheme_, src_)));
  }
  return EmitOrEnd(out_);
}

// --- TimeSliceCursor ---------------------------------------------------------

TimeSliceCursor::TimeSliceCursor(CursorPtr child, size_t attr_idx,
                                 PlanContext* ctx)
    : Cursor(child->scheme(), ctx),
      child_(std::move(child)),
      attr_idx_(attr_idx) {}

Result<TupleBatch*> TimeSliceCursor::NextBatch() {
  while (true) {
    HRDM_ASSIGN_OR_RETURN(TupleBatch* in, child_->NextBatch());
    if (!in) return nullptr;
    out_.clear();
    for (TuplePtr& t : *in) {
      HRDM_ASSIGN_OR_RETURN(TuplePtr sliced,
                            DynSliceTuple(t, attr_idx_, scheme_));
      if (sliced) out_.push_back(std::move(sliced));
    }
    if (!out_.empty()) return EmitOrEnd(out_);
  }
}

// --- NestedLoopJoinCursor ----------------------------------------------------

NestedLoopJoinCursor::NestedLoopJoinCursor(CursorPtr left, CursorPtr right,
                                           JoinAssembly assembly,
                                           JoinPairFn pair, PlanContext* ctx)
    : Cursor(assembly.scheme(), ctx),
      left_(std::move(left)),
      right_(std::move(right)),
      assembly_(std::move(assembly)),
      pair_(std::move(pair)) {
  ++stats_->joins_nested_loop;
}

NestedLoopJoinCursor::~NestedLoopJoinCursor() {
  stats_->OnRelease(right_buffer_.size());
}

Result<TupleBatch*> NestedLoopJoinCursor::NextBatch() {
  if (!primed_) {
    primed_ = true;
    while (true) {
      HRDM_ASSIGN_OR_RETURN(TupleBatch* batch, right_->NextBatch());
      if (!batch) break;
      stats_->OnBuffer(batch->size());
      for (TuplePtr& t : *batch) right_buffer_.push_back(std::move(t));
    }
  }
  if (right_buffer_.empty()) {
    // The join is empty, but the left side must still be evaluated so its
    // runtime errors surface exactly as in the materializing path (which
    // evaluates both operands before applying the operator).
    while (true) {
      HRDM_ASSIGN_OR_RETURN(TupleBatch* batch, left_->NextBatch());
      if (!batch) return nullptr;
    }
  }
  // Fill the output batch, suspending the pair walk wherever it fills;
  // the left position and right_pos_ persist across calls.
  out_.clear();
  while (out_.size() < ctx_->batch_size) {
    if (left_batch_ == nullptr || left_pos_ >= left_batch_->size()) {
      HRDM_ASSIGN_OR_RETURN(left_batch_, left_->NextBatch());
      left_pos_ = 0;
      if (left_batch_ == nullptr) break;  // left exhausted: flush
    }
    const Tuple& t1 = *(*left_batch_)[left_pos_];
    while (right_pos_ < right_buffer_.size() &&
           out_.size() < ctx_->batch_size) {
      const Tuple& t2 = *right_buffer_[right_pos_++];
      ++stats_->join_pairs_tested;
      HRDM_ASSIGN_OR_RETURN(Lifespan l, pair_(t1, t2));
      if (l.empty()) continue;
      out_.push_back(ctx_->AdoptTuple(assembly_.Assemble(t1, t2, l)));
    }
    if (right_pos_ >= right_buffer_.size()) {
      ++left_pos_;
      right_pos_ = 0;
    }
  }
  return EmitOrEnd(out_);
}

// --- HashEquiJoinCursor ------------------------------------------------------

HashEquiJoinCursor::HashEquiJoinCursor(
    CursorPtr left, CursorPtr right, bool build_left,
    std::vector<std::pair<size_t, size_t>> key_attrs, JoinAssembly assembly,
    JoinPairFn pair, size_t parallelism, PlanContext* ctx)
    : Cursor(assembly.scheme(), ctx),
      left_(std::move(left)),
      right_(std::move(right)),
      build_left_(build_left),
      key_attrs_(std::move(key_attrs)),
      assembly_(std::move(assembly)),
      pair_(std::move(pair)),
      parallelism_(parallelism) {
  ++stats_->joins_hash;
  stats_->OnParallelOperator(parallelism_);
}

HashEquiJoinCursor::~HashEquiJoinCursor() {
  stats_->OnRelease(build_.size());
  if (parallel_probed_) stats_->OnRelease(parallel_out_.size());
}

Status HashEquiJoinCursor::Prime() {
  primed_ = true;
  Cursor* build_child = build_left_ ? left_.get() : right_.get();
  if (parallelism_ > 1) {
    // Parallel build: the drain stays on the coordinator (cursor pulls are
    // serial by design), the digesting goes to the pool.
    while (true) {
      HRDM_ASSIGN_OR_RETURN(TupleBatch* batch, build_child->NextBatch());
      if (!batch) break;
      for (TuplePtr& t : *batch) {
        build_.push_back(std::move(t));
        stats_->OnBuffer(1);
      }
    }
    return PartitionBuildParallel();
  }
  // Serial build: digest batch-at-a-time as the drain goes.
  while (true) {
    HRDM_ASSIGN_OR_RETURN(TupleBatch* batch, build_child->NextBatch());
    if (!batch) break;
    for (TuplePtr& t : *batch) {
      const size_t idx = build_.size();
      if (auto digest = JoinKeysDigest(*t, key_attrs_, build_left_)) {
        buckets_[*digest].push_back(idx);
      } else {
        varying_.push_back(idx);
      }
      build_.push_back(std::move(t));
      stats_->OnBuffer(1);
    }
  }
  return Status::OK();
}

Status HashEquiJoinCursor::PartitionBuildParallel() {
  // Per-morsel partition tables: each morsel digests its contiguous slice
  // of build_ into a private (digest, index) list, merged below in morsel
  // order — indices are appended ascending, so every bucket (and varying_)
  // ends up byte-identical to the serial build's.
  struct Partition {
    std::vector<std::pair<uint64_t, size_t>> digested;
    std::vector<size_t> varying;
    size_t worker_id = 0;
  };
  util::ThreadPool& pool = util::SharedThreadPool(parallelism_);
  const size_t morsel = MorselSizeFor(build_.size(), parallelism_);
  const size_t count = MorselCountFor(build_.size(), morsel);
  std::vector<Partition> parts(count);
  size_t dispatched = 0;
  HRDM_RETURN_IF_ERROR(util::ParallelMorsels(
      pool, build_.size(), morsel,
      [&](size_t begin, size_t end, size_t worker_id) -> Status {
        Partition& p = parts[begin / morsel];
        p.worker_id = worker_id;
        for (size_t i = begin; i < end; ++i) {
          if (auto digest = JoinKeysDigest(*build_[i], key_attrs_,
                                           build_left_)) {
            p.digested.emplace_back(*digest, i);
          } else {
            p.varying.push_back(i);
          }
        }
        return Status::OK();
      },
      &dispatched));
  stats_->morsels_dispatched += dispatched;
  for (size_t m = 0; m < count; ++m) {
    const size_t begin = m * morsel;
    const size_t end = std::min(begin + morsel, build_.size());
    stats_->OnWorkerTuples(parts[m].worker_id, end - begin);
    for (const auto& [digest, idx] : parts[m].digested) {
      buckets_[digest].push_back(idx);
    }
    for (size_t idx : parts[m].varying) varying_.push_back(idx);
    ++stats_->partitions_merged;
  }
  return Status::OK();
}

Status HashEquiJoinCursor::TryPairInto(size_t build_idx, TupleBatch& out) {
  const Tuple& b = *build_[build_idx];
  const Tuple& t1 = build_left_ ? b : *probe_;
  const Tuple& t2 = build_left_ ? *probe_ : b;
  ++stats_->join_pairs_tested;
  HRDM_ASSIGN_OR_RETURN(Lifespan l, pair_(t1, t2));
  if (l.empty()) return Status::OK();
  out.push_back(ctx_->AdoptTuple(assembly_.Assemble(t1, t2, l)));
  return Status::OK();
}

Status HashEquiJoinCursor::ProbeOne(const TuplePtr& probe,
                                    std::vector<TuplePtr>& out,
                                    size_t& pairs_tested) const {
  // The worker-side mirror of the serial probe loop: same candidate order
  // (digest bucket, then varying; or the full scan when the probe digest is
  // unavailable), so per-probe output order matches the serial emission.
  // Heap-allocates its output — the plan arena is coordinator-only.
  auto try_pair = [&](size_t build_idx) -> Status {
    const Tuple& b = *build_[build_idx];
    const Tuple& t1 = build_left_ ? b : *probe;
    const Tuple& t2 = build_left_ ? *probe : b;
    ++pairs_tested;
    HRDM_ASSIGN_OR_RETURN(Lifespan l, pair_(t1, t2));
    if (!l.empty()) {
      out.push_back(
          std::make_shared<const Tuple>(assembly_.Assemble(t1, t2, l)));
    }
    return Status::OK();
  };
  if (auto digest = JoinKeysDigest(*probe, key_attrs_, !build_left_)) {
    auto it = buckets_.find(*digest);
    if (it != buckets_.end()) {
      for (size_t idx : it->second) HRDM_RETURN_IF_ERROR(try_pair(idx));
    }
    for (size_t idx : varying_) HRDM_RETURN_IF_ERROR(try_pair(idx));
  } else {
    // Varying probe value: it may match any partition at some chronon.
    for (size_t i = 0; i < build_.size(); ++i) {
      HRDM_RETURN_IF_ERROR(try_pair(i));
    }
  }
  return Status::OK();
}

Status HashEquiJoinCursor::RunProbeParallel() {
  parallel_probed_ = true;
  Cursor* probe_child = build_left_ ? right_.get() : left_.get();
  // Drain the probe side on the coordinator (also the error-parity
  // evaluation when the build side is empty), then probe morsel-parallel.
  std::vector<TuplePtr> probes;
  while (true) {
    HRDM_ASSIGN_OR_RETURN(TupleBatch* batch, probe_child->NextBatch());
    if (!batch) break;
    for (TuplePtr& t : *batch) probes.push_back(std::move(t));
  }
  stats_->OnBuffer(probes.size());
  if (build_.empty() || probes.empty()) {
    stats_->OnRelease(probes.size());
    return Status::OK();
  }
  struct MorselOut {
    std::vector<TuplePtr> out;
    size_t pairs_tested = 0;
    size_t worker_id = 0;
  };
  util::ThreadPool& pool = util::SharedThreadPool(parallelism_);
  const size_t morsel = MorselSizeFor(probes.size(), parallelism_);
  const size_t count = MorselCountFor(probes.size(), morsel);
  std::vector<MorselOut> morsels(count);
  size_t dispatched = 0;
  HRDM_RETURN_IF_ERROR(util::ParallelMorsels(
      pool, probes.size(), morsel,
      [&](size_t begin, size_t end, size_t worker_id) -> Status {
        MorselOut& mo = morsels[begin / morsel];
        mo.worker_id = worker_id;
        for (size_t i = begin; i < end; ++i) {
          HRDM_RETURN_IF_ERROR(ProbeOne(probes[i], mo.out, mo.pairs_tested));
        }
        return Status::OK();
      },
      &dispatched));
  stats_->morsels_dispatched += dispatched;
  // Concatenate the per-morsel output runs in morsel order: the joined
  // stream is the serial emission order, morsel boundaries invisible.
  size_t total = 0;
  for (const MorselOut& mo : morsels) total += mo.out.size();
  parallel_out_.reserve(total);
  for (size_t m = 0; m < count; ++m) {
    const size_t begin = m * morsel;
    const size_t end = std::min(begin + morsel, probes.size());
    stats_->OnWorkerTuples(morsels[m].worker_id, end - begin);
    stats_->join_pairs_tested += morsels[m].pairs_tested;
    for (TuplePtr& t : morsels[m].out) parallel_out_.push_back(std::move(t));
    ++stats_->partitions_merged;
  }
  stats_->OnBuffer(parallel_out_.size());
  stats_->OnRelease(probes.size());  // the probe buffer dies here
  return Status::OK();
}

Result<TupleBatch*> HashEquiJoinCursor::NextBatch() {
  if (!primed_) {
    HRDM_RETURN_IF_ERROR(Prime());
  }
  if (parallelism_ > 1) {
    if (!parallel_probed_) {
      HRDM_RETURN_IF_ERROR(RunProbeParallel());
    }
    // Stream the concatenated parallel output in batch-size slices.
    if (parallel_out_pos_ >= parallel_out_.size()) return nullptr;
    const size_t n =
        std::min(ctx_->batch_size, parallel_out_.size() - parallel_out_pos_);
    out_.clear();
    for (size_t i = 0; i < n; ++i) {
      out_.push_back(std::move(parallel_out_[parallel_out_pos_ + i]));
    }
    parallel_out_pos_ += n;
    return EmitOrEnd(out_);
  }
  Cursor* probe_child = build_left_ ? right_.get() : left_.get();
  if (build_.empty()) {
    // Evaluate the probe side anyway for error parity with the
    // materializing path.
    while (true) {
      HRDM_ASSIGN_OR_RETURN(TupleBatch* batch, probe_child->NextBatch());
      if (!batch) return nullptr;
    }
  }
  // Fill the output batch, suspending the candidate walk wherever it fills;
  // probe_ and the bucket/varying positions persist across calls, so the
  // next pull resumes exactly where this one stopped.
  out_.clear();
  while (out_.size() < ctx_->batch_size) {
    if (!probe_) {
      if (probe_batch_ == nullptr || probe_pos_ >= probe_batch_->size()) {
        HRDM_ASSIGN_OR_RETURN(probe_batch_, probe_child->NextBatch());
        probe_pos_ = 0;
        if (probe_batch_ == nullptr) break;  // probe side exhausted: flush
      }
      probe_ = std::move((*probe_batch_)[probe_pos_++]);
      bucket_ = nullptr;
      bucket_pos_ = 0;
      in_varying_ = false;
      scan_all_ = false;
      scan_pos_ = 0;
      if (auto digest = JoinKeysDigest(*probe_, key_attrs_, !build_left_)) {
        auto it = buckets_.find(*digest);
        if (it != buckets_.end()) bucket_ = &it->second;
      } else {
        // The probe tuple's join value varies over its lifespan: it may
        // match any partition at some chronon, so test every build tuple.
        scan_all_ = true;
      }
    }
    if (scan_all_) {
      while (scan_pos_ < build_.size() && out_.size() < ctx_->batch_size) {
        HRDM_RETURN_IF_ERROR(TryPairInto(scan_pos_++, out_));
      }
      if (scan_pos_ >= build_.size()) probe_.reset();
      continue;
    }
    // Digest-matching partition first, then the varying build tuples
    // (which may match anything at some chronon).
    while (bucket_ && bucket_pos_ < bucket_->size() &&
           out_.size() < ctx_->batch_size) {
      HRDM_RETURN_IF_ERROR(TryPairInto((*bucket_)[bucket_pos_++], out_));
    }
    if (bucket_ && bucket_pos_ < bucket_->size()) continue;  // batch full
    if (!in_varying_) {
      in_varying_ = true;
      scan_pos_ = 0;
    }
    while (scan_pos_ < varying_.size() && out_.size() < ctx_->batch_size) {
      HRDM_RETURN_IF_ERROR(TryPairInto(varying_[scan_pos_++], out_));
    }
    if (scan_pos_ >= varying_.size()) probe_.reset();
  }
  return EmitOrEnd(out_);
}

// --- MergeTimeJoinCursor -----------------------------------------------------

MergeTimeJoinCursor::MergeTimeJoinCursor(CursorPtr left, CursorPtr right,
                                         size_t attr_a, JoinAssembly assembly,
                                         PlanContext* ctx)
    : Cursor(assembly.scheme(), ctx),
      left_(std::move(left)),
      right_(std::move(right)),
      attr_a_(attr_a),
      assembly_(std::move(assembly)) {
  ++stats_->joins_merge;
}

MergeTimeJoinCursor::~MergeTimeJoinCursor() {
  stats_->OnRelease(lefts_.size() + rights_.size());
}

Status MergeTimeJoinCursor::Prime() {
  primed_ = true;
  while (true) {
    HRDM_ASSIGN_OR_RETURN(TupleBatch* batch, left_->NextBatch());
    if (!batch) break;
    for (TuplePtr& t : *batch) {
      // The joined lifespan is confined to image(t(A)) ∩ t.l; tuples whose
      // effective span is empty can never join and are dropped here.
      HRDM_ASSIGN_OR_RETURN(Lifespan image, t->value(attr_a_).TimeImage());
      Lifespan effective = image.Intersect(t->lifespan());
      if (effective.empty()) continue;
      Entry e{std::move(t), std::move(effective), 0, 0};
      e.begin = e.effective.Min();
      e.end = e.effective.Max();
      lefts_.push_back(std::move(e));
      stats_->OnBuffer(1);
    }
  }
  while (true) {
    HRDM_ASSIGN_OR_RETURN(TupleBatch* batch, right_->NextBatch());
    if (!batch) break;
    for (TuplePtr& t : *batch) {
      Entry e{std::move(t), Lifespan(), 0, 0};
      e.effective = e.tuple->lifespan();
      if (e.effective.empty()) continue;
      e.begin = e.effective.Min();
      e.end = e.effective.Max();
      rights_.push_back(std::move(e));
      stats_->OnBuffer(1);
    }
  }
  auto by_begin = [](const Entry& a, const Entry& b) {
    return a.begin < b.begin;
  };
  std::stable_sort(lefts_.begin(), lefts_.end(), by_begin);
  std::stable_sort(rights_.begin(), rights_.end(), by_begin);
  return Status::OK();
}

Result<TupleBatch*> MergeTimeJoinCursor::NextBatch() {
  if (!primed_) {
    HRDM_RETURN_IF_ERROR(Prime());
  }
  // Fill the output batch, suspending the sweep wherever it fills; li_,
  // ai_ and the frontier persist across calls.
  out_.clear();
  while (li_ < lefts_.size() && out_.size() < ctx_->batch_size) {
    Entry& L = lefts_[li_];
    if (!left_open_) {
      left_open_ = true;
      // Advance the frontier: rights starting by L.end join the active
      // set; actives ending before L.begin can never overlap this or any
      // later left (left begins are non-decreasing) and retire for good.
      while (next_right_ < rights_.size() &&
             rights_[next_right_].begin <= L.end) {
        active_.push_back(next_right_++);
      }
      std::erase_if(active_,
                    [&](size_t r) { return rights_[r].end < L.begin; });
      ai_ = 0;
    }
    while (ai_ < active_.size() && out_.size() < ctx_->batch_size) {
      const Entry& R = rights_[active_[ai_++]];
      // Extent check: actives were admitted against *some* left's end, not
      // necessarily this one's.
      if (R.begin > L.end || R.end < L.begin) continue;
      ++stats_->join_pairs_tested;
      Lifespan l = L.effective.Intersect(R.effective);
      if (l.empty()) continue;
      out_.push_back(
          ctx_->AdoptTuple(assembly_.Assemble(*L.tuple, *R.tuple, l)));
    }
    if (ai_ >= active_.size()) {
      ++li_;
      left_open_ = false;
    }
  }
  return EmitOrEnd(out_);
}

// --- BufferedResultCursor ----------------------------------------------------

BufferedResultCursor::~BufferedResultCursor() {
  if (result_) stats_->OnRelease(result_->size());
}

Status BufferedResultCursor::EnsurePrimed() {
  if (primed_) return Status::OK();
  primed_ = true;
  HRDM_ASSIGN_OR_RETURN(Relation out, Prime());
  result_ = std::move(out);
  return Status::OK();
}

Result<TupleBatch*> BufferedResultCursor::NextBatch() {
  HRDM_RETURN_IF_ERROR(EnsurePrimed());
  if (!result_ || pos_ >= result_->size()) return nullptr;
  const size_t n = std::min(ctx_->batch_size, result_->size() - pos_);
  batch_.clear();
  for (size_t i = 0; i < n; ++i) batch_.push_back(result_->tuple_ptr(pos_ + i));
  pos_ += n;
  return EmitOrEnd(batch_);
}

Result<std::optional<Relation>> BufferedResultCursor::TakeBuffered() {
  if (pos_ != 0) return std::optional<Relation>();  // already being pulled
  HRDM_RETURN_IF_ERROR(EnsurePrimed());
  if (!result_) return std::optional<Relation>();  // already taken
  Relation out = std::move(*result_);
  result_.reset();
  stats_->OnRelease(out.size());
  return std::optional<Relation>(std::move(out));
}

// --- HashAggregateCursor -----------------------------------------------------

HashAggregateCursor::HashAggregateCursor(CursorPtr child,
                                         GroupedAggregator aggregator,
                                         size_t estimated_groups,
                                         size_t parallelism, PlanContext* ctx)
    : BufferedResultCursor(aggregator.scheme(), ctx),
      child_(std::move(child)),
      aggregator_(std::move(aggregator)),
      parallelism_(parallelism) {
  ++stats_->aggregates;
  stats_->agg_groups_estimated += estimated_groups;
  aggregator_.Reserve(estimated_groups);
  stats_->OnParallelOperator(parallelism_);
}

Status HashAggregateCursor::FoldAll(const Relation& unique) {
  if (parallelism_ <= 1 || unique.size() < 2) {
    return FoldRange(aggregator_, unique, 0, unique.size());
  }
  // Morsel-parallel fold: each morsel folds its contiguous input slice into
  // a Fork()ed partial; merging the partials in morsel order reconstructs
  // exactly the serial aggregator state (same group first-touch order, same
  // per-group contribution order), so results are bitwise identical.
  util::ThreadPool& pool = util::SharedThreadPool(parallelism_);
  const size_t morsel = MorselSizeFor(unique.size(), parallelism_);
  const size_t count = MorselCountFor(unique.size(), morsel);
  std::vector<GroupedAggregator> partials;
  partials.reserve(count);
  for (size_t m = 0; m < count; ++m) partials.push_back(aggregator_.Fork());
  std::vector<size_t> morsel_worker(count, 0);
  size_t dispatched = 0;
  HRDM_RETURN_IF_ERROR(util::ParallelMorsels(
      pool, unique.size(), morsel,
      [&](size_t begin, size_t end, size_t worker_id) -> Status {
        GroupedAggregator& partial = partials[begin / morsel];
        morsel_worker[begin / morsel] = worker_id;
        return FoldRange(partial, unique, begin, end);
      },
      &dispatched));
  stats_->morsels_dispatched += dispatched;
  for (size_t m = 0; m < count; ++m) {
    const size_t begin = m * morsel;
    const size_t end = std::min(begin + morsel, unique.size());
    stats_->OnWorkerTuples(morsel_worker[m], end - begin);
    aggregator_.MergeFrom(partials[m]);
    ++stats_->partitions_merged;
  }
  return Status::OK();
}

Result<Relation> HashAggregateCursor::Prime() {
  // Aggregation is duplicate-sensitive (COUNT/SUM/AVG) but the input
  // stream is not yet a set — restriction and join cursors may emit
  // structural duplicates that the materialization boundary would
  // normally collapse. The set boundary is established here: the unique
  // tuples are collected first (only the shared handles, never copies),
  // then folded — serially or morsel-parallel (FoldAll).
  HRDM_ASSIGN_OR_RETURN(std::optional<Relation> whole,
                        child_->TakeBuffered());
  if (whole) {
    // The child already holds its entire deduplicated output.
    stats_->OnBuffer(whole->size());
    HRDM_RETURN_IF_ERROR(FoldAll(*whole));
    stats_->OnRelease(whole->size());
  } else {
    Relation seen(child_->scheme());
    while (true) {
      HRDM_ASSIGN_OR_RETURN(TupleBatch* batch, child_->NextBatch());
      if (!batch) break;
      for (TuplePtr& t : *batch) {
        const size_t before = seen.size();
        HRDM_RETURN_IF_ERROR(seen.InsertDedup(std::move(t)));
        if (seen.size() == before) continue;  // structural duplicate
        stats_->OnBuffer(1);
      }
    }
    HRDM_RETURN_IF_ERROR(FoldAll(seen));
    stats_->OnRelease(seen.size());
  }
  stats_->agg_groups_built += aggregator_.group_count();
  stats_->agg_fallback_tuples += aggregator_.fallback_tuples();

  HRDM_ASSIGN_OR_RETURN(std::vector<TuplePtr> tuples, aggregator_.Finish());
  Relation out(aggregator_.scheme());
  for (TuplePtr& t : tuples) {
    HRDM_RETURN_IF_ERROR(out.InsertDedup(std::move(t)));
  }
  out.set_materialized(true);
  stats_->OnBuffer(out.size());
  return out;
}

// --- SetOpCursor -------------------------------------------------------------

SetOpCursor::SetOpCursor(CursorPtr left, CursorPtr right,
                         SchemePtr out_scheme, WholeRelationOp op,
                         PlanContext* ctx)
    : BufferedResultCursor(std::move(out_scheme), ctx),
      left_(std::move(left)),
      right_(std::move(right)),
      op_(std::move(op)) {}

Result<Relation> SetOpCursor::Prime() {
  HRDM_ASSIGN_OR_RETURN(Relation l, DrainCursor(left_.get()));
  stats_->OnBuffer(l.size());
  HRDM_ASSIGN_OR_RETURN(Relation r, DrainCursor(right_.get()));
  stats_->OnBuffer(r.size());
  HRDM_ASSIGN_OR_RETURN(Relation result, op_(l, r));
  stats_->OnBuffer(result.size());
  stats_->OnRelease(l.size() + r.size());
  return result;
}

// --- lowering ----------------------------------------------------------------

namespace {

/// The access path to actually lower for one restriction node: the
/// chooser's cost-based pick, with the forced override (differential tests)
/// applied — a forced path the node is not eligible for falls back to the
/// full scan rather than mis-executing.
AccessPath ResolveAccessPath(const AccessPathChoice& choice,
                             const PlanOptions& options) {
  if (!options.force_access_path) return choice.path;
  switch (*options.force_access_path) {
    case AccessPath::kFullScan:
      return AccessPath::kFullScan;
    case AccessPath::kValueIndex:
      return choice.value_eligible ? AccessPath::kValueIndex
                                   : AccessPath::kFullScan;
    case AccessPath::kLifespanIndex:
      return choice.lifespan_eligible ? AccessPath::kLifespanIndex
                                      : AccessPath::kFullScan;
  }
  return AccessPath::kFullScan;
}

/// Lowers the input of a restriction node (`op.left`): a ScanCursor over a
/// storage-index probe's candidates when the access-path chooser picks one
/// (and the probe hooks actually serve it), the ordinary recursive
/// lowering — a full ScanCursor for base relations — otherwise. `window`
/// is the operator's already-evaluated slice/quantification window, when
/// it has one (lifespan probes need it).
Result<CursorPtr> LowerRestrictionInput(const Expr& op, const Lifespan* window,
                                        const PlanResolver& resolver,
                                        PlanContext* ctx,
                                        const PlanOptions& options) {
  if (op.left && op.left->kind == ExprKind::kRelationRef) {
    const AccessPathChoice choice = ChooseAccessPath(
        op, options.index_catalog, ExactCardinality(resolver));
    const AccessPath path = ResolveAccessPath(choice, options);
    std::optional<std::vector<TuplePtr>> probe;
    if (path == AccessPath::kValueIndex && options.value_probe && choice.key) {
      probe = options.value_probe(op.left->relation, choice.attr, *choice.key);
    } else if (path == AccessPath::kLifespanIndex && options.lifespan_probe &&
               window != nullptr) {
      probe = options.lifespan_probe(op.left->relation, *window);
    }
    if (probe) {
      HRDM_ASSIGN_OR_RETURN(const Relation* rel, resolver(op.left->relation));
      const size_t parallelism = ChooseParallelism(
          RequestedParallelism(options), probe->size(), options.force_parallel);
      return MakeCursor<ScanCursor>(
          rel->scheme(),
          std::vector<TupleChunkPtr>{
              std::make_shared<const TupleChunk>(*std::move(probe))},
          path, parallelism, ctx);
    }
  }
  return LowerExpr(op.left, resolver, ctx, options);
}

/// Lowers the maximal chain of consecutive SELECT-WHEN / static TIME-SLICE
/// nodes rooted at `expr` into a single fused restriction cursor. Both
/// operators are pointwise restrictions of the model-level tuple
/// (`t|_window`, `t|_holds`), so a chain composes to one restriction by
/// the intersection of its stages' lifespans — the fused cursor computes
/// that intersection innermost-first (criteria scoped to the accumulated
/// lifespan, matching what they would see on the stage-restricted tuple)
/// and restricts each surviving tuple once. Slice windows are evaluated in
/// lowering order (outermost first), exactly as the unfused per-node
/// lowering evaluates them. Adjacent windows fold into their intersection,
/// so a windows-only chain (a lone static TIME-SLICE included) is a
/// one-window cursor. The chain's base input goes through the access-path
/// chooser for the innermost node, with the intersection of every window
/// in the chain as the probe window — any surviving tuple overlaps it, so
/// the candidate superset is exact and tighter than the innermost window
/// alone.
///
/// `project_attrs`, when given, is a PROJECT sitting directly above the
/// chain; it fuses into the cursor's emission (only kept attributes are
/// restricted). The projection is resolved against the chain's scheme
/// after the chain is lowered, preserving the unfused error order
/// (window evaluation before projection validation).
Result<CursorPtr> LowerRestrictionChain(
    const ExprPtr& expr, const PlanResolver& resolver, PlanContext* ctx,
    const PlanOptions& options,
    const std::vector<std::string>* project_attrs = nullptr) {
  std::vector<SelectWhenCursor::Stage> stages;  // collected outermost-first
  std::optional<Lifespan> probe_window;
  const Expr* node = expr.get();
  while (true) {
    if (node->kind == ExprKind::kSelectWhen) {
      stages.emplace_back(*node->predicate);
    } else {
      HRDM_ASSIGN_OR_RETURN(
          Lifespan window,
          EvalWindowIn(node->window, resolver, ctx, options));
      probe_window =
          probe_window ? probe_window->Intersect(window) : window;
      if (!stages.empty() &&
          std::holds_alternative<Lifespan>(stages.back())) {
        // Two slices with no criterion between them restrict to the
        // intersection; fold them into one stage.
        Lifespan& prev = std::get<Lifespan>(stages.back());
        prev = prev.Intersect(window);
      } else {
        stages.emplace_back(std::move(window));
      }
    }
    const Expr* child = node->left.get();
    if (child && (child->kind == ExprKind::kSelectWhen ||
                  child->kind == ExprKind::kTimeSlice)) {
      node = child;
      continue;
    }
    break;
  }
  // `node` is now the innermost restriction; its input is the chain's base.
  HRDM_ASSIGN_OR_RETURN(
      CursorPtr child,
      LowerRestrictionInput(*node, probe_window ? &*probe_window : nullptr,
                            resolver, ctx, options));
  std::reverse(stages.begin(), stages.end());  // innermost-first
  if (project_attrs) {
    HRDM_ASSIGN_OR_RETURN(SchemePtr out_scheme,
                          child->scheme()->Project(*project_attrs));
    HRDM_ASSIGN_OR_RETURN(
        std::vector<size_t> src,
        ProjectSourceIndices(*child->scheme(), *out_scheme));
    return MakeCursor<SelectWhenCursor>(std::move(child), std::move(stages),
                                        std::move(out_scheme), std::move(src),
                                        ctx);
  }
  return MakeCursor<SelectWhenCursor>(std::move(child), std::move(stages),
                                      SchemePtr(), std::vector<size_t>(),
                                      ctx);
}

/// The shared tail of the equality-join lowerings (θ-join and natural
/// join): a hash join when the chooser picks it, nested loop otherwise.
/// `key_attrs` are the (left, right) equality columns the hash join digests.
Result<CursorPtr> LowerEqualityJoin(
    const Expr& e, CursorPtr left, CursorPtr right,
    std::vector<std::pair<size_t, size_t>> key_attrs, JoinAssembly assembly,
    JoinPairFn pair, const PlanResolver& resolver, PlanContext* ctx,
    const PlanOptions& options) {
  const JoinChoice choice = ResolveJoinChoice(
      e, *left->scheme(), *right->scheme(), resolver, options);
  if (choice.strategy == JoinStrategy::kHash) {
    const size_t parallelism =
        ChooseParallelism(RequestedParallelism(options),
                          choice.est_left + choice.est_right,
                          options.force_parallel);
    return MakeCursor<HashEquiJoinCursor>(
        std::move(left), std::move(right), choice.build_left,
        std::move(key_attrs), std::move(assembly), std::move(pair),
        parallelism, ctx);
  }
  return MakeCursor<NestedLoopJoinCursor>(std::move(left), std::move(right),
                                          std::move(assembly), std::move(pair),
                                          ctx);
}

Result<CursorPtr> LowerExpr(const ExprPtr& expr, const PlanResolver& resolver,
                            PlanContext* ctx, const PlanOptions& options) {
  if (!expr) return Status::InvalidArgument("null expression");
  switch (expr->kind) {
    case ExprKind::kRelationRef: {
      HRDM_ASSIGN_OR_RETURN(const Relation* rel, resolver(expr->relation));
      const size_t parallelism = ChooseParallelism(
          RequestedParallelism(options), rel->size(), options.force_parallel);
      // The scan shares the stored relation's chunks.
      return MakeCursor<ScanCursor>(rel->scheme(), rel->chunks(),
                                    AccessPath::kFullScan, parallelism, ctx);
    }
    case ExprKind::kSelectIf: {
      // The window is a parameter, not a stream: evaluate it first so a
      // lifespan-index probe can use it when the chooser picks that path.
      std::optional<Lifespan> window;
      if (expr->window) {
        HRDM_ASSIGN_OR_RETURN(
            Lifespan w, EvalWindowIn(expr->window, resolver, ctx, options));
        window = std::move(w);
      }
      HRDM_ASSIGN_OR_RETURN(
          CursorPtr child,
          LowerRestrictionInput(*expr, window ? &*window : nullptr, resolver,
                                ctx, options));
      return MakeCursor<SelectIfCursor>(
          std::move(child), *expr->predicate, expr->quantifier,
          std::move(window), ctx);
    }
    case ExprKind::kSelectWhen:
      return LowerRestrictionChain(expr, resolver, ctx, options);
    case ExprKind::kProject: {
      if (expr->left && (expr->left->kind == ExprKind::kSelectWhen ||
                         expr->left->kind == ExprKind::kTimeSlice)) {
        return LowerRestrictionChain(expr->left, resolver, ctx, options,
                                     &expr->attrs);
      }
      HRDM_ASSIGN_OR_RETURN(CursorPtr child,
                            LowerExpr(expr->left, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(SchemePtr out_scheme,
                            child->scheme()->Project(expr->attrs));
      HRDM_ASSIGN_OR_RETURN(
          std::vector<size_t> src,
          ProjectSourceIndices(*child->scheme(), *out_scheme));
      return MakeCursor<ProjectCursor>(
          std::move(child), std::move(out_scheme), std::move(src), ctx);
    }
    case ExprKind::kTimeSlice:
      return LowerRestrictionChain(expr, resolver, ctx, options);
    case ExprKind::kDynSlice: {
      HRDM_ASSIGN_OR_RETURN(CursorPtr child,
                            LowerExpr(expr->left, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(size_t idx,
                            DynSliceAttrIndex(*child->scheme(), expr->attr_a));
      return MakeCursor<TimeSliceCursor>(std::move(child), idx, ctx);
    }
    case ExprKind::kProduct: {
      HRDM_ASSIGN_OR_RETURN(CursorPtr left,
                            LowerExpr(expr->left, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(CursorPtr right,
                            LowerExpr(expr->right, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(SchemePtr scheme,
                            ProductScheme(left->scheme(), right->scheme()));
      // × is the degenerate join (Section 5): every pair joins, on the union
      // of the operand lifespans. Assemble's restriction to a superset of
      // each value's domain is the identity, so each side's values stay on
      // their own, now partial, domains — exactly ProductTuple.
      JoinAssembly assembly(std::move(scheme), *left->scheme(),
                            *right->scheme());
      JoinPairFn pair = [](const Tuple& t1,
                           const Tuple& t2) -> Result<Lifespan> {
        return t1.lifespan().Union(t2.lifespan());
      };
      return MakeCursor<NestedLoopJoinCursor>(
          std::move(left), std::move(right), std::move(assembly),
          std::move(pair), ctx);
    }
    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kDifference:
    case ExprKind::kUnionO:
    case ExprKind::kIntersectO:
    case ExprKind::kDifferenceO: {
      SetOpKind kind = SetOpKind::kDifferenceO;
      switch (expr->kind) {
        case ExprKind::kUnion:       kind = SetOpKind::kUnion; break;
        case ExprKind::kIntersect:   kind = SetOpKind::kIntersect; break;
        case ExprKind::kDifference:  kind = SetOpKind::kDifference; break;
        case ExprKind::kUnionO:      kind = SetOpKind::kUnionO; break;
        case ExprKind::kIntersectO:  kind = SetOpKind::kIntersectO; break;
        case ExprKind::kDifferenceO: kind = SetOpKind::kDifferenceO; break;
        case ExprKind::kRelationRef:
        case ExprKind::kSelectIf:
        case ExprKind::kSelectWhen:
        case ExprKind::kProject:
        case ExprKind::kTimeSlice:
        case ExprKind::kDynSlice:
        case ExprKind::kProduct:
        case ExprKind::kThetaJoin:
        case ExprKind::kNaturalJoin:
        case ExprKind::kTimeJoin:
        case ExprKind::kAggregate:
          // Unreachable: the enclosing case covers the six set operators.
          return Status::Internal("unhandled set operation kind");
      }
      HRDM_ASSIGN_OR_RETURN(CursorPtr left,
                            LowerExpr(expr->left, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(CursorPtr right,
                            LowerExpr(expr->right, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(
          SchemePtr scheme,
          SetOpScheme(kind, left->scheme(), right->scheme()));
      return MakeCursor<SetOpCursor>(
          std::move(left), std::move(right), std::move(scheme),
          [kind](const Relation& r1, const Relation& r2) {
            return ApplySetOp(kind, r1, r2);
          },
          ctx);
    }
    case ExprKind::kThetaJoin: {
      HRDM_ASSIGN_OR_RETURN(CursorPtr left,
                            LowerExpr(expr->left, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(CursorPtr right,
                            LowerExpr(expr->right, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(SchemePtr scheme,
                            ThetaJoinScheme(left->scheme(), expr->attr_a,
                                            right->scheme(), expr->attr_b));
      HRDM_ASSIGN_OR_RETURN(size_t ia,
                            left->scheme()->RequireIndex(expr->attr_a));
      HRDM_ASSIGN_OR_RETURN(size_t ib,
                            right->scheme()->RequireIndex(expr->attr_b));
      JoinAssembly assembly(std::move(scheme), *left->scheme(),
                            *right->scheme());
      JoinPairFn pair = [ia, op = expr->op, ib](const Tuple& t1,
                                                const Tuple& t2) {
        return ThetaJoinPairLifespan(t1, ia, op, t2, ib);
      };
      return LowerEqualityJoin(*expr, std::move(left), std::move(right),
                               {{ia, ib}}, std::move(assembly),
                               std::move(pair), resolver, ctx, options);
    }
    case ExprKind::kNaturalJoin: {
      HRDM_ASSIGN_OR_RETURN(CursorPtr left,
                            LowerExpr(expr->left, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(CursorPtr right,
                            LowerExpr(expr->right, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(
          SchemePtr scheme,
          NaturalJoinScheme(left->scheme(), right->scheme()));
      std::vector<std::pair<size_t, size_t>> shared =
          SharedAttributes(*left->scheme(), *right->scheme());
      JoinAssembly assembly(std::move(scheme), *left->scheme(),
                            *right->scheme());
      JoinPairFn pair = [shared](const Tuple& t1,
                                 const Tuple& t2) -> Result<Lifespan> {
        return NaturalJoinPairLifespan(t1, t2, shared);
      };
      return LowerEqualityJoin(*expr, std::move(left), std::move(right),
                               std::move(shared), std::move(assembly),
                               std::move(pair), resolver, ctx, options);
    }
    case ExprKind::kAggregate: {
      HRDM_ASSIGN_OR_RETURN(CursorPtr child,
                            LowerExpr(expr->left, resolver, ctx, options));
      AggregateSpec spec{expr->agg_fn, expr->attr_a, expr->attrs};
      HRDM_ASSIGN_OR_RETURN(GroupedAggregator aggregator,
                            GroupedAggregator::Make(child->scheme(), spec));
      const CardinalityFn card = ExactCardinality(resolver);
      const size_t est = EstimateGroupCount(*expr, card);
      // The fold cost scales with the *input* cardinality, not the groups.
      const size_t est_input = EstimateCardinality(expr->left, card);
      const size_t parallelism = ChooseParallelism(
          RequestedParallelism(options), est_input, options.force_parallel);
      return MakeCursor<HashAggregateCursor>(
          std::move(child), std::move(aggregator), est, parallelism, ctx);
    }
    case ExprKind::kTimeJoin: {
      HRDM_ASSIGN_OR_RETURN(CursorPtr left,
                            LowerExpr(expr->left, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(CursorPtr right,
                            LowerExpr(expr->right, resolver, ctx, options));
      HRDM_ASSIGN_OR_RETURN(SchemePtr scheme,
                            TimeJoinScheme(left->scheme(), expr->attr_a,
                                           right->scheme()));
      HRDM_ASSIGN_OR_RETURN(size_t ia,
                            left->scheme()->RequireIndex(expr->attr_a));
      JoinAssembly assembly(std::move(scheme), *left->scheme(),
                            *right->scheme());
      const JoinChoice choice = ResolveJoinChoice(
          *expr, *left->scheme(), *right->scheme(), resolver, options);
      if (choice.strategy == JoinStrategy::kMerge) {
        return MakeCursor<MergeTimeJoinCursor>(
            std::move(left), std::move(right), ia, std::move(assembly),
            ctx);
      }
      JoinPairFn pair = [ia](const Tuple& t1, const Tuple& t2) {
        return TimeJoinPairLifespan(t1, ia, t2);
      };
      return MakeCursor<NestedLoopJoinCursor>(
          std::move(left), std::move(right), std::move(assembly),
          std::move(pair), ctx);
    }
  }
  return Status::Internal("unhandled expression kind");
}

/// A fresh per-plan context: the chosen batch size and an arena.
std::unique_ptr<PlanContext> MakePlanContext(const PlanOptions& options) {
  auto ctx = std::make_unique<PlanContext>();
  ctx->batch_size = ChooseBatchSize(options.batch_size);
  ctx->arena = std::make_shared<util::Arena>();
  return ctx;
}

}  // namespace

Result<Plan> Plan::Lower(const ExprPtr& expr, const PlanResolver& resolver,
                         const PlanOptions& options) {
  std::unique_ptr<PlanContext> ctx = MakePlanContext(options);
  HRDM_ASSIGN_OR_RETURN(CursorPtr root,
                        LowerExpr(expr, resolver, ctx.get(), options));
  return Plan(std::move(ctx), std::move(root));
}

Result<Lifespan> Plan::EvalWindow(const LsExprPtr& expr,
                                  const PlanResolver& resolver,
                                  const PlanOptions& options) {
  std::unique_ptr<PlanContext> ctx = MakePlanContext(options);
  return EvalWindowIn(expr, resolver, ctx.get(), options);
}

Result<TupleBatch*> Plan::NextBatch() {
  HRDM_ASSIGN_OR_RETURN(TupleBatch* batch, root_->NextBatch());
  if (batch) ctx_->stats.tuples_returned += batch->size();
  return batch;
}

Result<Relation> Plan::Drain() {
  HRDM_ASSIGN_OR_RETURN(Relation out, DrainCursor(root_.get()));
  ctx_->stats.tuples_returned += out.size();
  return out;
}

}  // namespace hrdm::query
