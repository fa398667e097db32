#include "query/executor.h"

#include "algebra/aggregate.h"
#include "algebra/join.h"
#include "algebra/project.h"
#include "algebra/select.h"
#include "algebra/setops.h"
#include "algebra/timeslice.h"
#include "algebra/when.h"
#include "query/parser.h"
#include "query/plan.h"

namespace hrdm::query {

PlanResolver VersionResolver(const storage::DatabaseVersion& version) {
  return [&version](std::string_view name) { return version.Get(name); };
}

PlanOptions VersionPlanOptions(const storage::DatabaseVersion& version) {
  // Every hook re-resolves through the version per call, so every answer
  // comes from the immutable snapshot.
  PlanOptions options;
  options.index_catalog =
      [&version](std::string_view name) -> std::optional<IndexInfo> {
    auto spec = version.catalog.Indexes(name);
    if (!spec) return std::nullopt;
    IndexInfo info;
    info.lifespan = spec->lifespan;
    info.value_attrs = std::move(spec->value_attrs);
    return info;
  };
  options.lifespan_probe =
      [&version](std::string_view relation, const Lifespan& window)
      -> std::optional<std::vector<TuplePtr>> {
    const storage::RelationIndexes* ix = version.IndexesOf(relation);
    if (!ix || !ix->has_lifespan()) return std::nullopt;
    return ix->lifespan()->Probe(window);
  };
  options.value_probe =
      [&version](std::string_view relation, std::string_view attr,
                 const Value& key) -> std::optional<std::vector<TuplePtr>> {
    const storage::RelationIndexes* ix = version.IndexesOf(relation);
    if (!ix) return std::nullopt;
    const storage::ValueIndex* vi = ix->value(attr);
    if (!vi) return std::nullopt;
    return vi->Probe(key);
  };
  return options;
}

Result<Relation> Eval(const ExprPtr& expr,
                      const storage::DatabaseVersion& version) {
  if (!expr) return Status::InvalidArgument("null expression");
  if (expr->kind == ExprKind::kRelationRef) {
    // A bare reference is the stored relation itself, unmaterialized —
    // structural sharing makes this copy one pointer bump per tuple chunk
    // plus the key map's root node, not a deep copy of any tuple.
    HRDM_ASSIGN_OR_RETURN(const Relation* rel, version.Get(expr->relation));
    return *rel;
  }
  const PlanResolver resolver = VersionResolver(version);
  const PlanOptions options = VersionPlanOptions(version);
  HRDM_ASSIGN_OR_RETURN(Plan plan, Plan::Lower(expr, resolver, options));
  return plan.Drain();
}

namespace {

/// The original recursive interpreter. Every child is evaluated to a whole
/// Relation; `stats` counts each child relation while it is live.
Result<Relation> EvalMat(const ExprPtr& expr, const PlanResolver& resolver,
                         EvalStats* stats);

/// Counts an operator's output relation while its children are still live
/// (they genuinely coexist inside the operator), then releases the
/// children.
Result<Relation> Finish(Result<Relation> out, size_t children_tuples,
                        EvalStats* stats) {
  if (stats) {
    if (out.ok()) stats->OnRelation(out->size());
    stats->OnRelease(children_tuples);
  }
  return out;
}

Result<Lifespan> EvalLifespanMat(const LsExprPtr& expr,
                                 const PlanResolver& resolver,
                                 EvalStats* stats) {
  if (!expr) return Status::InvalidArgument("null lifespan expression");
  switch (expr->kind) {
    case LsExprKind::kLiteral:
      return expr->literal;
    case LsExprKind::kWhen: {
      HRDM_ASSIGN_OR_RETURN(Relation rel,
                            EvalMat(expr->relation, resolver, stats));
      Lifespan ls = When(rel);
      if (stats) stats->OnRelease(rel.size());
      return ls;
    }
    case LsExprKind::kUnion:
    case LsExprKind::kIntersect:
    case LsExprKind::kDifference: {
      HRDM_ASSIGN_OR_RETURN(Lifespan l,
                            EvalLifespanMat(expr->left, resolver, stats));
      HRDM_ASSIGN_OR_RETURN(Lifespan r,
                            EvalLifespanMat(expr->right, resolver, stats));
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

Result<Relation> EvalMat(const ExprPtr& expr, const PlanResolver& resolver,
                         EvalStats* stats) {
  if (!expr) return Status::InvalidArgument("null expression");
  Result<Relation> result = [&]() -> Result<Relation> {
    switch (expr->kind) {
      case ExprKind::kRelationRef: {
        HRDM_ASSIGN_OR_RETURN(const Relation* rel, resolver(expr->relation));
        return Finish(*rel, 0, stats);
      }
      case ExprKind::kSelectIf: {
        HRDM_ASSIGN_OR_RETURN(Relation input,
                              EvalMat(expr->left, resolver, stats));
        Result<Relation> out = Status::Internal("unset");
        if (expr->window) {
          HRDM_ASSIGN_OR_RETURN(
              Lifespan window, EvalLifespanMat(expr->window, resolver, stats));
          out = SelectIf(input, *expr->predicate, expr->quantifier, window);
        } else {
          out = SelectIf(input, *expr->predicate, expr->quantifier);
        }
        return Finish(std::move(out), input.size(), stats);
      }
      case ExprKind::kSelectWhen: {
        HRDM_ASSIGN_OR_RETURN(Relation input,
                              EvalMat(expr->left, resolver, stats));
        Result<Relation> out = SelectWhen(input, *expr->predicate);
        return Finish(std::move(out), input.size(), stats);
      }
      case ExprKind::kProject: {
        HRDM_ASSIGN_OR_RETURN(Relation input,
                              EvalMat(expr->left, resolver, stats));
        Result<Relation> out = Project(input, expr->attrs);
        return Finish(std::move(out), input.size(), stats);
      }
      case ExprKind::kTimeSlice: {
        HRDM_ASSIGN_OR_RETURN(Relation input,
                              EvalMat(expr->left, resolver, stats));
        HRDM_ASSIGN_OR_RETURN(
            Lifespan window, EvalLifespanMat(expr->window, resolver, stats));
        Result<Relation> out = TimeSlice(input, window);
        return Finish(std::move(out), input.size(), stats);
      }
      case ExprKind::kDynSlice: {
        HRDM_ASSIGN_OR_RETURN(Relation input,
                              EvalMat(expr->left, resolver, stats));
        Result<Relation> out = TimeSliceDynamic(input, expr->attr_a);
        return Finish(std::move(out), input.size(), stats);
      }
      case ExprKind::kUnion:
      case ExprKind::kIntersect:
      case ExprKind::kDifference:
      case ExprKind::kUnionO:
      case ExprKind::kIntersectO:
      case ExprKind::kDifferenceO:
      case ExprKind::kProduct: {
        HRDM_ASSIGN_OR_RETURN(Relation l, EvalMat(expr->left, resolver, stats));
        HRDM_ASSIGN_OR_RETURN(Relation r,
                              EvalMat(expr->right, resolver, stats));
        Result<Relation> out = [&]() -> Result<Relation> {
          switch (expr->kind) {
            case ExprKind::kUnion:
              return Union(l, r);
            case ExprKind::kIntersect:
              return Intersect(l, r);
            case ExprKind::kDifference:
              return Difference(l, r);
            case ExprKind::kUnionO:
              return UnionO(l, r);
            case ExprKind::kIntersectO:
              return IntersectO(l, r);
            case ExprKind::kDifferenceO:
              return DifferenceO(l, r);
            case ExprKind::kProduct:
              return CartesianProduct(l, r);
            case ExprKind::kRelationRef:
            case ExprKind::kSelectIf:
            case ExprKind::kSelectWhen:
            case ExprKind::kProject:
            case ExprKind::kTimeSlice:
            case ExprKind::kDynSlice:
            case ExprKind::kThetaJoin:
            case ExprKind::kNaturalJoin:
            case ExprKind::kTimeJoin:
            case ExprKind::kAggregate:
              break;  // unreachable: the enclosing case covers set ops and ×
          }
          return Status::Internal("unhandled set operation kind");
        }();
        return Finish(std::move(out), l.size() + r.size(), stats);
      }
      case ExprKind::kThetaJoin: {
        HRDM_ASSIGN_OR_RETURN(Relation l, EvalMat(expr->left, resolver, stats));
        HRDM_ASSIGN_OR_RETURN(Relation r,
                              EvalMat(expr->right, resolver, stats));
        Result<Relation> out =
            ThetaJoin(l, expr->attr_a, expr->op, r, expr->attr_b);
        return Finish(std::move(out), l.size() + r.size(), stats);
      }
      case ExprKind::kNaturalJoin: {
        HRDM_ASSIGN_OR_RETURN(Relation l, EvalMat(expr->left, resolver, stats));
        HRDM_ASSIGN_OR_RETURN(Relation r,
                              EvalMat(expr->right, resolver, stats));
        Result<Relation> out = NaturalJoin(l, r);
        return Finish(std::move(out), l.size() + r.size(), stats);
      }
      case ExprKind::kTimeJoin: {
        HRDM_ASSIGN_OR_RETURN(Relation l, EvalMat(expr->left, resolver, stats));
        HRDM_ASSIGN_OR_RETURN(Relation r,
                              EvalMat(expr->right, resolver, stats));
        Result<Relation> out = TimeJoin(l, expr->attr_a, r);
        return Finish(std::move(out), l.size() + r.size(), stats);
      }
      case ExprKind::kAggregate: {
        HRDM_ASSIGN_OR_RETURN(Relation input,
                              EvalMat(expr->left, resolver, stats));
        AggregateSpec spec{expr->agg_fn, expr->attr_a, expr->attrs};
        Result<Relation> out = Aggregate(input, spec);
        return Finish(std::move(out), input.size(), stats);
      }
    }
    return Status::Internal("unhandled expression kind");
  }();
  return result;
}

}  // namespace

Result<Relation> EvalMaterializing(const ExprPtr& expr,
                                   const PlanResolver& resolver,
                                   EvalStats* stats) {
  Result<Relation> result = EvalMat(expr, resolver, stats);
  if (result.ok() && stats) {
    // The root output is the answer, not an intermediate.
    stats->intermediate_tuples -= result->size() < stats->intermediate_tuples
                                      ? result->size()
                                      : stats->intermediate_tuples;
    stats->OnRelease(result->size());
  }
  return result;
}

Result<Lifespan> EvalLifespan(const LsExprPtr& expr,
                              const storage::DatabaseVersion& version) {
  return Plan::EvalWindow(expr, VersionResolver(version),
                          VersionPlanOptions(version));
}

Result<Relation> Run(std::string_view hrql,
                     const storage::DatabaseVersion& version) {
  HRDM_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr(hrql));
  return Eval(expr, version);
}

}  // namespace hrdm::query
