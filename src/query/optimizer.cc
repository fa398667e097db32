#include "query/optimizer.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "algebra/join.h"

namespace hrdm::query {

namespace {

/// Estimate used for base relations the cardinality source does not know.
constexpr size_t kDefaultCardinality = 64;

/// Saturating product (cardinality estimates must not overflow).
size_t SatMul(size_t a, size_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > static_cast<size_t>(-1) / b) return static_cast<size_t>(-1);
  return a * b;
}

/// True if values of the two domains can ever satisfy `=` under Compare:
/// same type, or both numeric (kInt/kDouble inter-compare). This is the
/// hash-join eligibility test — incomparable domains keep the nested-loop
/// strategy so the per-pair type error surfaces exactly as in the
/// whole-relation operator.
bool EqComparable(DomainType a, DomainType b) {
  auto numeric = [](DomainType t) {
    return t == DomainType::kInt || t == DomainType::kDouble;
  };
  return a == b || (numeric(a) && numeric(b));
}

}  // namespace

std::string_view JoinStrategyName(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kNestedLoop:
      return "nested_loop";
    case JoinStrategy::kHash:
      return "hash";
    case JoinStrategy::kMerge:
      return "merge";
  }
  return "unknown";
}

size_t EstimateCardinality(const ExprPtr& expr, const CardinalityFn& card) {
  if (!expr) return 0;
  switch (expr->kind) {
    case ExprKind::kRelationRef: {
      if (card) {
        if (auto n = card(expr->relation)) return *n;
      }
      return kDefaultCardinality;
    }
    case ExprKind::kSelectIf:
    case ExprKind::kSelectWhen:
      // Filters keep roughly half their input (classic rule of thumb).
      return EstimateCardinality(expr->left, card) / 2;
    case ExprKind::kProject:
    case ExprKind::kTimeSlice:
    case ExprKind::kDynSlice:
      return EstimateCardinality(expr->left, card);
    case ExprKind::kUnion:
    case ExprKind::kUnionO:
      return EstimateCardinality(expr->left, card) +
             EstimateCardinality(expr->right, card);
    case ExprKind::kIntersect:
    case ExprKind::kIntersectO:
      return std::min(EstimateCardinality(expr->left, card),
                      EstimateCardinality(expr->right, card));
    case ExprKind::kDifference:
    case ExprKind::kDifferenceO:
      return EstimateCardinality(expr->left, card);
    case ExprKind::kProduct:
      return SatMul(EstimateCardinality(expr->left, card),
                    EstimateCardinality(expr->right, card));
    case ExprKind::kThetaJoin: {
      const size_t l = EstimateCardinality(expr->left, card);
      const size_t r = EstimateCardinality(expr->right, card);
      // Equality is selective (≈ one partner per tuple); inequalities pass
      // about half the pair space.
      return expr->op == CompareOp::kEq ? std::max(l, r) : SatMul(l, r) / 2;
    }
    case ExprKind::kNaturalJoin:
      return std::max(EstimateCardinality(expr->left, card),
                      EstimateCardinality(expr->right, card));
    case ExprKind::kTimeJoin:
      return std::max(EstimateCardinality(expr->left, card),
                      EstimateCardinality(expr->right, card));
    case ExprKind::kAggregate:
      // One tuple per group (see EstimateGroupCount).
      return EstimateGroupCount(*expr, card);
  }
  return kDefaultCardinality;
}

size_t EstimateGroupCount(const Expr& agg, const CardinalityFn& card) {
  const size_t child = EstimateCardinality(agg.left, card);
  if (child == 0) return 0;
  // Ungrouped: the whole relation collapses into a single historical tuple.
  if (agg.attrs.empty()) return 1;
  // Grouped: quarter-of-input rule of thumb, capped by the input estimate.
  return std::max<size_t>(1, child / 4);
}

JoinChoice ChooseJoinStrategy(const Expr& join, const RelationScheme& left,
                              const RelationScheme& right,
                              const CardinalityFn& card) {
  JoinChoice choice;
  choice.est_left = EstimateCardinality(join.left, card);
  choice.est_right = EstimateCardinality(join.right, card);
  switch (join.kind) {
    case ExprKind::kThetaJoin: {
      // Equi-pattern detection: θ is "=" and the two domains can actually
      // compare equal (otherwise nested loop keeps error behavior).
      if (join.op != CompareOp::kEq) break;
      auto ia = left.IndexOf(join.attr_a);
      auto ib = right.IndexOf(join.attr_b);
      if (!ia || !ib) break;  // lowering rejects this before execution
      if (!EqComparable(left.attribute(*ia).type,
                        right.attribute(*ib).type)) {
        break;
      }
      choice.strategy = JoinStrategy::kHash;
      choice.build_left = choice.est_left < choice.est_right;
      break;
    }
    case ExprKind::kNaturalJoin: {
      // Equality on every shared attribute; with none, the join degenerates
      // to a product over the common lifespan — nested loop.
      if (SharedAttributes(left, right).empty()) break;
      choice.strategy = JoinStrategy::kHash;
      choice.build_left = choice.est_left < choice.est_right;
      break;
    }
    case ExprKind::kTimeJoin:
      choice.strategy = JoinStrategy::kMerge;
      break;
    // Non-join nodes (and the pure product) stay on the nested-loop
    // default the JoinChoice initializer carries.
    case ExprKind::kRelationRef:
    case ExprKind::kSelectIf:
    case ExprKind::kSelectWhen:
    case ExprKind::kProject:
    case ExprKind::kTimeSlice:
    case ExprKind::kDynSlice:
    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kDifference:
    case ExprKind::kUnionO:
    case ExprKind::kIntersectO:
    case ExprKind::kDifferenceO:
    case ExprKind::kProduct:
    case ExprKind::kAggregate:
      break;
  }
  return choice;
}

size_t DefaultParallelism() {
  static const size_t cached = [] {
    if (const char* raw = std::getenv("HRDM_THREADS")) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(raw, &end, 10);
      if (end != nullptr && *end == '\0' && v > 0) {
        return static_cast<size_t>(v);
      }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<size_t>(hw > 0 ? hw : 1);
  }();
  return cached;
}

size_t ChooseParallelism(size_t requested, size_t est_tuples, bool force) {
  if (requested <= 1) return 1;
  if (force) return requested;
  if (est_tuples < kParallelMinTuples) return 1;
  // No more workers than morsels: extra ones would only idle.
  const size_t morsels = (est_tuples + kMorselSize - 1) / kMorselSize;
  return std::min(requested, morsels);
}

size_t DefaultBatchSize() {
  // Deliberately not cached: the batch-size differential axis re-reads the
  // override between plans (tests/differential_util.h).
  if (const char* raw = std::getenv("HRDM_BATCH_SIZE")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(raw, &end, 10);
    if (end != nullptr && *end == '\0' && v > 0) {
      return static_cast<size_t>(v);
    }
  }
  return kDefaultBatchSize;
}

size_t ChooseBatchSize(size_t requested) {
  const size_t wanted = requested == 0 ? DefaultBatchSize() : requested;
  return std::max<size_t>(1, std::min(wanted, kMorselSize));
}

AccessPathChoice ChooseAccessPath(const Expr& op, const IndexCatalogFn& indexes,
                                  const CardinalityFn& card) {
  AccessPathChoice choice;
  if (!op.left || op.left->kind != ExprKind::kRelationRef || !indexes) {
    return choice;
  }
  const std::optional<IndexInfo> info = indexes(op.left->relation);
  if (!info) return choice;
  choice.est_base = EstimateCardinality(op.left, card);

  auto find_value_probe = [&]() {
    if (!op.predicate) return;
    for (auto& [attr, key] : op.predicate->EqualityConstants()) {
      if (std::find(info->value_attrs.begin(), info->value_attrs.end(),
                    attr) != info->value_attrs.end()) {
        choice.value_eligible = true;
        choice.attr = attr;
        choice.key = key;
        return;
      }
    }
  };

  switch (op.kind) {
    case ExprKind::kSelectIf:
      // Existential only: with forall, a tuple whose quantification domain
      // is empty qualifies vacuously, so no candidate pruning is sound.
      if (op.quantifier != Quantifier::kExists) return choice;
      find_value_probe();
      // A windowed existential needs the predicate to hold at a window
      // chronon, which requires the tuple alive there.
      choice.lifespan_eligible = op.window != nullptr && info->lifespan;
      break;
    case ExprKind::kSelectWhen:
      // SELECT-WHEN drops tuples that never satisfy the criterion, so the
      // same equality-superset argument applies.
      find_value_probe();
      break;
    case ExprKind::kTimeSlice:
      choice.lifespan_eligible = info->lifespan;
      break;
    // Every other node shape has no index-eligible restriction.
    case ExprKind::kRelationRef:
    case ExprKind::kProject:
    case ExprKind::kDynSlice:
    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kDifference:
    case ExprKind::kUnionO:
    case ExprKind::kIntersectO:
    case ExprKind::kDifferenceO:
    case ExprKind::kProduct:
    case ExprKind::kThetaJoin:
    case ExprKind::kNaturalJoin:
    case ExprKind::kTimeJoin:
    case ExprKind::kAggregate:
      return choice;
  }

  if (choice.est_base <= kIndexScanMinTuples) return choice;
  // Equality probes are usually the more selective of the two.
  if (choice.value_eligible) {
    choice.path = AccessPath::kValueIndex;
  } else if (choice.lifespan_eligible) {
    choice.path = AccessPath::kLifespanIndex;
  }
  return choice;
}

}  // namespace hrdm::query
