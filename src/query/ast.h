#ifndef HRDM_QUERY_AST_H_
#define HRDM_QUERY_AST_H_

/// \file ast.h
/// \brief The multi-sorted query AST for the HRDM algebra.
///
/// Section 4.5 of the paper: "we provide for a multi-sorted language whose
/// universes are respectively relations and ... lifespans". The AST mirrors
/// this: `Expr` nodes are relation-sorted, `LsExpr` nodes lifespan-sorted.
/// `WHEN` crosses from relations to lifespans; the lifespan parameters of
/// `TIME-SLICE` and `SELECT-IF` cross back ("the result of WHEN ... can
/// serve as the 'parameter' to those relational operators").
///
/// The textual form printed by `ToString` is valid HRQL (see parser.h), so
/// `Parse(expr->ToString())` round-trips — property-tested in
/// tests/parser_test.cc.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/aggregate.h"
#include "algebra/predicate.h"
#include "core/lifespan.h"
#include "core/value.h"

namespace hrdm::query {

struct Expr;
struct LsExpr;
using ExprPtr = std::shared_ptr<const Expr>;
using LsExprPtr = std::shared_ptr<const LsExpr>;

/// \brief Relation-sorted operators.
enum class ExprKind : uint8_t {
  kRelationRef,   // named base relation
  kSelectIf,      // select_if(e, pred, quant [, window])
  kSelectWhen,    // select_when(e, pred)
  kProject,       // project(e, a1, ..., an)
  kTimeSlice,     // timeslice(e, L)
  kDynSlice,      // dynslice(e, attr)
  kUnion,         // union(e1, e2)
  kIntersect,     // intersect(e1, e2)
  kDifference,    // minus(e1, e2)
  kUnionO,        // ounion(e1, e2)
  kIntersectO,    // ointersect(e1, e2)
  kDifferenceO,   // ominus(e1, e2)
  kProduct,       // product(e1, e2)
  kThetaJoin,     // join(e1, e2, A op B)
  kNaturalJoin,   // natjoin(e1, e2)
  kTimeJoin,      // timejoin(e1, e2, attr)
  kAggregate,     // aggregate(e, fn [attr] [by g1, ..., gk])
};

/// \brief Lifespan-sorted operators.
enum class LsExprKind : uint8_t {
  kLiteral,     // {[a,b],[c],...}
  kWhen,        // when(e)
  kUnion,       // lunion(L1, L2)
  kIntersect,   // lintersect(L1, L2)
  kDifference,  // lminus(L1, L2)
};

/// \brief A relation-sorted expression node (immutable, shared).
struct Expr {
  ExprKind kind;

  // kRelationRef
  std::string relation;

  // Unary/binary operands.
  ExprPtr left;
  ExprPtr right;

  // Selections.
  std::optional<Predicate> predicate;
  Quantifier quantifier = Quantifier::kExists;
  LsExprPtr window;  // optional SELECT-IF window / TIME-SLICE parameter

  // Projection attributes / aggregation group-by attributes.
  std::vector<std::string> attrs;

  // Joins / dynamic slice / aggregated attribute.
  std::string attr_a;
  std::string attr_b;
  CompareOp op = CompareOp::kEq;

  // Aggregation (kAggregate; attr_a is the aggregated attribute, empty for
  // count, attrs are the group-by attributes).
  AggregateFn agg_fn = AggregateFn::kCount;

  /// \brief HRQL rendering.
  std::string ToString() const;
};

/// \brief A lifespan-sorted expression node.
struct LsExpr {
  LsExprKind kind;
  Lifespan literal;   // kLiteral
  ExprPtr relation;   // kWhen
  LsExprPtr left;     // set ops
  LsExprPtr right;

  std::string ToString() const;
};

// --- constructors ------------------------------------------------------------

ExprPtr Rel(std::string name);
ExprPtr SelectIfE(ExprPtr e, Predicate p, Quantifier q,
                  LsExprPtr window = nullptr);
ExprPtr SelectWhenE(ExprPtr e, Predicate p);
ExprPtr ProjectE(ExprPtr e, std::vector<std::string> attrs);
ExprPtr TimeSliceE(ExprPtr e, LsExprPtr window);
ExprPtr DynSliceE(ExprPtr e, std::string attr);
ExprPtr Binary(ExprKind kind, ExprPtr l, ExprPtr r);
ExprPtr ThetaJoinE(ExprPtr l, ExprPtr r, std::string attr_a, CompareOp op,
                   std::string attr_b);
ExprPtr TimeJoinE(ExprPtr l, ExprPtr r, std::string attr);
ExprPtr AggregateE(ExprPtr e, AggregateFn fn, std::string value_attr,
                   std::vector<std::string> group_by);

LsExprPtr LsLiteral(Lifespan l);
LsExprPtr WhenE(ExprPtr e);
LsExprPtr LsBinary(LsExprKind kind, LsExprPtr l, LsExprPtr r);

}  // namespace hrdm::query

#endif  // HRDM_QUERY_AST_H_
