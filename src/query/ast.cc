#include "query/ast.h"

#include "util/format.h"

namespace hrdm::query {

namespace {

std::string_view FunctionName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kRelationRef:
      return "";
    case ExprKind::kSelectIf:
      return "select_if";
    case ExprKind::kSelectWhen:
      return "select_when";
    case ExprKind::kProject:
      return "project";
    case ExprKind::kTimeSlice:
      return "timeslice";
    case ExprKind::kDynSlice:
      return "dynslice";
    case ExprKind::kUnion:
      return "union";
    case ExprKind::kIntersect:
      return "intersect";
    case ExprKind::kDifference:
      return "minus";
    case ExprKind::kUnionO:
      return "ounion";
    case ExprKind::kIntersectO:
      return "ointersect";
    case ExprKind::kDifferenceO:
      return "ominus";
    case ExprKind::kProduct:
      return "product";
    case ExprKind::kThetaJoin:
      return "join";
    case ExprKind::kNaturalJoin:
      return "natjoin";
    case ExprKind::kTimeJoin:
      return "timejoin";
    case ExprKind::kAggregate:
      return "aggregate";
  }
  return "?";
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kRelationRef:
      return relation;
    case ExprKind::kSelectIf: {
      std::string out = "select_if(" + left->ToString() + ", " +
                        predicate->ToString() + ", " +
                        std::string(QuantifierName(quantifier));
      if (window) out += ", " + window->ToString();
      out += ")";
      return out;
    }
    case ExprKind::kSelectWhen:
      return "select_when(" + left->ToString() + ", " +
             predicate->ToString() + ")";
    case ExprKind::kProject: {
      std::string out = "project(" + left->ToString();
      for (const std::string& a : attrs) out += ", " + a;
      out += ")";
      return out;
    }
    case ExprKind::kTimeSlice:
      return "timeslice(" + left->ToString() + ", " + window->ToString() +
             ")";
    case ExprKind::kDynSlice:
      return "dynslice(" + left->ToString() + ", " + attr_a + ")";
    case ExprKind::kThetaJoin:
      return "join(" + left->ToString() + ", " + right->ToString() + ", " +
             attr_a + " " + std::string(CompareOpName(op)) + " " + attr_b +
             ")";
    case ExprKind::kTimeJoin:
      return "timejoin(" + left->ToString() + ", " + right->ToString() +
             ", " + attr_a + ")";
    case ExprKind::kAggregate: {
      std::string out = "aggregate(" + left->ToString() + ", " +
                        std::string(AggregateFnName(agg_fn));
      if (!attr_a.empty()) out += " " + attr_a;
      for (size_t i = 0; i < attrs.size(); ++i) {
        out += (i == 0 ? " by " : ", ") + attrs[i];
      }
      out += ")";
      return out;
    }
    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kDifference:
    case ExprKind::kUnionO:
    case ExprKind::kIntersectO:
    case ExprKind::kDifferenceO:
    case ExprKind::kProduct:
    case ExprKind::kNaturalJoin:
      return std::string(FunctionName(kind)) + "(" + left->ToString() + ", " +
             right->ToString() + ")";
  }
  return "?";
}

std::string LsExpr::ToString() const {
  switch (kind) {
    case LsExprKind::kLiteral:
      return literal.ToString();
    case LsExprKind::kWhen:
      return "when(" + relation->ToString() + ")";
    case LsExprKind::kUnion:
      return "lunion(" + left->ToString() + ", " + right->ToString() + ")";
    case LsExprKind::kIntersect:
      return "lintersect(" + left->ToString() + ", " + right->ToString() +
             ")";
    case LsExprKind::kDifference:
      return "lminus(" + left->ToString() + ", " + right->ToString() + ")";
  }
  return "?";
}

ExprPtr Rel(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kRelationRef;
  e->relation = std::move(name);
  return e;
}

ExprPtr SelectIfE(ExprPtr operand, Predicate p, Quantifier q,
                  LsExprPtr window) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kSelectIf;
  e->left = std::move(operand);
  e->predicate = std::move(p);
  e->quantifier = q;
  e->window = std::move(window);
  return e;
}

ExprPtr SelectWhenE(ExprPtr operand, Predicate p) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kSelectWhen;
  e->left = std::move(operand);
  e->predicate = std::move(p);
  return e;
}

ExprPtr ProjectE(ExprPtr operand, std::vector<std::string> attrs) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kProject;
  e->left = std::move(operand);
  e->attrs = std::move(attrs);
  return e;
}

ExprPtr TimeSliceE(ExprPtr operand, LsExprPtr window) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kTimeSlice;
  e->left = std::move(operand);
  e->window = std::move(window);
  return e;
}

ExprPtr DynSliceE(ExprPtr operand, std::string attr) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kDynSlice;
  e->left = std::move(operand);
  e->attr_a = std::move(attr);
  return e;
}

ExprPtr Binary(ExprKind kind, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

ExprPtr ThetaJoinE(ExprPtr l, ExprPtr r, std::string attr_a, CompareOp op,
                   std::string attr_b) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kThetaJoin;
  e->left = std::move(l);
  e->right = std::move(r);
  e->attr_a = std::move(attr_a);
  e->op = op;
  e->attr_b = std::move(attr_b);
  return e;
}

ExprPtr TimeJoinE(ExprPtr l, ExprPtr r, std::string attr) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kTimeJoin;
  e->left = std::move(l);
  e->right = std::move(r);
  e->attr_a = std::move(attr);
  return e;
}

ExprPtr AggregateE(ExprPtr operand, AggregateFn fn, std::string value_attr,
                   std::vector<std::string> group_by) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kAggregate;
  e->left = std::move(operand);
  e->agg_fn = fn;
  e->attr_a = std::move(value_attr);
  e->attrs = std::move(group_by);
  return e;
}

LsExprPtr LsLiteral(Lifespan l) {
  auto e = std::make_shared<LsExpr>();
  e->kind = LsExprKind::kLiteral;
  e->literal = std::move(l);
  return e;
}

LsExprPtr WhenE(ExprPtr rel) {
  auto e = std::make_shared<LsExpr>();
  e->kind = LsExprKind::kWhen;
  e->relation = std::move(rel);
  return e;
}

LsExprPtr LsBinary(LsExprKind kind, LsExprPtr l, LsExprPtr r) {
  auto e = std::make_shared<LsExpr>();
  e->kind = kind;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

}  // namespace hrdm::query
