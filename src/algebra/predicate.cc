#include "algebra/predicate.h"

namespace hrdm {

std::string_view QuantifierName(Quantifier q) {
  return q == Quantifier::kExists ? "exists" : "forall";
}

Predicate Predicate::AttrConst(std::string attr, CompareOp op,
                               Value constant) {
  Predicate p;
  p.conjuncts_.push_back(Simple{std::move(attr), op, std::move(constant)});
  return p;
}

Predicate Predicate::AttrAttr(std::string attr, CompareOp op,
                              std::string attr2) {
  Predicate p;
  p.conjuncts_.push_back(Simple{std::move(attr), op, std::move(attr2)});
  return p;
}

Predicate Predicate::And(std::vector<Predicate> conjuncts) {
  Predicate p;
  for (Predicate& c : conjuncts) {
    for (Simple& s : c.conjuncts_) {
      p.conjuncts_.push_back(std::move(s));
    }
  }
  return p;
}

Result<Lifespan> Predicate::TimesWhere(const Tuple& t,
                                       ValueView view,
                                       const Lifespan* scope) const {
  if (conjuncts_.empty()) {
    // The empty conjunction is true everywhere the tuple exists.
    return scope ? t.lifespan().Intersect(*scope) : t.lifespan();
  }
  auto value_of = [&t, view, scope](size_t i) -> Result<TemporalValue> {
    HRDM_ASSIGN_OR_RETURN(
        TemporalValue v,
        view == ValueView::kStored ? Result<TemporalValue>(t.value(i))
                                   : t.ModelValue(i));
    // Clip to the scope so the comparisons attempted (and hence the
    // errors raised) match evaluation against `t|_scope`. Restrict is the
    // identity when the scope already covers the value's domain.
    if (scope && !scope->ContainsAll(v.domain())) v = v.Restrict(*scope);
    return v;
  };
  Lifespan acc;
  bool first = true;
  for (const Simple& s : conjuncts_) {
    HRDM_ASSIGN_OR_RETURN(size_t li, t.scheme()->RequireIndex(s.attr));
    HRDM_ASSIGN_OR_RETURN(TemporalValue lhs, value_of(li));
    Lifespan here;
    if (std::holds_alternative<Value>(s.rhs)) {
      HRDM_ASSIGN_OR_RETURN(here, lhs.TimesWhere(s.op, std::get<Value>(s.rhs)));
    } else {
      HRDM_ASSIGN_OR_RETURN(size_t ri,
                            t.scheme()->RequireIndex(std::get<std::string>(s.rhs)));
      HRDM_ASSIGN_OR_RETURN(TemporalValue rhs, value_of(ri));
      HRDM_ASSIGN_OR_RETURN(here, lhs.TimesWhereMatches(s.op, rhs));
    }
    if (first) {
      acc = std::move(here);
      first = false;
    } else {
      acc = acc.Intersect(here);
    }
    if (acc.empty()) break;
  }
  return acc;
}

std::vector<std::pair<std::string, Value>> Predicate::EqualityConstants()
    const {
  std::vector<std::pair<std::string, Value>> out;
  for (const Simple& s : conjuncts_) {
    if (s.op == CompareOp::kEq && std::holds_alternative<Value>(s.rhs)) {
      out.emplace_back(s.attr, std::get<Value>(s.rhs));
    }
  }
  return out;
}

std::string Predicate::ToString() const {
  std::string out;
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    if (i > 0) out += " AND ";
    const Simple& s = conjuncts_[i];
    out += s.attr;
    out.push_back(' ');
    out += CompareOpName(s.op);
    out.push_back(' ');
    if (std::holds_alternative<Value>(s.rhs)) {
      out += std::get<Value>(s.rhs).ToString();
    } else {
      out += std::get<std::string>(s.rhs);
    }
  }
  return out;
}

}  // namespace hrdm
