#ifndef HRDM_ALGEBRA_PREDICATE_H_
#define HRDM_ALGEBRA_PREDICATE_H_

/// \file predicate.h
/// \brief Selection criteria `A θ a` for SELECT-IF / SELECT-WHEN.
///
/// Section 4.3 of the paper: "The selection criterion, which we specify as
/// θ, is defined as a simple predicate over the attributes of the tuple ...
/// the predicate A θ a would select only those tuples whose value for
/// attribute A stood in relationship θ to the value a. (The value a could
/// represent another attribute value or a constant.)"
///
/// Conjunctions (the paper's `σ(NAME=john, SAL=30K)` example) are expressed
/// with `Predicate::And`, which intersects the satisfaction lifespans of
/// its conjuncts pointwise.
///
/// Predicates are evaluated against the tuple's *model-level* values (the
/// interpolated total functions on `vls`), so a stepwise Salary attribute
/// satisfies `Salary = 30000` between stored changes as well.

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/lifespan.h"
#include "core/tuple.h"
#include "core/value.h"
#include "util/status.h"

namespace hrdm {

/// \brief Existential or universal quantification over a set of chronons
/// (the paper's `Q(s ∈ S)` bounded quantifier of Section 4.3).
enum class Quantifier : uint8_t {
  kExists = 0,
  kForall = 1,
};

std::string_view QuantifierName(Quantifier q);

/// \brief Which view of a tuple's values a predicate evaluates against.
/// `kModel` interpolates each referenced value over its vls first (the
/// default — correct for raw stored tuples); `kStored` trusts the stored
/// segments as-is (used by the algebra after MaterializeRelation, where
/// re-interpolation would wrongly extend values of derived tuples such as
/// Cartesian products that are legitimately partial).
enum class ValueView : uint8_t {
  kModel = 0,
  kStored = 1,
};

/// \brief A simple (or conjunctive) selection criterion.
class Predicate {
 public:
  /// \brief `attr θ constant`.
  static Predicate AttrConst(std::string attr, CompareOp op, Value constant);

  /// \brief `attr θ attr2` (both attributes of the same relation).
  static Predicate AttrAttr(std::string attr, CompareOp op, std::string attr2);

  /// \brief Conjunction: holds at chronon s iff every conjunct holds at s.
  static Predicate And(std::vector<Predicate> conjuncts);

  /// \brief The set of chronons at which the tuple satisfies this
  /// predicate. Always a subset of the relevant value lifespans — a chronon
  /// where any referenced value is undefined does not satisfy the
  /// predicate (undefined "does not exist", Section 3).
  ///
  /// When `scope` is given, evaluation is restricted to it: every
  /// referenced value is clipped to `scope` before comparison and the
  /// result is a subset of `scope`. This is exactly `TimesWhere(t|_scope)`
  /// — same chronons, same comparisons attempted, same errors — without
  /// building the restricted tuple, which is what lets a chain of
  /// restriction operators evaluate its criteria against the accumulated
  /// effective lifespan and restrict the tuple once at the end.
  ///
  /// Errors on unknown attribute names or type-incompatible comparisons.
  Result<Lifespan> TimesWhere(const Tuple& t,
                              ValueView view = ValueView::kModel,
                              const Lifespan* scope = nullptr) const;

  /// \brief The sargable `attr = constant` conjuncts, in predicate order.
  /// Every returned binding must hold (at some chronon) for the whole
  /// predicate to hold there — the access-path chooser (query/optimizer.h)
  /// uses these to probe a value index instead of scanning.
  std::vector<std::pair<std::string, Value>> EqualityConstants() const;

  /// \brief e.g. `Salary >= 30000 AND Dept = "tools"`.
  std::string ToString() const;

 private:
  struct Simple {
    std::string attr;
    CompareOp op;
    std::variant<Value, std::string> rhs;  // constant or attribute name
  };

  Predicate() = default;

  /// Leaf predicates have exactly one entry; And-predicates have several.
  std::vector<Simple> conjuncts_;
};

}  // namespace hrdm

#endif  // HRDM_ALGEBRA_PREDICATE_H_
