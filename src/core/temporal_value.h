#ifndef HRDM_CORE_TEMPORAL_VALUE_H_
#define HRDM_CORE_TEMPORAL_VALUE_H_

/// \file temporal_value.h
/// \brief Temporal functions: partial functions from `T` into a value
/// domain.
///
/// Section 3 of the paper: attribute values in HRDM are drawn from
/// `TD_i = { f | f : T -> D_i }` (or `TT = { g | g : T -> T }` for
/// time-valued attributes) — *partial functions* from time points into an
/// atomic domain. `CD` is the subset of constant-valued functions, required
/// for key attributes.
///
/// This class is the *representation level* (Figure 9) coding of such a
/// function: a sorted list of `<Interval, Value>` segments, each meaning
/// "over these chronons the function has this (stored) value". The *model
/// level* view — a total function on its domain — is obtained through
/// `ValueAt` (optionally via an interpolation function, see
/// interpolation.h). A constant-valued function is exactly the
/// `<lifespan, value>` pair representation the paper suggests for CD.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/lifespan.h"
#include "core/time.h"
#include "core/value.h"
#include "util/status.h"

namespace hrdm {

/// \brief One maximal run of chronons mapped to a single stored value.
struct Segment {
  Interval interval;
  Value value;

  bool operator==(const Segment&) const = default;
};

/// \brief A partial function from the time line into one value domain,
/// coded as stepwise-constant segments.
///
/// Invariants (established by all factories, preserved by all operations):
///  * segments are sorted by interval begin and pairwise disjoint;
///  * adjacent segments with equal values are merged (canonical form, so
///    function equality is representation equality);
///  * every segment's value is present and of one common DomainType.
class TemporalValue {
 public:
  /// \brief The empty (nowhere-defined) function.
  TemporalValue() = default;

  /// \brief The constant function mapping every chronon of `domain` to
  /// `value` — an element of the paper's `CD`. Error if `value` is absent.
  static Result<TemporalValue> Constant(const Lifespan& domain, Value value);

  /// \brief Builds from arbitrary segments. Error if segments overlap, hold
  /// absent values, or mix domain types.
  static Result<TemporalValue> FromSegments(std::vector<Segment> segments);

  /// \brief The single-chronon function {t -> value}.
  static Result<TemporalValue> At(TimePoint t, Value value) {
    return Constant(Lifespan::Point(t), std::move(value));
  }

  bool empty() const { return segments_.empty(); }

  const std::vector<Segment>& segments() const { return segments_; }

  /// \brief Domain type of the range values; nullopt when empty.
  std::optional<DomainType> type() const { return type_; }

  /// \brief The function's domain: the set of chronons where it is defined.
  /// (The paper's `vls` once intersected with the relevant lifespans.)
  const Lifespan& domain() const { return domain_; }

  /// \brief The stored value at chronon `t`, or absent Value if `t` is
  /// outside the domain ("undefined means the attribute is not relevant at
  /// such times, and thus does not exist").
  Value ValueAt(TimePoint t) const;

  /// \brief True if the function maps its whole domain to one value
  /// (member of `CD`). The domain may still be fragmented — a constant
  /// function over a reincarnation lifespan has several segments with one
  /// shared value. The empty function counts as constant.
  bool IsConstant() const;

  /// \brief For constant functions: the single value (absent if empty).
  Value ConstantValue() const {
    return segments_.empty() ? Value() : segments_.front().value;
  }

  /// \brief Restriction f|_L of the paper: the same function on
  /// `domain() ∩ L`.
  TemporalValue Restrict(const Lifespan& to) const;

  /// \brief Function union used by tuple merge (Section 4.1,
  /// `(t1 + t2).v(A) = t1.v(A) ∪ t2.v(A)`). Error if the two functions
  /// contradict each other anywhere on their common domain or differ in
  /// type.
  Result<TemporalValue> UnionWith(const TemporalValue& other) const;

  /// \brief True if the two functions agree wherever both are defined
  /// (mergability condition 3 of Section 4.1).
  bool ConsistentWith(const TemporalValue& other) const;

  /// \brief The set of chronons where both functions are defined and carry
  /// equal values — the pointwise function intersection's domain (used by
  /// the equijoin's `t.v(A) = t_r1.v(A) ∩ t_r2.v(B)` and by `∩ₒ`). Unlike
  /// TimesWhereMatches(kEq, ...) this never fails: exact Value equality is
  /// defined across all types.
  Lifespan AgreementWith(const TemporalValue& other) const;

  /// \brief Distinct values of the range (the function's image), in value
  /// order.
  std::vector<Value> Image() const;

  /// \brief For time-valued functions (type kTime): the image as a
  /// lifespan — "the set of times that t(A) maps to", which drives the
  /// dynamic TIME-SLICE and TIME-JOIN. Error for non-time functions.
  Result<Lifespan> TimeImage() const;

  /// \brief The set of chronons where this function's value satisfies
  /// `v θ rhs` (the pointwise predicate evaluation behind SELECT-WHEN).
  /// Comparison errors (type mismatch) propagate.
  Result<Lifespan> TimesWhere(CompareOp op, const Value& rhs) const;

  /// \brief The set of chronons where this and `other` are both defined and
  /// their values satisfy θ (used by the θ-JOIN's lifespan computation).
  Result<Lifespan> TimesWhereMatches(CompareOp op,
                                     const TemporalValue& other) const;

  bool operator==(const TemporalValue& o) const {
    return segments_ == o.segments_;
  }
  bool operator!=(const TemporalValue& o) const { return !(*this == o); }

  /// \brief 64-bit structural hash.
  uint64_t Hash() const;

  /// \brief e.g. `{[0,4]->"Codd", [7,9]->"Date"}`.
  std::string ToString() const;

 private:
  std::vector<Segment> segments_;
  Lifespan domain_;
  std::optional<DomainType> type_;

  /// Recomputes domain_/type_ from segments_ (which must be canonical).
  void Reindex();
};

}  // namespace hrdm

#endif  // HRDM_CORE_TEMPORAL_VALUE_H_
