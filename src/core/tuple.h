#ifndef HRDM_CORE_TUPLE_H_
#define HRDM_CORE_TUPLE_H_

/// \file tuple.h
/// \brief Historical tuples: `t = <v, l>`.
///
/// Section 3 of the paper: "A tuple t on scheme R is an ordered pair,
/// t = <v, l>, where t.l, the lifespan of tuple t, is a lifespan, and t.v,
/// the value of the tuple, is a mapping such that for all attributes A ∈ R,
/// t.v(A) is a mapping in t.l ∩ ALS(A,R) -> DOM(A)."
///
/// The *value lifespan* of attribute A in tuple t is
/// `vls(t,A,R) = t.l ∩ ALS(A,R)` — the set of times over which the value is
/// defined (Figures 7–8). Tuple values are therefore heterogeneous in the
/// temporal dimension: each attribute is clipped both by the tuple's
/// lifespan and by its own attribute lifespan.
///
/// Invariants enforced by `Tuple::Builder::Build` and preserved by all
/// algebra operators:
///  * the domain of every stored value is contained in `vls(t,A,R)`;
///  * every value's range type matches `DOM(A)`;
///  * key attribute values are constant-valued (`DOM(K) ⊆ CD`) and total on
///    `vls` (so the temporal key-uniqueness condition of Section 3 is
///    well-defined at every chronon of the tuple's lifespan).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/interpolation.h"
#include "core/lifespan.h"
#include "core/schema.h"
#include "core/temporal_value.h"
#include "core/value.h"
#include "util/status.h"

namespace hrdm {

/// \brief An immutable historical tuple `<v, l>` bound to a scheme.
class Tuple {
 public:
  /// \brief Incremental construction of a valid tuple.
  class Builder {
   public:
    /// \brief Starts a tuple on `scheme` with lifespan `lifespan`.
    Builder(SchemePtr scheme, Lifespan lifespan);

    /// \brief Sets attribute `attr` to the temporal function `value`.
    /// The function is clipped to `vls(t, attr, R)` automatically.
    Builder& Set(std::string_view attr, TemporalValue value);

    /// \brief Sets attribute `attr` to the constant function over the whole
    /// `vls(t, attr, R)` — the `<lifespan, value>` pair coding of CD.
    Builder& SetConstant(std::string_view attr, Value value);

    /// \brief Sets attribute `attr` at a single chronon.
    Builder& SetAt(std::string_view attr, TimePoint t, Value value);

    /// \brief Validates invariants and produces the tuple. Errors:
    /// unknown attribute names, type mismatches, values escaping their
    /// `vls`, non-constant or partial key values, empty tuple lifespan.
    Result<Tuple> Build() &&;

   private:
    SchemePtr scheme_;
    Lifespan lifespan_;
    std::vector<TemporalValue> values_;
    std::vector<std::vector<Segment>> pending_;  // per attribute
    Status deferred_error_;
  };

  /// \brief Low-level constructor used by the algebra, which derives tuples
  /// whose invariants follow from its own definitions (e.g. Cartesian
  /// products legitimately have key values that are partial on the combined
  /// lifespan — the paper's "null values" discussion in Section 5). The
  /// caller must supply one value per scheme attribute; this is checked,
  /// the Builder's richer validation is not re-run.
  static Tuple FromParts(SchemePtr scheme, Lifespan lifespan,
                         std::vector<TemporalValue> values);

  const SchemePtr& scheme() const { return scheme_; }
  const Lifespan& lifespan() const { return lifespan_; }

  size_t arity() const { return values_.size(); }

  /// \brief The stored (representation-level) temporal function of
  /// attribute `i`.
  const TemporalValue& value(size_t i) const { return values_[i]; }

  /// \brief Stored function by attribute name; NotFound for unknown names.
  Result<TemporalValue> value(std::string_view attr) const;

  /// \brief `vls(t, A, R) = t.l ∩ ALS(A, R)` for attribute `i`.
  Lifespan Vls(size_t i) const {
    return lifespan_.Intersect(scheme_->AttributeLifespan(i));
  }

  /// \brief `vls(t, X, R)` for a set of attribute indices: the intersection
  /// of the individual value lifespans (paper's extension of vls to sets).
  Lifespan VlsOf(const std::vector<size_t>& indices) const;

  /// \brief Stored value of attribute `i` at chronon `s` — the paper's
  /// `t(A)(s)`; absent when `s` is outside the stored function's domain.
  Value ValueAt(size_t i, TimePoint s) const { return values_[i].ValueAt(s); }

  /// \brief Model-level value of attribute `i` at chronon `s`: applies the
  /// attribute's interpolation function over `vls` before evaluating, so a
  /// stepwise attribute answers queries between stored changes (Figure 9).
  Result<Value> ModelValueAt(size_t i, TimePoint s) const;

  /// \brief The full model-level function of attribute `i` on its `vls`.
  Result<TemporalValue> ModelValue(size_t i) const;

  /// \brief The model-level view of this tuple: every attribute value
  /// interpolated into a total function on its `vls` (Figure 9's
  /// representation → model mapping). Idempotent. The algebra operates on
  /// materialized tuples so that restriction (TIME-SLICE, SELECT-WHEN,
  /// joins) restricts the *model-level* function — restricting the sparse
  /// stored representation instead would drop stepwise anchors that extend
  /// into the restriction window and silently change query answers.
  Result<Tuple> Materialized() const;

  /// \brief `Materialized()` as a shared handle, memoized: the first call
  /// interpolates and caches the model-level tuple; later calls return the
  /// cached handle without re-running the representation → model mapping.
  /// Thread-safe: the cache is published with a claim/publish state machine
  /// (one CAS winner stores, everyone else reads after an acquire load) —
  /// concurrent first calls race benignly, losers keep their own
  /// equal-valued materialization instead of waiting for the winner. The
  /// cache is per-object and is deliberately not copied with the tuple:
  /// derived tuples (restrictions, projections) are new objects with their
  /// own — initially empty — memo. Storage-resident tuples are long-lived,
  /// so repeated scans interpolate each stored tuple exactly once per
  /// database version, not once per query.
  Result<std::shared_ptr<const Tuple>> MaterializedShared() const;

  /// \brief The constant key values, in key-attribute order.
  std::vector<Value> KeyValues() const;

  /// \brief True if this tuple and `other` have equal key vectors at all
  /// pairs of chronons — with constant keys, equal key value vectors
  /// (mergability condition 2 / key-uniqueness condition of Section 3).
  bool SameKeyAs(const Tuple& other) const;

  /// \brief Mergability (Section 4.1): same key value and non-contradicting
  /// values at every common chronon. Scheme merge-compatibility is checked
  /// by the caller (it is a property of relations).
  bool MergeableWith(const Tuple& other) const;

  /// \brief The merge `t1 + t2` (Section 4.1): lifespan union, pointwise
  /// function union. `result_scheme` is the merged scheme (ALS unions).
  /// Errors if not mergeable.
  Result<Tuple> Merge(const Tuple& other, SchemePtr result_scheme) const;

  /// \brief The restriction `t|_L`: lifespan becomes `t.l ∩ L`, every value
  /// clipped to its new vls. The result may have an empty lifespan; such
  /// tuples are dropped by the algebra rather than inserted.
  Tuple Restrict(const Lifespan& l, SchemePtr result_scheme) const;

  /// \brief Rebinds the tuple to a structurally compatible scheme (same
  /// attribute names/types; ALS may differ — values are re-clipped).
  Tuple Rebind(SchemePtr scheme) const;

  /// \brief Structural equality: same lifespan and same stored functions
  /// (scheme pointers may differ if structurally equal).
  bool operator==(const Tuple& other) const;

  /// \brief 64-bit structural hash (lifespan + values), memoized: tuples
  /// are immutable, and relation set-semantics (`InsertDedup`) hashes every
  /// tuple at least twice (dedup probe + structural index), so the first
  /// computation is cached. Thread-safe: the memo is a relaxed atomic and
  /// the hash is a pure function of immutable state, so racing writers
  /// store the same value.
  uint64_t Hash() const;

  std::string ToString() const;

  // The materialization memo is identity-bound, so copies and moves start
  // with an empty cache (and copying/moving never touches another thread's
  // published memo).
  Tuple(const Tuple& other)
      : scheme_(other.scheme_),
        lifespan_(other.lifespan_),
        values_(other.values_) {}
  Tuple(Tuple&& other) noexcept
      : scheme_(std::move(other.scheme_)),
        lifespan_(std::move(other.lifespan_)),
        values_(std::move(other.values_)) {}
  Tuple& operator=(const Tuple& other) {
    if (this != &other) {
      scheme_ = other.scheme_;
      lifespan_ = other.lifespan_;
      values_ = other.values_;
      ResetMemos();
    }
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      scheme_ = std::move(other.scheme_);
      lifespan_ = std::move(other.lifespan_);
      values_ = std::move(other.values_);
      ResetMemos();
    }
    return *this;
  }

 private:
  friend class Builder;
  Tuple(SchemePtr scheme, Lifespan lifespan, std::vector<TemporalValue> values)
      : scheme_(std::move(scheme)),
        lifespan_(std::move(lifespan)),
        values_(std::move(values)) {}

  // Assignment gives the object a new value, so the identity-bound caches
  // restart empty. Assignment requires exclusive access to *this (like any
  // non-const use), so plain stores suffice.
  void ResetMemos() {
    memo_state_.store(kMemoEmpty, std::memory_order_relaxed);
    materialized_memo_.reset();
    hash_memo_.store(0, std::memory_order_relaxed);
  }

  // States of the materialization memo. `materialized_memo_` itself is a
  // plain shared_ptr: it is written only by the thread whose CAS takes
  // kMemoEmpty -> kMemoClaimed, and read only after an acquire load of
  // kMemoReady observes that thread's release store — a publish pattern
  // ThreadSanitizer verifies as-is (unlike std::atomic<std::shared_ptr>,
  // whose embedded lock-bit spinlock TSan cannot model).
  enum : uint32_t { kMemoEmpty = 0, kMemoClaimed = 1, kMemoReady = 2 };

  SchemePtr scheme_;
  Lifespan lifespan_;
  std::vector<TemporalValue> values_;
  mutable std::atomic<uint32_t> memo_state_{kMemoEmpty};
  mutable std::shared_ptr<const Tuple> materialized_memo_;
  mutable std::atomic<uint64_t> hash_memo_{0};  // 0 = not yet computed
};

/// \brief Shared immutable tuple handle. Relations and cursors pass tuples
/// by pointer so that copying a relation (or flowing a tuple through a
/// pipeline) never duplicates the underlying temporal functions.
using TuplePtr = std::shared_ptr<const Tuple>;

}  // namespace hrdm

#endif  // HRDM_CORE_TUPLE_H_
