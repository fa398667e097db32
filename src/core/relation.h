#ifndef HRDM_CORE_RELATION_H_
#define HRDM_CORE_RELATION_H_

/// \file relation.h
/// \brief Historical relations: finite sets of tuples on a scheme with
/// temporal key uniqueness.
///
/// Section 3 of the paper: "A relation r on R is a finite set of tuples t
/// on scheme R such that if t1 and t2 are in r, for all s ∈ t1.l and all
/// s' ∈ t2.l, t1.v(K)(s) ≠ t2.v(K)(s')." Because key attributes are
/// constant-valued, this temporal uniqueness condition is equivalent to:
/// distinct tuples carry distinct (constant) key-value vectors — which is
/// what `Insert` enforces, via a hash index that also accelerates the
/// object-based set operations and joins.
///
/// `LS(r)`, the lifespan of a relation, is the union of its tuples'
/// lifespans; it is the value of the algebra's WHEN operator.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/lifespan.h"
#include "core/schema.h"
#include "core/tuple.h"
#include "util/status.h"

namespace hrdm {

/// \brief A finite set of historical tuples over one scheme.
///
/// Relations hold their tuples as shared immutable pointers (`TuplePtr`),
/// so copying a `Relation` is copy-on-write: the tuple vector and indexes
/// are duplicated, the tuples themselves are shared. Tuple order is
/// insertion order and carries no semantics; `EqualsAsSet` compares
/// relations as the sets they are.
class Relation {
 public:
  /// \brief Const iterator yielding `const Tuple&` over shared storage.
  class const_iterator {
   public:
    using base_iterator = std::vector<TuplePtr>::const_iterator;
    using iterator_category = std::forward_iterator_tag;
    using value_type = Tuple;
    using difference_type = ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    const_iterator() = default;
    explicit const_iterator(base_iterator it) : it_(it) {}

    const Tuple& operator*() const { return **it_; }
    const Tuple* operator->() const { return it_->get(); }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++it_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return it_ == o.it_; }
    bool operator!=(const const_iterator& o) const { return it_ != o.it_; }

   private:
    base_iterator it_;
  };

  /// \brief The empty relation on `scheme`.
  explicit Relation(SchemePtr scheme) : scheme_(std::move(scheme)) {}

  Relation(const Relation&) = default;
  Relation& operator=(const Relation&) = default;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  const SchemePtr& scheme() const { return scheme_; }

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const Tuple& tuple(size_t i) const { return *tuples_[i]; }

  /// \brief Shared handle to the tuple at `i` (zero-copy scan path).
  const TuplePtr& tuple_ptr(size_t i) const { return tuples_[i]; }

  /// \brief The underlying shared tuple handles, in insertion order.
  const std::vector<TuplePtr>& tuple_ptrs() const { return tuples_; }

  const_iterator begin() const { return const_iterator(tuples_.begin()); }
  const_iterator end() const { return const_iterator(tuples_.end()); }

  /// \brief Inserts a tuple. Errors:
  ///  * the tuple's scheme is not structurally identical to the relation's;
  ///  * empty tuple lifespan (an "object" that never exists);
  ///  * temporal key violation: an existing tuple has the same key vector
  ///    (keyed schemes only; keyless schemes reject exact duplicates).
  Status Insert(TuplePtr t);
  Status Insert(Tuple t) {
    return Insert(std::make_shared<const Tuple>(std::move(t)));
  }

  /// \brief Inserts, dropping empty-lifespan tuples silently (used by the
  /// algebra, whose restrictions legitimately produce empty tuples).
  Status InsertOrDrop(TuplePtr t);
  Status InsertOrDrop(Tuple t) {
    return InsertOrDrop(std::make_shared<const Tuple>(std::move(t)));
  }

  /// \brief Set-semantics insert used by the algebra: drops empty-lifespan
  /// tuples and structural duplicates silently, and — unlike Insert — does
  /// NOT enforce temporal key uniqueness. The paper's standard set
  /// operators legitimately produce relations violating the key condition
  /// (that is exactly the Figure 11 critique motivating the object-based
  /// operators), so derived relations are plain sets of tuples.
  Status InsertDedup(TuplePtr t);
  Status InsertDedup(Tuple t) {
    return InsertDedup(std::make_shared<const Tuple>(std::move(t)));
  }

  /// \brief Index of a structurally identical tuple, if present.
  std::optional<size_t> FindStructural(const Tuple& t) const;

  /// \brief Replaces the tuple at `idx` (storage-engine update path).
  /// Enforces the same invariants as Insert, except that the outgoing
  /// tuple's key is free for reuse.
  Status ReplaceAt(size_t idx, Tuple t) {
    return ReplaceAt(idx, std::make_shared<const Tuple>(std::move(t)));
  }
  Status ReplaceAt(size_t idx, TuplePtr t);

  /// \brief Removes the tuple at `idx`. Indices of later tuples shift down
  /// by one (O(n) reindex; updates are rare relative to scans).
  Status EraseAt(size_t idx);

  /// \brief Index of the first tuple with key vector `key`, if any.
  /// O(1) expected. (Unique under Insert; with InsertDedup several tuples
  /// may share a key — see FindAllByKey.)
  std::optional<size_t> FindByKey(const std::vector<Value>& key) const;

  /// \brief All tuple indices with key vector `key` (ascending).
  std::vector<size_t> FindAllByKey(const std::vector<Value>& key) const;

  /// \brief `LS(r)`: union of tuple lifespans (the WHEN operator, §4.5).
  Lifespan LS() const;

  /// \brief Structural set equality: same scheme structure and the same set
  /// of tuples (order-insensitive).
  bool EqualsAsSet(const Relation& other) const;

  /// \brief Whether this relation is already at the model level (every
  /// tuple's values materialized via interpolation). Algebra operators mark
  /// their outputs materialized so interpolation is applied exactly once —
  /// re-interpolating a derived relation (e.g. a Cartesian product, whose
  /// tuples are legitimately partial on their unioned lifespans) would
  /// wrongly extend values into regions the paper's semantics leave
  /// undefined.
  bool materialized() const { return materialized_; }
  void set_materialized(bool m) { materialized_ = m; }

  /// \brief Multi-line debug rendering (scheme, then one line per tuple).
  std::string ToString() const;

 private:
  uint64_t KeyHashOf(const std::vector<Value>& key) const;
  void IndexTuple(const Tuple& t, size_t idx);

  SchemePtr scheme_;
  std::vector<TuplePtr> tuples_;
  /// KeyHash -> indices of tuples with that hash (collision chain); keyed
  /// schemes only. Also serves FindStructural there.
  std::unordered_map<uint64_t, std::vector<size_t>> key_index_;
  /// Structural Tuple::Hash -> indices (for set-semantics dedup); keyless
  /// schemes only.
  std::unordered_map<uint64_t, std::vector<size_t>> struct_index_;
  bool materialized_ = false;
};

}  // namespace hrdm

#endif  // HRDM_CORE_RELATION_H_
