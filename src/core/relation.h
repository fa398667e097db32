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
/// what `Insert` enforces, via a key map that also accelerates the
/// object-based set operations and joins.
///
/// `LS(r)`, the lifespan of a relation, is the union of its tuples'
/// lifespans; it is the value of the algebra's WHEN operator.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/lifespan.h"
#include "core/schema.h"
#include "core/tuple.h"
#include "util/hash_trie.h"
#include "util/status.h"

namespace hrdm {

/// \brief A run of shared tuple handles: one piece of a relation's tuple
/// sequence, or an index probe's candidate set, as the scan leaf reads it.
using TupleChunk = std::vector<TuplePtr>;
using TupleChunkPtr = std::shared_ptr<const TupleChunk>;

/// \brief A finite set of historical tuples over one scheme.
///
/// Relations hold their tuples as shared immutable pointers (`TuplePtr`),
/// and every root a copy needs is structurally shared, so copying a
/// `Relation` copies one handle per `kChunkSize` tuples plus the key
/// map's root node (at most 32 slots), never the tuples or the key map:
///
///  * the tuple handles live in chunks of `kChunkSize` behind
///    `shared_ptr`, every chunk full except the last. A mutation writes a
///    chunk in place only while this relation owns it alone
///    (`use_count() == 1`) and clones that one chunk otherwise;
///  * the key map (keyed schemes: key hash -> positions) or structural
///    map (keyless schemes: `Tuple::Hash` -> positions) is one
///    `util::HashTrie`, which copies only the path it writes.
///
/// So after a copy — what a commit does while a reader pins the previous
/// database version — `ReplaceAt` clones at most one chunk and one trie
/// path, and the copy keeps its contents. An empty relation allocates
/// nothing.
///
/// Tuple order carries no semantics (`EqualsAsSet` compares relations as
/// the sets they are), but it is kept exactly: insertion order, except
/// that `EraseAt(i)` moves the last tuple into position `i`, and
/// `ReplaceAt(i)` keeps the new tuple at `i`.
class Relation {
 public:
  /// Tuples per chunk. A pinned commit trades the one chunk it clones
  /// against the chunk handles its relation copy bumps; bench_storage
  /// `commit_scaling` (Release, gcc 12, 4 vCPU) puts a reader-pinned
  /// AssignAt on 100k tuples at p50 19.1 µs with 64, 15.6 µs with 256 and
  /// 24.5 µs with 1024 tuples per chunk.
  static constexpr size_t kChunkBits = 8;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;

  /// \brief Forward iterator over the tuple handles, chunk by chunk.
  class handle_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TuplePtr;
    using difference_type = ptrdiff_t;
    using pointer = const TuplePtr*;
    using reference = const TuplePtr&;

    handle_iterator() = default;
    handle_iterator(const std::shared_ptr<TupleChunk>* chunk, size_t off)
        : chunk_(chunk), off_(off) {}

    const TuplePtr& operator*() const { return (**chunk_)[off_]; }
    const TuplePtr* operator->() const { return &**this; }
    handle_iterator& operator++() {
      if (++off_ == (*chunk_)->size()) {
        ++chunk_;
        off_ = 0;
      }
      return *this;
    }
    handle_iterator operator++(int) {
      handle_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const handle_iterator& o) const {
      return chunk_ == o.chunk_ && off_ == o.off_;
    }
    bool operator!=(const handle_iterator& o) const { return !(*this == o); }

   private:
    const std::shared_ptr<TupleChunk>* chunk_ = nullptr;
    size_t off_ = 0;
  };

  /// \brief Const iterator yielding `const Tuple&` over shared storage.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Tuple;
    using difference_type = ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    const_iterator() = default;
    explicit const_iterator(handle_iterator it) : it_(it) {}

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
    handle_iterator it_;
  };

  /// \brief The tuple handles of a relation, in its order; valid while the
  /// relation is alive and unmodified.
  class HandleRange {
   public:
    HandleRange(handle_iterator begin, handle_iterator end)
        : begin_(begin), end_(end) {}
    handle_iterator begin() const { return begin_; }
    handle_iterator end() const { return end_; }
    const TuplePtr& front() const { return *begin_; }

   private:
    handle_iterator begin_;
    handle_iterator end_;
  };

  /// \brief The empty relation on `scheme`.
  explicit Relation(SchemePtr scheme) : scheme_(std::move(scheme)) {}

  Relation(const Relation&) = default;
  Relation& operator=(const Relation&) = default;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  const SchemePtr& scheme() const { return scheme_; }

  size_t size() const {
    return chunks_.empty() ? 0
                           : ((chunks_.size() - 1) << kChunkBits) +
                                 chunks_.back()->size();
  }
  bool empty() const { return chunks_.empty(); }

  const Tuple& tuple(size_t i) const { return *tuple_ptr(i); }

  /// \brief Shared handle to the tuple at `i` (zero-copy scan path).
  const TuplePtr& tuple_ptr(size_t i) const {
    return (*chunks_[i >> kChunkBits])[i & (kChunkSize - 1)];
  }

  /// \brief The underlying shared tuple handles, in relation order.
  HandleRange tuple_ptrs() const {
    return HandleRange(handles_begin(), handles_end());
  }

  /// \brief Shared handles to the tuple chunks, in relation order: what a
  /// scan holds, so it reads this relation's tuples as of now even if the
  /// relation is mutated later.
  std::vector<TupleChunkPtr> chunks() const {
    return std::vector<TupleChunkPtr>(chunks_.begin(), chunks_.end());
  }

  const_iterator begin() const { return const_iterator(handles_begin()); }
  const_iterator end() const { return const_iterator(handles_end()); }

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

  /// \brief Removes the tuple at `idx` and moves the last tuple into its
  /// place (no other tuple moves; one key map entry is rewritten).
  Status EraseAt(size_t idx);

  /// \brief Index of a tuple with key vector `key`, if any. O(log32 n).
  /// (Unique under Insert; with InsertDedup several tuples may share a
  /// key — see FindAllByKey.)
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
  /// The tuple's hash in `index_`: its key hash on keyed schemes, its
  /// structural hash on keyless ones.
  uint64_t IndexHashOf(const Tuple& t) const;
  /// Chunk `c`, cloned first unless this relation owns it alone.
  TupleChunk& OwnChunk(size_t c);
  void Append(TuplePtr t);

  handle_iterator handles_begin() const {
    return handle_iterator(chunks_.data(), 0);
  }
  handle_iterator handles_end() const {
    return handle_iterator(chunks_.data() + chunks_.size(), 0);
  }

  SchemePtr scheme_;
  /// Every chunk holds kChunkSize handles except the last, which is never
  /// empty.
  std::vector<std::shared_ptr<TupleChunk>> chunks_;
  /// IndexHashOf -> positions of the tuples with that hash. On keyed
  /// schemes it also serves FindStructural (equal tuples share a key).
  util::HashTrie<size_t> index_;
  bool materialized_ = false;
};

}  // namespace hrdm

#endif  // HRDM_CORE_RELATION_H_
