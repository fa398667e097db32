#ifndef HRDM_STORAGE_INDEX_H_
#define HRDM_STORAGE_INDEX_H_

/// \file index.h
/// \brief Storage-level access-path indexes over historical relations.
///
/// Layer contract: sits beside `Relation` inside the storage engine
/// (`Database` owns one `RelationIndexes` per indexed relation and keeps it
/// in sync with every temporal DML operation); the query layer reaches the
/// indexes only through the function hooks of `query::PlanOptions`, so the
/// plan layer never depends on storage types. Indexes are *advisory
/// candidate pruners*: a probe returns a superset of the qualifying tuples
/// and the exact per-tuple kernels (SelectIfMatches, the fused restriction
/// chain, the join pair kernels) re-check every candidate, so a stale or
/// lossy index can change performance, never answers — the same contract
/// as `Catalog`'s index registrations.
///
/// Two index shapes mirror the two entry-point restrictions of the paper's
/// algebra (§4.3–4.4):
///
///  * `LifespanIndex` — an interval index over tuple lifespans, answering
///    "which tuples are alive during window L" for TIME-SLICE windows and
///    windowed SELECT-IF/SELECT-WHEN evaluation. Tuples are coded one entry
///    per maximal lifespan interval, held in a logarithmic set of immutable
///    sorted runs, each with its own implicit segment tree of interval ends
///    for O(log n + k) overlap queries per run.
///
///  * `ValueIndex` — an equality index over one attribute's values, keyed
///    by the time-invariant `JoinKeyDigest` of the value when the attribute
///    is constant over the tuple's lifespan (the paper's CD membership);
///    tuples whose value *varies* over their lifespan live in a per-chronon
///    fallback list that every probe returns (they may match any value at
///    some chronon) — the same digest-plus-fallback design as
///    `query::HashEquiJoinCursor`'s build table.
///
/// Index *data* is not persisted: the data image
/// (`Database::EncodeSnapshot`) carries only the primary data. Index
/// *registrations* are durable — WAL-logged as DDL records and carried in
/// snapshot envelopes (storage/snapshot.h) — and recovery or a snapshot
/// load re-issues the DDL to rebuild each index from the loaded relations.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/lifespan.h"
#include "core/relation.h"
#include "core/tuple.h"
#include "util/hash_trie.h"
#include "util/status.h"

namespace hrdm::storage {

/// \brief Interval index over tuple lifespans: answers overlap queries
/// "which tuples are alive at some chronon of L".
///
/// Entries are (interval, tuple) pairs — one per maximal interval of each
/// tuple's lifespan — held in a Bentley–Saxe set of immutable sorted runs
/// (the logarithmic method). Each run sorts its entries by (begin, end,
/// tuple address) and carries its own implicit segment tree of interval
/// ends, so a probe visits O(log n) runs at O(log n + k) each.
///
///  * `Add` appends a run holding the tuple's entries and merges runs of
///    the same size class, like a binary counter: each entry takes part in
///    O(log n) merges.
///  * `Remove` tombstones the tuple's exact entries, each found by binary
///    search in every run. A merge drops tombstoned entries, and a run
///    left more than half dead is rebuilt from its live entries.
///  * `Rebuild` sorts everything into one run.
///
/// Maintenance thus costs amortized O(log² n) per tuple. Runs are never
/// written once built, and a run's tombstone bitmap is copy-on-write: a
/// mutation writes one in place only while this index is its sole owner
/// (`use_count() == 1`). So copying the index — what a commit does when a
/// pinned reader still holds the previous version — copies O(log n) run
/// handles, and `Probe` is genuinely const: a published index can be
/// probed from any number of reader sessions while the writer moves on.
class LifespanIndex {
 public:
  /// \brief Adds every lifespan interval of `t`. Amortized O(log n).
  void Add(const TuplePtr& t);

  /// \brief Removes every entry of the exact tuple object `t` (pointer
  /// identity — the storage engine replaces tuples wholesale). Amortized
  /// O(log² n); a tuple that was never added is a no-op.
  void Remove(const TuplePtr& t);

  /// \brief Drops everything and re-indexes `rel` as one run, in one
  /// O(n log n) sort.
  void Rebuild(const Relation& rel);

  /// \brief All tuples whose lifespan overlaps `window`, deduplicated.
  /// The result is exact for lifespans (entries are real intervals, not
  /// extents), but callers still re-apply the algebra kernel for the
  /// enclosing operator's semantics.
  std::vector<TuplePtr> Probe(const Lifespan& window) const;

  /// \brief Number of live (interval, tuple) entries.
  size_t entry_count() const;

  /// \brief Number of runs: O(log n).
  size_t run_count() const { return runs_.size(); }

 private:
  struct Entry {
    TimePoint begin;
    TimePoint end;
    TuplePtr tuple;
  };

  /// An immutable run: entries sorted by (begin, end, tuple address) and
  /// the segment tree holding the max interval end per subtree.
  struct Run {
    explicit Run(std::vector<Entry> sorted);
    void Collect(size_t node, size_t lo, size_t hi, TimePoint qb,
                 TimePoint qe, std::vector<size_t>* out) const;

    std::vector<Entry> entries;
    std::vector<TimePoint> max_end;
  };

  /// A shared run plus this index's tombstones over it.
  struct Slot {
    std::shared_ptr<const Run> run;
    /// `(*dead)[i]` marks `run->entries[i]` removed; null while nothing
    /// is. Shared by index copies, so written only under use_count() == 1.
    std::shared_ptr<std::vector<bool>> dead;
    size_t dead_count = 0;

    bool Live(size_t i) const { return !dead || !(*dead)[i]; }
    size_t live_count() const { return run->entries.size() - dead_count; }
  };

  static Slot MakeSlot(std::vector<Entry> sorted);
  static std::vector<Entry> LiveEntries(const Slot& slot);
  /// Restores the binary-counter shape: drops empty runs and merges
  /// neighbours until size classes strictly decrease from the front.
  void Normalize();

  /// Largest (oldest) run first.
  std::vector<Slot> runs_;
};

/// \brief Equality index over one attribute: constant-valued tuples are
/// bucketed by the `JoinKeyDigest` of their value, varying-valued tuples go
/// to a fallback list every probe returns.
///
/// The buckets are one `util::HashTrie` (digest -> tuples, bucket order =
/// insertion order), so copying the index — what a commit does while a
/// reader pins the previous version — copies the trie's root node, and the
/// first maintenance call after the copy copies one trie path.
class ValueIndex {
 public:
  explicit ValueIndex(size_t attr_index) : attr_(attr_index) {}

  /// \brief Index of the attribute this index covers (into the relation
  /// scheme the index was built against).
  size_t attr_index() const { return attr_; }

  /// \brief Re-points the index at a (possibly shifted) attribute column
  /// after schema evolution; callers follow with Rebuild.
  void set_attr_index(size_t attr_index) { attr_ = attr_index; }

  void Add(const TuplePtr& t);
  void Remove(const TuplePtr& t);
  void Rebuild(const Relation& rel);

  /// \brief Candidate tuples for `attr = key`: the digest bucket of `key`
  /// plus every varying-valued tuple. A superset of the exact answer
  /// (digest collisions and varying tuples are filtered downstream by the
  /// predicate kernel); never misses a qualifying tuple.
  std::vector<TuplePtr> Probe(const Value& key) const;

  size_t entry_count() const { return constant_count_ + varying_.size(); }

 private:
  size_t attr_;
  util::HashTrie<TuplePtr> buckets_;
  std::vector<TuplePtr> varying_;
  size_t constant_count_ = 0;
};

/// \brief The full index set of one stored relation, maintained by
/// `Database` through every DML mutation (birth, death, reincarnation,
/// assignment) and rebuilt after schema evolution.
class RelationIndexes {
 public:
  /// \brief Builds (or rebuilds) the lifespan index from `rel`.
  void EnableLifespan(const Relation& rel);

  /// \brief Builds (or rebuilds) a value index on attribute `attr` (at
  /// column `attr_index` of `rel`'s scheme).
  void EnableValue(const Relation& rel, std::string attr, size_t attr_index);

  bool has_lifespan() const { return lifespan_.has_value(); }
  const LifespanIndex* lifespan() const {
    return lifespan_ ? &*lifespan_ : nullptr;
  }

  /// \brief The value index on `attr`, or null when none exists.
  const ValueIndex* value(std::string_view attr) const;

  /// \brief Names of all value-indexed attributes.
  std::vector<std::string> value_attrs() const;

  // --- incremental maintenance (called by Database) ---------------------------

  void OnInsert(const TuplePtr& t);
  void OnRemove(const TuplePtr& t);
  void OnReplace(const TuplePtr& old_tuple, const TuplePtr& new_tuple);

  /// \brief Full rebuild against `rel`'s current scheme and tuples (schema
  /// evolution rebinds every tuple, so incremental maintenance cannot
  /// apply). Errors if a value-indexed attribute vanished from the scheme.
  Status Rebuild(const Relation& rel);

 private:
  std::optional<LifespanIndex> lifespan_;
  /// attr name -> value index (ordered for deterministic iteration).
  std::vector<std::pair<std::string, ValueIndex>> values_;
};

}  // namespace hrdm::storage

#endif  // HRDM_STORAGE_INDEX_H_
