#ifndef HRDM_STORAGE_DATABASE_H_
#define HRDM_STORAGE_DATABASE_H_

/// \file database.h
/// \brief The HRDM database engine: named historical relations with
/// temporal DML, schema evolution, integrity checking and persistence.
///
/// This is the Figure 1 instance hierarchy made operational: a database is
/// a set of relations, each a set of tuples, each of which carries its own
/// lifespan. The engine supports the paper's motivating life-cycle events:
///
///  * **birth** — `Insert` records the first information about an object;
///  * **death** — `EndLifespan` stops modelling it from a chronon on;
///  * **reincarnation** — `Reincarnate` extends a lifespan with new
///    intervals ("employees can be hired, fired, and subsequently
///    re-hired");
///  * temporal updates — `Assign` writes an attribute value over a region
///    of time;
///  * schema evolution — `AddAttribute` / `CloseAttribute` /
///    `ReopenAttribute` (Figure 6), with stored tuples rebound to the
///    evolved scheme;
///  * temporal referential integrity — registered foreign keys are checked
///    over the temporal dimension (Section 1's student/course example).
///
/// Versioning: the whole state — catalog, relation roots, indexes, foreign
/// keys — lives in one immutable `DatabaseVersion`
/// (storage/database_version.h) published through a `util::VersionCell`.
/// Every committed mutation produces the next version; `CurrentVersion()`
/// pins the latest one in O(1) and the pinned snapshot stays readable,
/// lock-free and bit-stable, for as long as the handle lives — the
/// foundation of the multi-session snapshot-isolation layer
/// (src/session/session.h). With no pin outstanding, mutations run in
/// place (the single-session fast path); with pins outstanding they
/// copy-on-write only the relation roots they touch.
///
/// Thread contract: const accessors are internally synchronized (each
/// reads one consistent version). Mutators may be called from several
/// threads (the cell serializes them), but references previously returned
/// by `catalog()` / `Get()` are only stable on the mutating thread until
/// its next mutation — concurrent readers must hold a `CurrentVersion()`
/// pin (or a Session) instead of raw references.
///
/// Access paths: `CreateLifespanIndex`/`CreateValueIndex` build storage
/// indexes (storage/index.h) that the engine keeps in sync through every
/// DML mutation above (and rebuilds wholesale after schema evolution, which
/// rebinds every tuple). Registrations live in the catalog; the query
/// optimizer reaches both through the hooks `query::VersionPlanOptions`
/// builds over a pinned `CurrentVersion()`, and reads relation sizes from
/// the stored relations themselves.
///
/// Persistence: `EncodeSnapshot`/`DecodeSnapshot` convert the data image
/// (the physical level of Figure 9, via storage/serializer.h) to and from
/// a buffer. The image carries data only. Files go through one of two
/// paths, both of which keep index registrations and rebuild index data
/// on load:
///  * `WriteSnapshotFile`/`ReadSnapshotFile` (storage/snapshot.h) — one
///    CRC-checked envelope, for a whole-database image;
///  * `StorageEngine` (storage/storage_engine.h) — WAL + checkpoints +
///    recovery, for crash-safe durability of every mutation.

#include <memory>
#include <string>
#include <vector>

#include "storage/catalog.h"
#include "storage/database_version.h"
#include "util/status.h"
#include "util/version_cell.h"

namespace hrdm::storage {

/// \brief An in-memory HRDM database with an atomically-published version
/// chain.
class Database {
 public:
  Database();

  // Movable, not copyable (relations can be large).
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- versioned reads --------------------------------------------------------

  /// \brief Pins the current version: O(1), and the snapshot stays
  /// immutable and lock-free to read for the pin's whole lifetime.
  DatabaseVersionPtr CurrentVersion() const { return versions_->Pin(); }

  // --- schema ---------------------------------------------------------------

  /// \brief Creates an empty relation on a new keyed scheme.
  Status CreateRelation(std::string name,
                        std::vector<AttributeDef> attributes,
                        std::vector<std::string> key);

  /// \brief Creates an empty relation on an existing scheme object.
  Status CreateRelation(SchemePtr scheme);

  Status DropRelation(std::string_view name);

  /// \brief The current catalog. The reference is stable on the calling
  /// thread until that thread's next mutation; cross-thread readers pin a
  /// version instead.
  const Catalog& catalog() const { return versions_->Peek().catalog; }

  std::vector<std::string> RelationNames() const;

  /// \brief Read access to a stored relation (same stability contract as
  /// `catalog()`).
  Result<const Relation*> Get(std::string_view name) const {
    return versions_->Peek().Get(name);
  }

  // --- schema evolution (Figure 6) -------------------------------------------

  Status AddAttribute(std::string_view relation, AttributeDef def);
  Status CloseAttribute(std::string_view relation, std::string_view attr,
                        TimePoint at);
  Status ReopenAttribute(std::string_view relation, std::string_view attr,
                         const Lifespan& span);

  // --- DML --------------------------------------------------------------------

  /// \brief Inserts a fully-built tuple (use Tuple::Builder against the
  /// relation's current scheme).
  Status Insert(std::string_view relation, Tuple t);

  /// \brief Writes `value` for `attr` of the tuple with key `key` over the
  /// chronons `span` (which must lie within the tuple's vls for that
  /// attribute). Overwrites any previously stored values there.
  Status Assign(std::string_view relation, const std::vector<Value>& key,
                std::string_view attr, const Lifespan& span,
                const Value& value);

  /// \brief Point variant of Assign.
  Status AssignAt(std::string_view relation, const std::vector<Value>& key,
                  std::string_view attr, TimePoint t, const Value& value);

  /// \brief Ends the object's lifespan at chronon `at` (exclusive): the new
  /// lifespan is `l ∩ (-inf, at-1]`. If nothing remains the tuple is
  /// removed entirely.
  Status EndLifespan(std::string_view relation, const std::vector<Value>& key,
                     TimePoint at);

  /// \brief Extends the object's lifespan by `span` (reincarnation). Key
  /// values are extended (constant) over the new chronons.
  Status Reincarnate(std::string_view relation,
                     const std::vector<Value>& key, const Lifespan& span);

  // --- access-path indexes (storage/index.h) ---------------------------------

  /// \brief Builds a lifespan interval index over `relation`'s tuple
  /// lifespans and registers it in the catalog. Idempotent (re-issuing
  /// rebuilds). O(n log n).
  Status CreateLifespanIndex(std::string_view relation);

  /// \brief Builds a value equality index on `relation`.`attr` and
  /// registers it in the catalog. Idempotent. Errors on unknown attributes.
  Status CreateValueIndex(std::string_view relation, std::string_view attr);

  /// \brief The index set of `relation`, kept in sync with every DML
  /// mutation; null when the relation has no indexes (or does not exist).
  /// Same stability contract as `catalog()`.
  const RelationIndexes* indexes(std::string_view relation) const {
    return versions_->Peek().IndexesOf(relation);
  }

  // --- integrity ---------------------------------------------------------------

  /// \brief Declares a temporal foreign key; validated by CheckIntegrity.
  Status RegisterForeignKey(std::string child,
                            std::vector<std::string> attrs,
                            std::string parent);

  /// \brief Runs all integrity checks: per-relation well-formedness plus
  /// every registered temporal foreign key. Returns the full violation
  /// list (empty == healthy).
  Result<std::vector<Violation>> CheckIntegrity() const {
    return CurrentVersion()->CheckIntegrity();
  }

  // --- persistence ----------------------------------------------------------------

  /// \brief Serializes the data image (relations and foreign keys) to a
  /// buffer; storage/snapshot.h wraps it in the on-disk envelope.
  std::string EncodeSnapshot() const {
    return CurrentVersion()->EncodeSnapshot();
  }

  /// \brief Decodes a data image written by EncodeSnapshot.
  static Result<Database> DecodeSnapshot(std::string_view data);

  /// \brief Canonical human-readable rendering of the whole database (see
  /// DatabaseVersion::ToString — the recovery- and isolation-equality
  /// oracle).
  std::string ToString() const { return CurrentVersion()->ToString(); }

 private:
  /// Runs `fn(DatabaseVersion&)` through the version cell (in place when
  /// unpinned, copy-on-write otherwise) and bumps the version id iff it
  /// succeeds.
  template <typename Fn>
  Status Mutate(Fn&& fn);

  /// The version chain head. Heap-allocated so the cell's address (which
  /// the storage engine aliases) survives Database moves.
  std::unique_ptr<util::VersionCell<DatabaseVersion>> versions_;
};

}  // namespace hrdm::storage

#endif  // HRDM_STORAGE_DATABASE_H_
