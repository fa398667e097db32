#ifndef HRDM_STORAGE_DATABASE_VERSION_H_
#define HRDM_STORAGE_DATABASE_VERSION_H_

/// \file database_version.h
/// \brief One immutable version of the whole database: the unit of
/// multi-session snapshot isolation.
///
/// A `DatabaseVersion` is the root object a reader session pins: the
/// catalog, the relation roots, the access-path indexes and the foreign-key
/// registrations, frozen at one mutation boundary and tagged with a
/// monotonically increasing `id`. `Database` (storage/database.h) owns the
/// *current* version inside a `util::VersionCell` and publishes a new one
/// after every committed mutation; sessions (src/session/session.h) hold a
/// `DatabaseVersionPtr` and read it lock-free.
///
/// Copying a version is shallow — the maps hold `shared_ptr` roots, so a
/// copy is O(#relations) pointer bumps and the tuples themselves are never
/// duplicated. Mutations clone only the specific `Relation` /
/// `RelationIndexes` object they touch, and only when an older version
/// still shares it (`use_count() > 1`); a version that has been published
/// while a reader holds a pin is therefore never written again. That
/// clone is itself shallow: a `Relation` is tuple chunks plus a key-map
/// `util::HashTrie`, a `RelationIndexes` is lifespan-index runs plus
/// value-index tries, all shared the same way, so the first commit after
/// a pin copies the chunk handles (one per `Relation::kChunkSize` tuples),
/// one chunk and O(log n) trie nodes and runs — not the relation.
///
/// The const read surface here mirrors `Database`'s: `Get`, `IndexesOf`,
/// `CheckIntegrity`, `EncodeSnapshot` and `ToString` all answer from this
/// version alone, which is what makes `ToString()` usable as the
/// isolation oracle — a session's rendering must be byte-identical for the
/// session's whole lifetime, no matter what writers commit meanwhile
/// (tests/session_isolation_test.cc, tests/concurrency_fuzz_test.cc).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "constraints/constraints.h"
#include "core/relation.h"
#include "storage/catalog.h"
#include "storage/index.h"
#include "util/status.h"

namespace hrdm::storage {

/// \brief A registered temporal foreign key: child.attrs -> parent key.
struct ForeignKey {
  std::string child;
  std::vector<std::string> attrs;
  std::string parent;
};

/// \brief An immutable snapshot of the whole database state. Fields are
/// public for the owning `Database`'s mutation helpers; everyone else
/// receives the struct as `const` through a `DatabaseVersionPtr` pin.
struct DatabaseVersion {
  /// Monotonically increasing version number (one bump per committed
  /// mutation; 0 = the empty database).
  uint64_t id = 0;
  Catalog catalog;
  /// Relation roots by name. The pointees are immutable once this version
  /// is published; mutation goes through clone-on-shared inside Database.
  std::map<std::string, std::shared_ptr<Relation>, std::less<>> relations;
  /// Access-path indexes per relation (only relations with index DDL have
  /// an entry), same sharing discipline as the relation roots.
  std::map<std::string, std::shared_ptr<RelationIndexes>, std::less<>>
      indexes;
  std::vector<ForeignKey> fks;

  /// \brief Read access to a stored relation in this version.
  Result<const Relation*> Get(std::string_view name) const;

  /// \brief The index set of `relation`; null when the relation has no
  /// indexes (or does not exist) in this version.
  const RelationIndexes* IndexesOf(std::string_view relation) const;

  /// \brief Runs all integrity checks against this version (per-relation
  /// well-formedness plus every registered temporal foreign key).
  Result<std::vector<Violation>> CheckIntegrity() const;

  /// \brief Serializes this version to a snapshot buffer (the same format
  /// as `Database::EncodeSnapshot`; index data is derived, never stored).
  std::string EncodeSnapshot() const;

  /// \brief Canonical human-readable rendering of the whole version:
  /// every relation (scheme + full tuple history, in stored order), the
  /// registered foreign keys and the index registrations. Two versions
  /// with equal ToString() are operationally identical — the oracle both
  /// the crash-recovery and the snapshot-isolation suites assert on.
  std::string ToString() const;
};

/// \brief Shared handle to a pinned, immutable database version.
using DatabaseVersionPtr = std::shared_ptr<const DatabaseVersion>;

}  // namespace hrdm::storage

#endif  // HRDM_STORAGE_DATABASE_VERSION_H_
