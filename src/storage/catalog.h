#ifndef HRDM_STORAGE_CATALOG_H_
#define HRDM_STORAGE_CATALOG_H_

/// \file catalog.h
/// \brief The schema catalog: named relation schemes and schema evolution.
///
/// Attribute lifespans make *schemes* time-varying (Section 2, Figure 6):
/// "assigning a lifespan to each attribute in a relation scheme allows the
/// user to explicitly indicate the period of time over which this
/// attribute is defined in that relation, thereby allowing for the
/// possibility of evolving schemes." The catalog exposes exactly the three
/// evolution events of the paper's Daily-Trading-Volume story:
///
///  * `AddAttribute`     — the attribute enters the scheme with a lifespan;
///  * `CloseAttribute`   — "it became too expensive to collect and so it
///    was dropped from the schema" (the attribute lifespan is truncated at
///    a chronon; history before it is retained);
///  * `ReopenAttribute`  — "the schema was expanded to once again
///    incorporate this attribute" (the lifespan gains a new interval).
///
/// Schemes are immutable; evolution replaces the registered SchemePtr.
/// Database (database.h) rebinds stored tuples after each change.
///
/// Layer contract: the catalog is pure metadata — schemes and access-path
/// index *registrations* (which indexes exist; the index data itself lives
/// in storage/index.h and is owned by Database). It keeps no copy of
/// relation sizes: the planner reads `Relation::size()` of the stored
/// relation itself. The query optimizer reads registrations through a
/// function hook (`query::IndexCatalogFn`) so plans can be chosen without
/// the query layer depending on storage internals. Registrations are
/// advisory: a stale or missing entry changes plans, never answers.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/schema.h"
#include "util/status.h"

namespace hrdm::storage {

/// \brief Which access-path indexes are registered on a relation (the
/// optimizer's view; the index data lives in Database). Advisory: a
/// registration without data simply keeps the full-scan path.
struct IndexSpec {
  /// A lifespan interval index over tuple lifespans exists.
  bool lifespan = false;
  /// Attributes carrying a value (equality) index.
  std::vector<std::string> value_attrs;
};

/// \brief A registry of named, keyed relation schemes with evolution
/// support.
class Catalog {
 public:
  /// \brief Registers a scheme under its own name. Errors on duplicates or
  /// keyless schemes (base relations must be keyed).
  Status Register(SchemePtr scheme);

  /// \brief Creates and registers a scheme in one step.
  Status Create(std::string name, std::vector<AttributeDef> attributes,
                std::vector<std::string> key);

  Result<SchemePtr> Get(std::string_view name) const;
  bool Contains(std::string_view name) const;
  Status Drop(std::string_view name);

  std::vector<std::string> Names() const;

  /// \brief Adds attribute `def` to scheme `relation`. Key attributes'
  /// lifespans are widened to keep spanning the scheme lifespan.
  Status AddAttribute(std::string_view relation, AttributeDef def);

  /// \brief Truncates the attribute's lifespan at chronon `at`: its new
  /// lifespan is `ALS ∩ (-inf, at-1]`. Key attributes cannot be closed.
  Status CloseAttribute(std::string_view relation, std::string_view attr,
                        TimePoint at);

  /// \brief Re-opens the attribute over `span` (lifespan gains `span`).
  Status ReopenAttribute(std::string_view relation, std::string_view attr,
                         const Lifespan& span);

  // --- index registrations ----------------------------------------------------

  /// \brief Records that a lifespan index exists on `relation`. Errors on
  /// unknown relations (index registrations are issued by DDL and should
  /// fail loudly).
  Status RegisterLifespanIndex(std::string_view relation);

  /// \brief Records a value index on `relation`.`attr` (idempotent).
  Status RegisterValueIndex(std::string_view relation, std::string_view attr);

  /// \brief The index registrations of `relation`; nullopt when none.
  std::optional<IndexSpec> Indexes(std::string_view relation) const;

 private:
  Status Mutate(std::string_view relation, SchemePtr replacement);

  std::map<std::string, SchemePtr, std::less<>> schemes_;
  std::map<std::string, IndexSpec, std::less<>> indexes_;
};

}  // namespace hrdm::storage

#endif  // HRDM_STORAGE_CATALOG_H_
