#ifndef HRDM_SESSION_SESSION_H_
#define HRDM_SESSION_SESSION_H_

/// \file session.h
/// \brief Reader sessions with snapshot isolation over one HRDM engine.
///
/// A `Session` pins one `storage::DatabaseVersion` at open and answers
/// every read — name resolution, HRQL queries, integrity checks,
/// serialization, rendering — from that version alone, for the session's
/// whole lifetime. Opening is O(1) (one shared_ptr copy under a brief
/// mutex), and everything after it is lock-free: the pinned version is
/// immutable by construction (util/version_cell.h never mutates a version
/// someone has pinned), so any number of sessions on any threads read
/// concurrently while writers keep committing through the storage engine's
/// logged mutators.
///
/// The isolation guarantee, stated operationally: for any session `s`,
/// `s.ToString()` is byte-identical at every point of the session's life,
/// and every query evaluated through `s` returns exactly what it would
/// return against a private copy of the database frozen at open time.
/// That statement is what tests/session_isolation_test.cc asserts
/// directly, and what tests/concurrency_fuzz_test.cc re-proves with N
/// reader × M writer threads under ThreadSanitizer.
///
/// Sessions are read-only by design: writes go through
/// `storage::StorageEngine`'s mutators (serialized, WAL-logged) and become
/// visible to *new* sessions — or to an existing one that explicitly calls
/// `Refresh`, trading its snapshot for the current one. This is snapshot
/// isolation for readers with serialized writers, not full multi-writer
/// transactions.

#include <cstdint>
#include <string>
#include <string_view>

#include "query/executor.h"
#include "storage/database_version.h"
#include "storage/storage_engine.h"

namespace hrdm::session {

/// \brief A read-only view of the database, frozen at open time.
class Session {
 public:
  /// \brief Pins the engine's current version. O(1); never blocks on
  /// in-flight queries (only on the cell's pointer swap).
  static Session Open(const storage::StorageEngine& engine) {
    return Session(engine.PinVersion());
  }

  /// \brief Pins a bare (non-durable) database's current version.
  static Session Open(const storage::Database& db) {
    return Session(db.CurrentVersion());
  }

  /// \brief Adopts an already-pinned version (must be non-null).
  explicit Session(storage::DatabaseVersionPtr version)
      : version_(std::move(version)) {}

  /// \brief The pinned version itself (immutable; lives at least as long
  /// as this session).
  const storage::DatabaseVersion& version() const { return *version_; }

  /// \brief Shares the pin (e.g. to hand the same snapshot to a worker).
  storage::DatabaseVersionPtr pin() const { return version_; }

  /// \brief Read access to a stored relation as of the snapshot.
  Result<const Relation*> Get(std::string_view name) const {
    return version_->Get(name);
  }

  /// \brief Parses and evaluates a relation-sorted HRQL query against the
  /// snapshot.
  Result<Relation> Run(std::string_view hrql) const {
    return query::Run(hrql, *version_);
  }

  /// \brief Evaluates a relation-sorted expression against the snapshot.
  Result<Relation> Eval(const query::ExprPtr& expr) const {
    return query::Eval(expr, *version_);
  }

  /// \brief Evaluates a lifespan-sorted expression against the snapshot.
  Result<Lifespan> EvalLifespan(const query::LsExprPtr& expr) const {
    return query::EvalLifespan(expr, *version_);
  }

  /// \brief Planning hooks bound to the snapshot (for callers driving
  /// query::Plan directly with custom knobs). The session must outlive
  /// the returned options.
  query::PlanOptions MakePlanOptions() const {
    return query::VersionPlanOptions(*version_);
  }

  /// \brief Integrity checks as of the snapshot.
  Result<std::vector<Violation>> CheckIntegrity() const {
    return version_->CheckIntegrity();
  }

  /// \brief Serializes the snapshot (the data image of
  /// Database::EncodeSnapshot — a consistent online backup that never
  /// blocks writers).
  std::string EncodeSnapshot() const { return version_->EncodeSnapshot(); }

  /// \brief Canonical rendering of the snapshot; byte-stable for the whole
  /// session (the isolation oracle).
  std::string ToString() const { return version_->ToString(); }

  /// \brief Trades this session's snapshot for the source's current one
  /// (the one explicit way a session observes later commits).
  void Refresh(const storage::StorageEngine& engine) {
    version_ = engine.PinVersion();
  }
  void Refresh(const storage::Database& db) {
    version_ = db.CurrentVersion();
  }

 private:
  storage::DatabaseVersionPtr version_;
};

}  // namespace hrdm::session

#endif  // HRDM_SESSION_SESSION_H_
