#ifndef HRDM_STORAGE_CHANGELOG_H_
#define HRDM_STORAGE_CHANGELOG_H_

/// \file changelog.h
/// \brief Logical log records for Database: durability by replay.
///
/// Every mutating Database operation has a corresponding log record. The
/// records of a history, applied in order to an empty Database, reproduce
/// the database state exactly (verified by the recovery suites:
/// tests/crash_recovery_test.cc, tests/recovery_differential_test.cc and
/// the replay equivalence check in tests/dml_fuzz_test.cc), which gives
/// crash recovery: persist each record through the write-ahead log
/// (storage/wal.h), occasionally checkpoint via storage/snapshot.h; on
/// restart, load the snapshot and replay the WAL tail. `StorageEngine`
/// (storage/storage_engine.h) is the facade that wires these pieces
/// together and the only writer of records.
///
/// This file owns the *logical record format*: `Encode*Record` builds one
/// self-contained byte string per life-cycle operation and
/// `ApplyLogRecord` interprets one against a Database. The on-disk framing
/// (CRC, torn-tail detection, fsync) lives in storage/wal.h;
/// `ReadWal(...).records` hands the records back for replay.
///
/// Layer contract: sits beside Database at the top of the storage engine
/// and records the paper's life-cycle events (§1–2: birth, death,
/// reincarnation, temporal assignment, the Figure 6 schema-evolution
/// operations) — one record per *logical* operation, so a replayed history
/// is readable as the database's biography. Index *data* is derived and
/// never logged; index DDL (`kCreateLifespanIndex` / `kCreateValueIndex`)
/// *is* logged so that recovery can re-issue it and rebuild the index from
/// the recovered relation (the schema-evolution rebuild path).

#include <string>
#include <vector>

#include "storage/database.h"
#include "util/status.h"

namespace hrdm::storage {

/// \brief Kinds of logged operations.
enum class OpKind : uint8_t {
  kCreateRelation = 1,
  kDropRelation = 2,
  kInsert = 3,
  kAssign = 4,
  kEndLifespan = 5,
  kReincarnate = 6,
  kAddAttribute = 7,
  kCloseAttribute = 8,
  kReopenAttribute = 9,
  kRegisterForeignKey = 10,
  kCreateLifespanIndex = 11,
  kCreateValueIndex = 12,
};

// --- single-record codec -----------------------------------------------------
//
// Each record is [1-byte OpKind][operation payload]. Records are
// self-contained: ApplyLogRecord needs only the record bytes and the
// database to mutate. The WAL appends these verbatim inside its CRC
// frames.

std::string EncodeCreateRelationRecord(const RelationScheme& scheme);
std::string EncodeDropRelationRecord(std::string_view name);
std::string EncodeInsertRecord(std::string_view relation, const Tuple& t);
std::string EncodeAssignRecord(std::string_view relation,
                               const std::vector<Value>& key,
                               std::string_view attr, const Lifespan& span,
                               const Value& value);
std::string EncodeEndLifespanRecord(std::string_view relation,
                                    const std::vector<Value>& key,
                                    TimePoint at);
std::string EncodeReincarnateRecord(std::string_view relation,
                                    const std::vector<Value>& key,
                                    const Lifespan& span);
std::string EncodeAddAttributeRecord(std::string_view relation,
                                     const AttributeDef& def);
std::string EncodeCloseAttributeRecord(std::string_view relation,
                                       std::string_view attr, TimePoint at);
std::string EncodeReopenAttributeRecord(std::string_view relation,
                                        std::string_view attr,
                                        const Lifespan& span);
std::string EncodeRegisterForeignKeyRecord(const ForeignKey& fk);
std::string EncodeCreateLifespanIndexRecord(std::string_view relation);
std::string EncodeCreateValueIndexRecord(std::string_view relation,
                                         std::string_view attr);

/// \brief Decodes one record and applies it to `db`. Returns Corruption on
/// malformed bytes; otherwise whatever the Database operation returns.
Status ApplyLogRecord(std::string_view record, Database* db);

}  // namespace hrdm::storage

#endif  // HRDM_STORAGE_CHANGELOG_H_
