#ifndef HRDM_CLASSIC_CLASSIC_H_
#define HRDM_CLASSIC_CLASSIC_H_

/// \file classic.h
/// \brief The classical (snapshot) relational model and algebra — HRDM's
/// baseline.
///
/// Section 5 of the paper claims HRDM is a *consistent extension* of the
/// traditional relational model: "each component C of the relational model
/// (structural or operational) has a corresponding component C_H in the
/// historical relational model with the property that the definitions of C
/// and C_H become equivalent in the absence of a temporal dimension", i.e.
/// when `T = {now}`.
///
/// This module provides:
///  * a small, self-contained implementation of classical relations and
///    their algebra (`SnapshotRelation`, select/project/set ops/joins);
///  * the two mappings connecting the models:
///      - `Snapshot(r, t)`  — the state of an historical relation at
///        chronon `t` (a slice of the Figure 10 cube), and
///      - `Lift(s, t, key)` — embeds a classical relation as an historical
///        relation over `T = {t}` with constant values,
///    with which the consistency theorem is phrased operationally:
///    `Snapshot(Op_H(r), now) == Op(Snapshot(r, now))` for every operator.
///
/// These equivalences are verified exhaustively by tests/consistency_test.cc.

#include <optional>
#include <string>
#include <vector>

#include "core/relation.h"
#include "core/value.h"
#include "util/status.h"

namespace hrdm::classic {

/// \brief A classical attribute: name and domain.
struct Column {
  std::string name;
  DomainType type = DomainType::kInt;

  bool operator==(const Column&) const = default;
};

/// \brief One classical tuple: a flat row of atomic values. Cells may be
/// absent only when produced by snapshotting a heterogeneous historical
/// relation; classical operators treat absent cells as non-matching.
using Row = std::vector<Value>;

/// \brief A classical (snapshot) relation: a header and a set of rows.
class SnapshotRelation {
 public:
  SnapshotRelation() = default;
  explicit SnapshotRelation(std::vector<Column> columns)
      : columns_(std::move(columns)) {}

  const std::vector<Column>& columns() const { return columns_; }
  size_t arity() const { return columns_.size(); }

  const std::vector<Row>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  std::optional<size_t> IndexOf(std::string_view name) const;

  /// \brief Set-semantics insert: exact duplicate rows collapse.
  void InsertRow(Row row);

  bool Contains(const Row& row) const;

  /// \brief Set equality (order-insensitive), headers must match.
  bool EqualsAsSet(const SnapshotRelation& other) const;

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
  std::vector<Row> rows_;
};

// --- The classical relational algebra -------------------------------------

/// \brief σ_{attr θ constant}(s).
Result<SnapshotRelation> Select(const SnapshotRelation& s,
                                std::string_view attr, CompareOp op,
                                const Value& constant);

/// \brief σ_{attr θ attr2}(s).
Result<SnapshotRelation> SelectAttr(const SnapshotRelation& s,
                                    std::string_view attr, CompareOp op,
                                    std::string_view attr2);

/// \brief π_X(s).
Result<SnapshotRelation> Project(const SnapshotRelation& s,
                                 const std::vector<std::string>& attrs);

Result<SnapshotRelation> Union(const SnapshotRelation& a,
                               const SnapshotRelation& b);
Result<SnapshotRelation> Intersect(const SnapshotRelation& a,
                                   const SnapshotRelation& b);
Result<SnapshotRelation> Difference(const SnapshotRelation& a,
                                    const SnapshotRelation& b);

/// \brief a × b; requires disjoint attribute names.
Result<SnapshotRelation> CartesianProduct(const SnapshotRelation& a,
                                          const SnapshotRelation& b);

/// \brief a JOIN b [A θ B]; requires disjoint attribute names.
Result<SnapshotRelation> ThetaJoin(const SnapshotRelation& a,
                                   std::string_view attr_a, CompareOp op,
                                   const SnapshotRelation& b,
                                   std::string_view attr_b);

/// \brief Natural join over shared attribute names.
Result<SnapshotRelation> NaturalJoin(const SnapshotRelation& a,
                                     const SnapshotRelation& b);

// --- Mappings between the models -------------------------------------------

/// \brief The classical state of historical relation `r` at chronon `t`:
/// one row per tuple alive at `t`, with model-level (interpolated) values.
/// Attributes undefined at `t` yield absent cells.
Result<SnapshotRelation> Snapshot(const Relation& r, TimePoint t);

/// \brief Embeds a classical relation into HRDM over the singleton time
/// domain `{t}`: every value becomes a constant function on `{t}`.
/// `key` selects the key attributes (must be non-empty and unique in `s` —
/// i.e. `s` must actually satisfy the key, else ConstraintViolation).
Result<Relation> Lift(const SnapshotRelation& s, TimePoint t,
                      const std::vector<std::string>& key,
                      std::string name = "lifted");

}  // namespace hrdm::classic

#endif  // HRDM_CLASSIC_CLASSIC_H_
