#ifndef HRDM_PERFBENCH_GENERATOR_H_
#define HRDM_PERFBENCH_GENERATOR_H_

// Seeded inputs for the HRDM benchmark: the `emp` population every
// workload loads, the small `dept` relation the analytic join reads, the
// HRQL text of each read, and the lifecycle DML the commit path runs.
//
// The population is the repository's own personnel generator,
// workload::MakePersonnel (hire / fire / re-hire lifespans, stepwise Salary
// and Dept), drawn once per run from the seed; it is also the lookup
// ground truth and the source of newborn objects. Everything else is drawn
// from a seeded Rng. DML is drawn against `LifespanModel`, the harness's
// own record of each object's lifespan, so every drawn operation is valid
// by construction: an Assign stays inside the value lifespan, an
// EndLifespan leaves at least one chronon, and a Reincarnate stays inside
// the attribute lifespans.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/lifespan.h"
#include "core/relation.h"
#include "core/schema.h"
#include "core/tuple.h"
#include "core/value.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/generators.h"

namespace hrdm::perfbench {

/// Chronons are [0, kHorizon - 1]; every attribute lifespan covers them all.
constexpr TimePoint kHorizon = 1000;
constexpr int kDepts = 24;

/// The key of population object `i` (MakePersonnel's Name values).
inline std::string KeyOf(int64_t i) { return "emp" + std::to_string(i); }

/// MakePersonnel's department names, which the `dept` relation's keys match.
inline std::string DeptOf(int64_t d) { return "dept" + std::to_string(d); }

/// One splitmix64 step: decorrelates (seed, stream, index) triples.
inline uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// `size` personnel objects `emp(Name*, Salary, Dept)`. Objects
/// [0, loaded) are loaded; the rest are the newborns that Insert ops add,
/// in order. MakePersonnel draws objects one after another from one Rng,
/// so the first n objects do not depend on `size`. Salary steps every
/// ~100 chronons and Dept every ~300, so an object's stored history is a
/// handful of change points per lifespan interval.
inline Result<Relation> MakePopulation(uint64_t seed, int64_t size) {
  Rng rng(Mix(seed, 1, 0));
  workload::PersonnelConfig config;
  config.num_employees = static_cast<size_t>(size);
  config.horizon = kHorizon;
  config.salary_change_period = 100;
  config.num_departments = kDepts;
  return workload::MakePersonnel(&rng, config);
}

inline std::vector<AttributeDef> DeptAttributes() {
  const Lifespan all = Span(0, kHorizon - 1);
  return {{"DName", DomainType::kString, all, InterpolationKind::kDiscrete},
          {"Budget", DomainType::kInt, all, InterpolationKind::kStepwise}};
}

inline Result<Tuple> BuildDept(const SchemePtr& scheme, uint64_t seed,
                               int64_t d) {
  Rng rng(Mix(seed, 2, static_cast<uint64_t>(d)));
  Tuple::Builder b(scheme, Span(0, kHorizon - 1));
  b.SetConstant("DName", Value::String(DeptOf(d)));
  b.SetAt("Budget", 0, Value::Int(rng.Uniform(1, 50) * 10000));
  b.SetAt("Budget", rng.Uniform(1, kHorizon - 1),
          Value::Int(rng.Uniform(1, 50) * 10000));
  return std::move(b).Build();
}

// --- reads -------------------------------------------------------------------

/// Point-key history read (the lookup workload; also the ingest
/// workload's visibility check).
inline std::string HistoryQuery(int64_t index) {
  return "select_if(emp, Name = \"" + KeyOf(index) + "\", exists)";
}

/// The three queries of one window report over `[w0, w1]`.
struct WindowReport {
  std::string aggregate;
  std::string restrict;
  std::string join;
};

/// The report over `[w0, w1]` with `Salary >= floor` as the restriction.
inline WindowReport MakeReport(TimePoint w0, TimePoint w1, int64_t floor) {
  const std::string window =
      "timeslice(emp, {[" + std::to_string(w0) + ", " + std::to_string(w1) +
      "]})";
  return {"aggregate(" + window + ", sum Salary by Dept)",
          "select_when(" + window + ", Salary >= " + std::to_string(floor) +
              ")",
          "join(" + window + ", dept, Dept = DName)"};
}

inline WindowReport DrawReport(Rng& rng) {
  const TimePoint w0 = rng.Uniform(0, kHorizon - 160);
  const TimePoint w1 = w0 + rng.Uniform(40, 150);
  return MakeReport(w0, w1, rng.Uniform(80, 180) * 1000);
}

// --- lifecycle DML -----------------------------------------------------------

enum class OpKind { kAssign, kInsert, kEndLifespan, kReincarnate };
constexpr int kOpKinds = 4;

inline const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kAssign:
      return "assign";
    case OpKind::kInsert:
      return "insert";
    case OpKind::kEndLifespan:
      return "end_lifespan";
    case OpKind::kReincarnate:
      return "reincarnate";
  }
  return "?";
}

/// One logged mutation, kept so the run can be replayed into a plain
/// storage::Database for the recovery check.
struct DmlOp {
  OpKind kind = OpKind::kAssign;
  int64_t index = 0;  // object key index; kInsert: the population object
  std::string attr;   // kAssign
  Lifespan span;      // kAssign, kReincarnate
  TimePoint at = 0;   // kEndLifespan
  Value value;        // kAssign
};

/// The harness's model of every object's lifespan, indexed by object
/// index; DML is drawn only from it. No drawn operation removes an object
/// (EndLifespan always leaves a chronon), so every index stays live.
///
/// The mix is the lifecycle part of the repository's storage workload
/// (tests/storage_test_util.h, WorkloadRunner): of its ten step kinds,
/// three are births, two temporal assignments, one a death and one a
/// reincarnation. So an op is an Insert with probability 3/7, an Assign
/// 2/7, an EndLifespan 1/7 and a Reincarnate 1/7. As there, an Assign
/// covers 0-15 chronons and picks either value attribute with equal odds,
/// and a Reincarnate span starts anywhere and runs to a uniform end.
class LifespanModel {
 public:
  /// Models objects [0, loaded) of `population`; Insert ops add the
  /// following ones. The population must outlive the model.
  LifespanModel(const Relation* population, int64_t loaded)
      : population_(population) {
    for (int64_t i = 0; i < loaded; ++i) {
      lifespan_.push_back(population->tuple(static_cast<size_t>(i)).lifespan());
    }
  }

  const Lifespan& Of(int64_t index) const {
    return lifespan_[static_cast<size_t>(index)];
  }

  /// Draws one valid operation and applies it to the model.
  DmlOp Draw(Rng& rng) {
    DmlOp op;
    const int64_t step = rng.Uniform(0, 6);
    op.kind = step < 3   ? OpKind::kInsert
              : step < 5 ? OpKind::kAssign
              : step < 6 ? OpKind::kEndLifespan
                         : OpKind::kReincarnate;
    if (op.kind == OpKind::kInsert) {
      op.index = static_cast<int64_t>(lifespan_.size());
      if (op.index >= static_cast<int64_t>(population_->size())) {
        return op;  // out of newborns: ApplyOp reports it as a failure
      }
      lifespan_.push_back(
          population_->tuple(static_cast<size_t>(op.index)).lifespan());
      return op;
    }
    op.index = static_cast<int64_t>(rng.Index(lifespan_.size()));
    Lifespan& l = lifespan_[static_cast<size_t>(op.index)];
    if (op.kind == OpKind::kEndLifespan && l.Min() == l.Max()) {
      op.kind = OpKind::kReincarnate;  // nothing left to end
    }
    switch (op.kind) {
      case OpKind::kAssign: {
        const Interval& iv = l.intervals()[rng.Index(l.IntervalCount())];
        const TimePoint a = rng.Uniform(iv.begin, iv.end);
        op.span = Span(a, std::min<TimePoint>(iv.end, a + rng.Uniform(0, 15)));
        if (rng.Chance(0.5)) {
          op.attr = "Salary";
          op.value = Value::Int(rng.Uniform(30, 200) * 1000);
        } else {
          op.attr = "Dept";
          op.value = Value::String(DeptOf(rng.Uniform(0, kDepts - 1)));
        }
        break;
      }
      case OpKind::kEndLifespan:
        op.at = rng.Uniform(l.Min() + 1, l.Max());
        l = l.Intersect(Span(l.Min(), op.at - 1));
        break;
      case OpKind::kReincarnate: {
        const TimePoint b = rng.Uniform(0, kHorizon - 2);
        op.span = Span(b, rng.Uniform(b, kHorizon - 1));
        l = l.Union(op.span);
        break;
      }
      case OpKind::kInsert:
        break;
    }
    return op;
  }

 private:
  const Relation* population_;
  std::vector<Lifespan> lifespan_;
};

/// Applies `op` through a mutator surface shared by storage::StorageEngine
/// and storage::Database.
template <typename Db>
Status ApplyOp(Db& db, const Relation& population, const DmlOp& op) {
  const std::vector<Value> key = {Value::String(KeyOf(op.index))};
  switch (op.kind) {
    case OpKind::kAssign:
      return db.Assign("emp", key, op.attr, op.span, op.value);
    case OpKind::kInsert:
      if (op.index >= static_cast<int64_t>(population.size())) {
        return Status::InvalidArgument("population has no newborn left");
      }
      return db.Insert("emp", population.tuple(static_cast<size_t>(op.index)));
    case OpKind::kEndLifespan:
      return db.EndLifespan("emp", key, op.at);
    case OpKind::kReincarnate:
      return db.Reincarnate("emp", key, op.span);
  }
  return Status::Internal("unknown op kind");
}

}  // namespace hrdm::perfbench

#endif  // HRDM_PERFBENCH_GENERATOR_H_
