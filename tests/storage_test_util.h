#ifndef HRDM_TESTS_STORAGE_TEST_UTIL_H_
#define HRDM_TESTS_STORAGE_TEST_UTIL_H_

// Shared machinery for the durability suites (wal_test, storage_engine_test,
// crash_recovery_test, recovery_differential_test, storage_fuzz_test):
//
//  * TempDir — a fresh directory under $TMPDIR (so CI can point the crash
//    suites at a tmpfs), recursively removed on destruction;
//  * WorkloadRunner — a deterministic, seeded DML/DDL op stream that can be
//    replayed against any target exposing the Database mutation surface
//    (Database, StorageEngine). The crash harness runs the same seed in
//    the child (against a StorageEngine) and in the parent (against an
//    in-memory Database oracle) and compares the recovered state to the
//    oracle's prefix states. Suites that need the logged records of a
//    history run it against a StorageEngine opened with FsyncPolicy::kOff
//    and read them back with `ReadWal(engine.wal_path()).records`.
//
// Plus the display helpers the suites' failure messages and env knobs use:
// ParseFsyncPolicy (the inverse of FsyncPolicyName) and AccessPathName.
//
// WorkloadRunner issues AT MOST ONE logged mutation per Step() so that a
// crash between any two steps lands exactly on an oracle prefix state.

#include <cstdlib>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "query/optimizer.h"
#include "storage/database.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"
#include "util/file.h"
#include "util/random.h"

namespace hrdm::storage {
namespace testing {

/// Parses "off" / "batched" / "always" (the HRDM_CRASH_FSYNC knob).
inline Result<FsyncPolicy> ParseFsyncPolicy(std::string_view name) {
  if (name == "off") return FsyncPolicy::kOff;
  if (name == "batched") return FsyncPolicy::kBatched;
  if (name == "always") return FsyncPolicy::kAlways;
  return Status::InvalidArgument("unknown fsync policy: " + std::string(name) +
                                 " (expected off|batched|always)");
}

/// Display name of an access path, for differential failure messages.
inline std::string_view AccessPathName(query::AccessPath p) {
  switch (p) {
    case query::AccessPath::kFullScan:
      return "full_scan";
    case query::AccessPath::kLifespanIndex:
      return "lifespan_index";
    case query::AccessPath::kValueIndex:
      return "value_index";
  }
  return "unknown";
}

/// A fresh directory under $TMPDIR (default /tmp), removed (with its
/// regular-file contents) when the object dies.
class TempDir {
 public:
  explicit TempDir(const char* tag) {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr && *base != '\0' ? base
                                                                    : "/tmp");
    if (!tmpl.empty() && tmpl.back() == '/') tmpl.pop_back();
    tmpl += "/hrdm_" + std::string(tag) + "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      std::perror("mkdtemp");
      std::abort();  // tests cannot proceed without scratch space
    }
    path_.assign(buf.data());
  }

  ~TempDir() { RemoveAll(); }

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

  /// Deletes every regular file inside and the directory itself (the
  /// engine never nests directories).
  void RemoveAll() {
    if (path_.empty()) return;
    auto entries = util::ListDir(path_);
    if (entries.ok()) {
      for (const std::string& name : *entries) {
        (void)util::RemoveFileIfExists(path_ + "/" + name);
      }
    }
    ::rmdir(path_.c_str());
    path_.clear();
  }

 private:
  std::string path_;
};

inline const Database& DbOf(const Database& db) { return db; }
inline const Database& DbOf(const StorageEngine& engine) {
  return engine.db();
}

/// A deterministic stream of storage mutations: same seed + same call
/// sequence => same operations and (because every target shares Database
/// semantics) the same success/failure outcomes and the same end state.
///
/// Step 0 creates relation "obj" (Id:string key, X:int, Y:string), steps
/// 1-2 build its indexes, and every later step draws one random mutation:
/// births, temporal assignment, death, reincarnation, schema evolution and
/// occasional DDL against an auxiliary relation. Exactly one loggable call
/// per step.
class WorkloadRunner {
 public:
  static constexpr TimePoint kHorizon = 60;

  /// `id_prefix` namespaces the generated object keys ("o0", "o1", ... by
  /// default) — concurrent writer threads give each runner its own prefix
  /// so their births target disjoint objects while still contending on the
  /// same relation (tests/concurrency_fuzz_test.cc).
  explicit WorkloadRunner(uint64_t seed, std::string id_prefix = "o")
      : rng_(seed), prefix_(std::move(id_prefix)) {}

  /// Runs step `step` (callers must invoke steps 0,1,2,... in order so the
  /// rng stream stays aligned). Returns the mutation's status: failures
  /// are expected (e.g. assigning to a dead object) and are not logged by
  /// an engine target.
  template <typename Target>
  Status Step(Target* target, int step) {
    const Lifespan full = Span(0, kHorizon - 1);
    if (step == 0) {
      return target->CreateRelation(
          "obj",
          {{"Id", DomainType::kString, full, InterpolationKind::kDiscrete},
           {"X", DomainType::kInt, full, InterpolationKind::kStepwise},
           {"Y", DomainType::kString, full, InterpolationKind::kStepwise}},
          {"Id"});
    }
    if (step == 1) return target->CreateLifespanIndex("obj");
    if (step == 2) return target->CreateValueIndex("obj", "X");

    switch (rng_.Uniform(0, 9)) {
      case 0:
      case 1:
      case 2: {  // birth
        auto scheme = DbOf(*target).catalog().Get("obj");
        if (!scheme.ok()) return scheme.status();
        const TimePoint b = rng_.Uniform(0, kHorizon - 2);
        const TimePoint e = rng_.Uniform(b, kHorizon - 1);
        Tuple::Builder builder(*scheme, Span(b, e));
        builder.SetConstant(
            "Id", Value::String(prefix_ + std::to_string(inserted_)));
        builder.SetAt("X", b, Value::Int(rng_.Uniform(0, 99)));
        auto t = std::move(builder).Build();
        if (!t.ok()) return t.status();
        Status s = target->Insert("obj", *std::move(t));
        if (s.ok()) ++inserted_;
        return s;
      }
      case 3:
      case 4: {  // temporal assignment (may cleanly fail)
        const int target_id =
            inserted_ == 0 ? 0 : static_cast<int>(rng_.Uniform(0, inserted_));
        const TimePoint b = rng_.Uniform(0, kHorizon - 1);
        const TimePoint e =
            std::min<TimePoint>(kHorizon - 1, b + rng_.Uniform(0, 15));
        const bool int_attr = rng_.Chance(0.5);
        return target->Assign("obj", KeyOf(target_id),
                              int_attr ? "X" : "Y", Span(b, e),
                              int_attr ? Value::Int(rng_.Uniform(0, 99))
                                       : Value::String(rng_.Identifier(4)));
      }
      case 5: {  // death
        const int target_id =
            inserted_ == 0 ? 0 : static_cast<int>(rng_.Uniform(0, inserted_));
        return target->EndLifespan("obj", KeyOf(target_id),
                                   rng_.Uniform(1, kHorizon - 1));
      }
      case 6: {  // reincarnation
        const int target_id =
            inserted_ == 0 ? 0 : static_cast<int>(rng_.Uniform(0, inserted_));
        const TimePoint b = rng_.Uniform(0, kHorizon - 2);
        return target->Reincarnate("obj", KeyOf(target_id),
                                   Span(b, rng_.Uniform(b, kHorizon - 1)));
      }
      case 7: {  // schema evolution: close OR reopen Y (one call per step)
        if (rng_.Chance(0.5)) {
          return target->CloseAttribute("obj", "Y",
                                        rng_.Uniform(1, kHorizon - 1));
        }
        const TimePoint b = rng_.Uniform(0, kHorizon - 2);
        return target->ReopenAttribute("obj", "Y",
                                       Span(b, rng_.Uniform(b, kHorizon - 1)));
      }
      case 8: {  // rare: widen the scheme / index the string attribute
        if (rng_.Chance(0.7)) {
          return target->Assign("obj", KeyOf(0), "X",
                                Lifespan::Point(rng_.Uniform(0, kHorizon - 1)),
                                Value::Int(rng_.Uniform(0, 99)));
        }
        if (rng_.Chance(0.5)) return target->CreateValueIndex("obj", "Y");
        return target->AddAttribute(
            "obj", {"Z" + std::to_string(step), DomainType::kInt,
                    Span(0, kHorizon - 1), InterpolationKind::kStepwise});
      }
      default: {  // auxiliary relation churn: create / drop
        if (DbOf(*target).Get("aux").ok()) {
          return target->DropRelation("aux");
        }
        return target->CreateRelation(
            "aux",
            {{"K", DomainType::kInt, Span(0, kHorizon - 1),
              InterpolationKind::kDiscrete}},
            {"K"});
      }
    }
  }

 private:
  std::vector<Value> KeyOf(int i) const {
    return {Value::String(prefix_ + std::to_string(i))};
  }

  Rng rng_;
  std::string prefix_ = "o";
  int inserted_ = 0;
};

}  // namespace testing
}  // namespace hrdm::storage

#endif  // HRDM_TESTS_STORAGE_TEST_UTIL_H_
