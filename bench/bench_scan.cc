// Access-path benchmark (entry-point restrictions, Sections 4.3–4.4).
//
// Shape to check: on selective point queries (SELECT-IF / SELECT-WHEN with
// an equality criterion) and narrow TIME-SLICE windows over a 100k-tuple
// relation, the storage indexes (storage/index.h) must beat the full
// ScanCursor by ≥5× — the index probe hands the plan a small candidate set
// and only those tuples are interpolated and tested, while the full scan
// pays O(|r|) materializations per query. The differential fuzz suite
// asserts both paths return identical relations; here we measure the gap.
// Writes BENCH_scan.json (per-path throughput and latency, result tuples,
// tuples scanned, index candidates).

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "query/executor.h"
#include "query/parser.h"
#include "storage/database.h"
#include "util/random.h"

namespace hrdm {
namespace {

constexpr size_t kTuples = 100000;
constexpr TimePoint kHorizon = 100000;
constexpr int64_t kValueSpace = 1000;  // ~0.1% selectivity per point probe
constexpr TimePoint kLifespanWidth = 100;

/// Builds `r(Id*, V)` with `kTuples` rows: V constant ints from
/// [0, kValueSpace) — a point probe expects |r| / kValueSpace matches —
/// and ~kLifespanWidth-chronon lifespans spread over the horizon, so a
/// kLifespanWidth-wide TIME-SLICE window touches ~0.2% of the tuples.
/// Both index kinds are built; the optimizer picks per query.
storage::Database MakeScanDb(uint64_t seed) {
  Rng rng(seed);
  storage::Database db;
  const Lifespan full = Span(0, kHorizon - 1);
  auto scheme = *RelationScheme::Make(
      "r", {{"Id", DomainType::kString, full, InterpolationKind::kDiscrete},
            {"V", DomainType::kInt, full, InterpolationKind::kStepwise}},
      {"Id"});
  (void)db.CreateRelation(scheme);
  for (size_t i = 0; i < kTuples; ++i) {
    const TimePoint b = rng.Uniform(0, kHorizon - kLifespanWidth - 1);
    Tuple::Builder tb(scheme, Span(b, b + rng.Uniform(10, kLifespanWidth - 1)));
    std::string id = "t";  // two-step concat: GCC 12 -Wrestrict false positive
    id += std::to_string(i);
    tb.SetConstant("Id", Value::String(std::move(id)));
    tb.SetConstant("V", Value::Int(rng.Uniform(0, kValueSpace - 1)));
    (void)db.Insert("r", *std::move(tb).Build());
  }
  (void)db.CreateLifespanIndex("r");
  (void)db.CreateValueIndex("r", "V");
  return db;
}

struct PathResult {
  bench::Timing timing;
  query::PlanStats stats;
  std::string path;  // what PlanStats says actually ran
};

/// Times `hrql`; `force` pins the access path (nullopt = let
/// ChooseAccessPath decide, the production configuration).
PathResult RunPath(const storage::Database& db, const std::string& hrql,
                   std::optional<query::AccessPath> force, int reps) {
  PathResult out;
  const auto pin = db.CurrentVersion();
  query::PlanOptions options = query::VersionPlanOptions(*pin);
  options.force_access_path = force;
  out.timing = bench::TimePlan(*query::ParseExpr(hrql),
                               query::VersionResolver(*pin), options, reps,
                               &out.stats);
  out.path = out.stats.scans_value_index > 0      ? "value_index"
             : out.stats.scans_lifespan_index > 0 ? "lifespan_index"
                                                  : "full_scan";
  return out;
}

bench::Json PathJson(const PathResult& p) {
  return bench::Json::Of(
      p.timing, {{"result_tuples", p.timing.result},
                 {"tuples_scanned", p.stats.tuples_scanned},
                 {"index_candidates", p.stats.index_candidates},
                 {"path", p.path}});
}

}  // namespace
}  // namespace hrdm

int main() {
  using namespace hrdm;
  using query::AccessPath;

  char slice[64];
  std::snprintf(slice, sizeof(slice), "timeslice(r, {[%d, %d]})", 50000,
                50000 + static_cast<int>(kLifespanWidth) - 1);
  char windowed[96];
  std::snprintf(windowed, sizeof(windowed),
                "select_if(r, V = 123, exists, {[%d, %d]})", 50000,
                50000 + static_cast<int>(kLifespanWidth) - 1);

  struct Workload {
    const char* name;
    std::string hrql;
    int scan_reps;  // the O(|r|) baseline gets fewer
    int index_reps;
  };
  const Workload workloads[] = {
      // Selective point queries → value index.
      {"select_if_point_100k", "select_if(r, V = 123, exists)", 3, 500},
      {"select_when_point_100k", "select_when(r, V = 123)", 3, 500},
      // Narrow slice window → lifespan interval index.
      {"timeslice_narrow_100k", slice, 3, 200},
      // Windowed existential SELECT-IF: value index preferred, lifespan
      // eligible — the chooser takes the equality probe.
      {"select_if_windowed_100k", windowed, 3, 500},
  };

  const auto db = MakeScanDb(/*seed=*/1);

  std::vector<bench::Json> rows;
  for (const Workload& w : workloads) {
    const PathResult scan =
        RunPath(db, w.hrql, AccessPath::kFullScan, w.scan_reps);
    const PathResult indexed = RunPath(db, w.hrql, std::nullopt, w.index_reps);
    const double speedup =
        indexed.timing.ops_per_sec / scan.timing.ops_per_sec;

    std::printf(
        "%-26s | full scan %8.2f ops/s (%6zu scanned) | %-14s %9.2f ops/s "
        "(%5zu candidates) | %.1fx\n",
        w.name, scan.timing.ops_per_sec, scan.stats.tuples_scanned,
        indexed.path.c_str(), indexed.timing.ops_per_sec,
        indexed.stats.index_candidates, speedup);
    rows.push_back(bench::Json::Object({{"name", w.name},
                                        {"hrql", w.hrql},
                                        {"full_scan", PathJson(scan)},
                                        {"optimized", PathJson(indexed)},
                                        {"speedup", speedup}}));
  }
  bench::WriteBenchJson("scan", {{"tuples", kTuples},
                                 {"workloads", bench::Json::Array(rows)}});
  return 0;
}
