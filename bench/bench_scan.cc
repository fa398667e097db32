// Access-path benchmark (entry-point restrictions, Sections 4.3–4.4).
//
// Shape to check: on selective point queries (SELECT-IF / SELECT-WHEN with
// an equality criterion) and narrow TIME-SLICE windows over a 100k-tuple
// relation, the storage indexes (storage/index.h) must beat the full
// ScanCursor by ≥5× — the index probe hands the plan a small candidate set
// and only those tuples are interpolated and tested, while the full scan
// pays O(|r|) materializations per query. The differential fuzz suite
// asserts both paths return identical relations; here we measure the gap.
//
// Like bench_executor/bench_join this is a self-contained harness (no
// google-benchmark): it emits machine-readable BENCH_scan.json in the same
// shape (per-path ops/sec, result tuples, tuples scanned, index
// candidates) so later PRs can track the perf trajectory.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "storage/database.h"
#include "util/random.h"

namespace hrdm {
namespace {

using Clock = std::chrono::steady_clock;

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
  double ops_per_sec = 0;
  size_t result_tuples = 0;
  size_t tuples_scanned = 0;
  size_t index_candidates = 0;
  std::string path;  // what PlanStats says actually ran
};

/// Runs `hrql` `iterations` times; `force` pins the access path (nullopt =
/// let ChooseAccessPath decide, the production configuration).
PathResult RunPath(const storage::Database& db, const std::string& hrql,
                   std::optional<query::AccessPath> force, int iterations) {
  PathResult out;
  auto expr = query::ParseExpr(hrql);
  if (!expr.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 expr.status().ToString().c_str());
    return out;
  }
  const auto pin = db.CurrentVersion();
  const query::PlanResolver resolver = query::VersionResolver(*pin);
  query::PlanOptions options = query::VersionPlanOptions(*pin);
  options.force_access_path = force;
  {
    // Warm-up + stats from one instrumented run.
    auto plan = query::Plan::Lower(*expr, resolver, options);
    if (!plan.ok()) {
      std::fprintf(stderr, "lowering failed: %s\n",
                   plan.status().ToString().c_str());
      return out;
    }
    auto warm = plan->Drain();
    if (!warm.ok()) {
      std::fprintf(stderr, "eval failed: %s\n",
                   warm.status().ToString().c_str());
      return out;
    }
    out.result_tuples = warm->size();
    out.tuples_scanned = plan->stats().tuples_scanned;
    out.index_candidates = plan->stats().index_candidates;
    const auto& stats = plan->stats();
    out.path = stats.scans_value_index > 0      ? "value_index"
               : stats.scans_lifespan_index > 0 ? "lifespan_index"
                                                : "full_scan";
  }
  const auto start = Clock::now();
  for (int i = 0; i < iterations; ++i) {
    auto plan = query::Plan::Lower(*expr, resolver, options);
    auto r = plan->Drain();
    if (!r.ok() || r->size() != out.result_tuples) std::abort();
  }
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  out.ops_per_sec = iterations / elapsed.count();
  return out;
}

struct Workload {
  std::string name;
  std::string hrql;
  int scan_iterations;   // the O(|r|) baseline gets fewer
  int index_iterations;
  PathResult scan;
  PathResult indexed;
  double speedup = 0;
};

void AppendPathJson(std::string* json, const char* key, const PathResult& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"ops_per_sec\": %.2f, \"result_tuples\": "
                "%zu, \"tuples_scanned\": %zu, \"index_candidates\": %zu, "
                "\"path\": \"%s\"}",
                key, p.ops_per_sec, p.result_tuples, p.tuples_scanned,
                p.index_candidates, p.path.c_str());
  *json += buf;
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

  std::vector<Workload> workloads = {
      // Selective point queries → value index.
      {"select_if_point_100k", "select_if(r, V = 123, exists)", 3, 500,
       {}, {}, 0},
      {"select_when_point_100k", "select_when(r, V = 123)", 3, 500,
       {}, {}, 0},
      // Narrow slice window → lifespan interval index.
      {"timeslice_narrow_100k", slice, 3, 200, {}, {}, 0},
      // Windowed existential SELECT-IF: value index preferred, lifespan
      // eligible — the chooser takes the equality probe.
      {"select_if_windowed_100k", windowed, 3, 500, {}, {}, 0},
  };

  auto db = MakeScanDb(/*seed=*/1);

  std::string json = "{\n  \"benchmark\": \"scan\",\n  \"tuples\": 100000,\n"
                     "  \"workloads\": [\n";
  bool first = true;
  for (Workload& w : workloads) {
    w.scan = RunPath(db, w.hrql, AccessPath::kFullScan, w.scan_iterations);
    w.indexed = RunPath(db, w.hrql, std::nullopt, w.index_iterations);
    w.speedup = w.scan.ops_per_sec > 0
                    ? w.indexed.ops_per_sec / w.scan.ops_per_sec
                    : 0;

    std::printf(
        "%-26s | full scan %8.2f ops/s (%6zu scanned) | %-14s %9.2f ops/s "
        "(%5zu candidates) | %.1fx\n",
        w.name.c_str(), w.scan.ops_per_sec, w.scan.tuples_scanned,
        w.indexed.path.c_str(), w.indexed.ops_per_sec,
        w.indexed.index_candidates, w.speedup);

    if (!first) json += ",\n";
    first = false;
    json += "    {\n      \"name\": \"" + w.name + "\",\n";
    json += "      \"hrql\": \"" + w.hrql + "\",\n";
    AppendPathJson(&json, "full_scan", w.scan);
    json += ",\n";
    AppendPathJson(&json, "optimized", w.indexed);
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\n      \"speedup\": %.3f\n    }",
                  w.speedup);
    json += buf;
  }
  json += "\n  ]\n}\n";

  std::FILE* f = std::fopen("BENCH_scan.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_scan.json\n");
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote BENCH_scan.json\n");
  return 0;
}
