// hrdm_perfbench: the HRDM engine's end-to-end benchmark.
//
// One process runs one workload with one closed-loop client thread: each
// call waits for the previous one, and the op sequence is a pure function
// of --seed. The harness calls only public entry points:
//
//   read    session::Session::Open(engine), then Session::Run(hrql)
//           (parse -> lower -> drain);
//   commit  one storage::StorageEngine mutator under the default
//           FsyncPolicy::kAlways.
//
// Workloads (see README.md for why each exists):
//   lookup    point-key history reads over ~100k objects;
//   analytic  window reports (aggregate, fused restriction, equi-join);
//   ingest    the paper's lifecycle DML (assign, birth, death, rebirth),
//             each slice's commits followed by a read of every key they
//             wrote.
// lookup and analytic alternate slices of their reads with slices of a
// short commit tail of the same lifecycle DML, so every workload reports
// every end-to-end metric.
//
// Every run has a fixed number of operations (a per-second rate times
// --seconds), takes every latency percentile over one class of operation
// and over the whole timed phase, and checks every output outside the
// timed calls. The timed phase runs in 20 slices; engine restarts and
// repeated set-ups are spread over them (see TimedPhase).
// --trace 1 runs the sequence twice, untraced and then traced call by
// call, and reports the per-layer metrics plus the tracing overhead
// between the two.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "generator.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "session/session.h"
#include "storage/database.h"
#include "storage/storage_engine.h"
#include "trace.h"

namespace hrdm::perfbench {
namespace {

namespace fs = std::filesystem;
using session::Session;
using storage::StorageEngine;

// --- configuration -------------------------------------------------------------

enum class Workload { kLookup, kAnalytic, kIngest };

struct Config {
  Workload workload = Workload::kLookup;
  std::string workload_name;
  uint64_t seed = 1;
  int64_t seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_work";
};

/// Alternating read/commit slices per timed phase (see TimedPhase).
constexpr int64_t kRounds = 20;

/// Fixed per-run sizes. Op counts are a per-second rate times --seconds,
/// never a deadline, so two runs of one seed do identical work. The rates
/// make the timed phase last about --seconds on a 2 GHz x86 core.
struct Sizes {
  int64_t objects = 0;
  int64_t reads = 0;    // timed reads (analytic: window reports)
  int64_t commits = 0;  // timed commits (lookup/analytic: the commit tail)
  int setups = 11;      // set-ups per run, spread over it; setup_s = median
  int restarts = 20;    // engine restarts (divides kRounds); recover_s = median
  int64_t warm_ops = 0;
  int probe_reports = 0;    // traced lookup/ingest: window reports
  int64_t check_every = 1;  // analytic: oracle-check every n-th report
  int64_t refresh_every = 50;  // reader refresh period, in commits
  bool replay_check = false;   // replay the DML into a plain Database
};

Sizes SizesFor(const Config& c) {
  Sizes s;
  const int64_t sec = c.seconds;
  switch (c.workload) {
    case Workload::kLookup:
      s.objects = 100000;
      s.reads = 80000 * sec;
      s.commits = 50 * sec;
      s.setups = 2;
      s.restarts = 4;
      s.refresh_every = 25;  // one refresh per slice of the tail
      s.warm_ops = 5000;
      s.probe_reports = 4;
      break;
    case Workload::kAnalytic:
      // Above query::kParallelMinTuples, so scans run on the morsel pool.
      s.objects = 12000;
      s.reads = 12 * sec;
      s.commits = 100 * sec;
      s.warm_ops = 1;
      s.check_every = 25;
      break;
    case Workload::kIngest:
      s.objects = 20000;
      s.commits = 500 * sec;
      s.warm_ops = 50;
      s.probe_reports = 4;
      s.replay_check = true;
      break;
  }
  if (c.trace) {
    // The traced run reports per-layer metrics only, not setup_s.
    s.setups = 1;
  }
  if (c.smoke) {
    s.objects = 1500;
    s.reads = c.workload == Workload::kAnalytic ? 40 : 300;
    s.commits = 120;
    s.setups = std::min(s.setups, 2);
    s.restarts = 2;
    s.warm_ops = 3;
    s.probe_reports = std::min(s.probe_reports, 1);
    s.check_every = 3;
    s.refresh_every = 20;
  }
  return s;
}

// --- small helpers ---------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double VmHwmMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// The process's peak resident set, with the harness's own heavy work
/// (the materializing oracle, repeated set-ups) kept out: the peak is read
/// before such work, and after it the heap is trimmed and the kernel's
/// high-water mark reset to the current RSS (/proc/self/clear_refs).
class PeakRss {
 public:
  template <typename Fn>
  void Exclude(Fn&& fn) {
    Fold();
    fn();
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
  }

  double Mb() {
    Fold();
    return peak_mb_;
  }

 private:
  void Fold() { peak_mb_ = std::max(peak_mb_, VmHwmMb()); }

  double peak_mb_ = 0;
};

double DirMb(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

const storage::Catalog& CatalogOf(const StorageEngine& e) {
  return e.db().catalog();
}
const storage::Catalog& CatalogOf(const storage::Database& d) {
  return d.catalog();
}

double FileMb(const std::string& path) {
  return static_cast<double>(fs::file_size(path)) / (1024.0 * 1024.0);
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

// --- per-pass measurements -------------------------------------------------------

struct PlanTotals {
  double plans = 0, scanned = 0, returned = 0, candidates = 0, pairs = 0,
         batches = 0, batch_tuples = 0, arena_bytes = 0, parallelism = 0,
         morsels = 0;

  void Add(const query::PlanStats& s) {
    plans += 1;
    scanned += static_cast<double>(s.tuples_scanned);
    returned += static_cast<double>(s.tuples_returned);
    candidates += static_cast<double>(s.index_candidates);
    pairs += static_cast<double>(s.join_pairs_tested);
    batches += static_cast<double>(s.batches_emitted);
    batch_tuples += static_cast<double>(s.batch_tuples);
    arena_bytes += static_cast<double>(s.arena_bytes);
    parallelism += static_cast<double>(s.parallelism);
    morsels += static_cast<double>(s.morsels_dispatched);
  }
};

/// Per-layer time of one operation (traced runs only).
struct OpLayers {
  double open = 0, parse = 0, lower = 0, drain = 0;
};

struct Pass {
  std::vector<double> setup_s;
  std::vector<double> checkpoint_ms;
  double snapshot_mb = 0;
  // Timed phase. `read_us`/`commit_us` each hold a single class of call.
  std::vector<double> read_us;
  std::vector<double> commit_us;
  std::vector<double> commit_kind_us[kOpKinds];  // excluding after-pin
  std::vector<double> after_pin_us;              // first commit after a Refresh
  std::vector<double> op_us;  // the workload's main op, one per op
  double wal_bytes = 0;
  double disk_mb = 0;
  double peak_rss_mb = 0;
  std::vector<double> recover_s;
  uint64_t recover_records = 0;
  // Operation accounting.
  uint64_t attempted[kOpKinds + 1] = {};  // last slot: reads
  uint64_t failed[kOpKinds + 1] = {};
  // Traced runs.
  std::vector<double> open_us, parse_us, lower_us, drain_us;
  std::vector<double> drain_aggregate_us, drain_restrict_us, drain_join_us;
  PlanTotals plan;
  uint64_t spans = 0;
  // Correctness.
  uint64_t mismatches = 0;
  uint64_t checks = 0;
};

constexpr int kReadSlot = kOpKinds;

void Mismatch(Pass& p, const std::string& what) {
  if (p.mismatches++ < 5) std::fprintf(stderr, "perfbench: MISMATCH %s\n", what.c_str());
}

// --- the workload runner -----------------------------------------------------------

class Runner {
 public:
  /// `population` (MakePopulation) holds the loaded objects and, after
  /// them, the newborns; it must outlive the runner.
  Runner(const Config& c, bool traced, const Relation& population)
      : c_(c),
        z_(SizesFor(c)),
        traced_(traced),
        population_(population),
        tracer_(traced, /*keep_ops=*/2000),
        dir_(c.work_dir + "/engine-" + c.workload_name + "-" +
             std::to_string(::getpid()) + (traced ? "-t" : "")),
        model_(&population, z_.objects) {}

  Pass Run() {
    Clock::time_point lap = Clock::now();
    const Clock::time_point t0 = Clock::now();
    engine_.emplace(Setup(dir_, &model_, &log_));
    p_.setup_s.push_back(MicrosSince(t0) / 1e6);
    Lap("setup", &lap);
    TimedPhase();
    Lap("timed", &lap);
    if (traced_) {
      Rng rng(Mix(c_.seed, 9, 0));
      const Session s = Session::Open(*engine_);
      for (int i = 0; i < z_.probe_reports; ++i) {
        OpLayers unused;
        std::vector<Relation> out;
        if (!ReportQueries(s, DrawReport(rng), &unused, nullptr, &out)) {
          Die("probe report failed");
        }
      }
      p_.spans = tracer_.spans();
      Lap("probes", &lap);
    }
    CheckFinalState();
    Lap("checks", &lap);
    std::error_code ec;
    fs::remove_all(dir_, ec);
    return std::move(p_);
  }

  const Tracer& tracer() const { return tracer_; }

  /// The smallest population a run of `c` can draw all its newborns from.
  static int64_t PopulationSize(const Config& c) {
    const Sizes z = SizesFor(c);
    return z.objects + z.commits + z.warm_ops;
  }

 private:
  /// Prints the wall time of the phase that just ended (harness work
  /// included), for sizing runs.
  void Lap(const char* phase, Clock::time_point* lap) const {
    std::printf("phase %-8s %s %8.2f s\n", phase, traced_ ? "traced" : "plain ",
                MicrosSince(*lap) / 1e6);
    *lap = Clock::now();
  }

  // --- setup ---------------------------------------------------------------------

  /// One set-up, the work setup_s times: load (bulk inserts under kOff, the
  /// WAL's fastest policy), index DDL, checkpoint, reopen with the default
  /// options (kAlways) and warm up. Builds the engine in `dir` anew; the
  /// warm-up's DML is drawn from `model` and appended to `log`.
  StorageEngine Setup(const std::string& dir, LifespanModel* model,
                      std::vector<DmlOp>* log) {
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    {
      StorageEngine::Options bulk;
      bulk.fsync = storage::FsyncPolicy::kOff;
      StorageEngine e = Must(StorageEngine::Open(dir, bulk), "open for load");
      Load(e, c_.seed, population_, z_.objects);
      const Clock::time_point ck = Clock::now();
      const int h = tracer_.Open("storage.checkpoint");
      Must(e.Checkpoint(), "checkpoint");
      tracer_.Close(h);
      p_.checkpoint_ms.push_back(MicrosSince(ck) / 1000.0);
      p_.snapshot_mb = FileMb(e.snapshot_path());
    }
    const int h = tracer_.Open("storage.open");
    StorageEngine engine = Must(StorageEngine::Open(dir), "reopen");
    tracer_.Close(h);
    WarmUp(engine, model, log);
    return engine;
  }

  /// A repeat of the set-up in a directory of its own, for another setup_s
  /// sample; its engine, model and log are thrown away.
  void RepeatSetup() {
    const std::string dir = dir_ + "-setup";
    rss_.Exclude([&] {
      LifespanModel model(&population_, z_.objects);
      std::vector<DmlOp> log;
      const Clock::time_point t0 = Clock::now();
      std::optional<StorageEngine> engine(Setup(dir, &model, &log));
      p_.setup_s.push_back(MicrosSince(t0) / 1e6);
      engine.reset();
      std::error_code ec;
      fs::remove_all(dir, ec);
    });
  }

  template <typename Db>
  static void Load(Db& db, uint64_t seed, const Relation& population,
                   int64_t objects) {
    const SchemePtr& emp = population.scheme();
    Must(db.CreateRelation("emp", emp->attributes(), emp->key()), "create emp");
    Must(db.CreateRelation("dept", DeptAttributes(), {"DName"}), "create dept");
    const SchemePtr dept = Must(CatalogOf(db).Get("dept"), "dept scheme");
    for (int64_t i = 0; i < objects; ++i) {
      Must(db.Insert("emp", population.tuple(static_cast<size_t>(i))),
           "insert emp");
    }
    for (int64_t d = 0; d < kDepts; ++d) {
      Must(db.Insert("dept", Must(BuildDept(dept, seed, d), "build dept")),
           "insert dept");
    }
    Must(db.CreateLifespanIndex("emp"), "lifespan index");
    Must(db.CreateValueIndex("emp", "Name"), "value index");
  }

  void WarmUp(StorageEngine& engine, LifespanModel* model,
              std::vector<DmlOp>* log) {
    Rng rng(Mix(c_.seed, 7, 0));
    switch (c_.workload) {
      case Workload::kLookup:
      case Workload::kAnalytic: {
        // Fill every tuple's materialization memo: the read workloads
        // measure warm tuples.
        Must(Session::Open(engine).Run("aggregate(emp, count)"), "warm scan");
        for (int64_t i = 0; i < z_.warm_ops; ++i) {
          const Session s = Session::Open(engine);
          if (c_.workload == Workload::kLookup) {
            Must(s.Run(HistoryQuery(static_cast<int64_t>(rng.Index(
                     static_cast<size_t>(z_.objects))))),
                 "warm read");
          } else {
            // A fixed mid-size window: a drawn one would make the set-up's
            // cost depend on the seed (reports vary 2-3x with the window).
            const WindowReport r = MakeReport(kHorizon / 2 - 50,
                                              kHorizon / 2 + 45, 130000);
            Must(s.Run(r.aggregate), "warm report");
            Must(s.Run(r.restrict), "warm report");
            Must(s.Run(r.join), "warm report");
          }
        }
        break;
      }
      case Workload::kIngest: {
        for (int64_t i = 0; i < z_.warm_ops; ++i) {
          log->push_back(model->Draw(rng));
          Must(ApplyOp(engine, population_, log->back()), "warm commit");
          Must(Session::Open(engine).Run(HistoryQuery(log->back().index)),
               "warm read");
        }
        break;
      }
    }
  }

  // --- the timed phase -----------------------------------------------------------

  /// Reads and commits in `kRounds` alternating slices, so each class is
  /// sampled across the whole phase rather than in one stretch of it: on a
  /// shared host the CPU's speed drifts over seconds, and a short stretch
  /// inherits whatever speed it fell in. (In ingest, each slice's reads
  /// read back the keys its commits wrote.) The long-lived reader session `reader`
  /// refreshes every `refresh_every` commits (and is dropped across a
  /// restart, then reopened at the next refresh point). For the same
  /// reason the engine restarts `restarts` times at even intervals, the
  /// last time at the end, and the set-up is repeated `setups - 1` times
  /// at even intervals, so the recovery and set-up samples are spread over
  /// the phase too.
  void TimedPhase() {
    Rng read_rng(Mix(c_.seed, 3, 0));
    Rng commit_rng(Mix(c_.seed, 5, 0));
    uint64_t wal_start = fs::file_size(engine_->wal_path());
    double wal_bytes = 0;
    std::optional<Session> reader;
    int64_t reads = 0, commits = 0;
    for (int64_t round = 1; round <= kRounds; ++round) {
      for (; reads < z_.reads * round / kRounds; ++reads) {
        tracer_.BeginOp(static_cast<uint64_t>(reads));
        if (c_.workload == Workload::kLookup) {
          LookupOp(read_rng);
        } else {
          ReportOp(read_rng, reads % z_.check_every == 0);
        }
      }
      const size_t slice_log = log_.size();
      for (; commits < z_.commits * round / kRounds; ++commits) {
        tracer_.BeginOp(static_cast<uint64_t>(z_.reads + commits));
        CommitOp(commit_rng, reader, commits % z_.refresh_every == 0);
      }
      if (c_.workload == Workload::kIngest) ReadBack(slice_log);
      const bool last = round == kRounds;
      if (round * z_.restarts % kRounds == 0) {
        // Each restart but the last checkpoints, which starts a new WAL.
        wal_bytes += static_cast<double>(fs::file_size(engine_->wal_path()) -
                                         wal_start);
        if (last) {
          p_.wal_bytes = p_.commit_us.empty()
                             ? 0
                             : wal_bytes / static_cast<double>(p_.commit_us.size());
          p_.peak_rss_mb = rss_.Mb();
          p_.disk_mb = DirMb(dir_);
          live_ = engine_->db().ToString();
        }
        reader.reset();  // reopened at the next refresh point
        Restart(last);
        wal_start = fs::file_size(engine_->wal_path());
      }
      if (z_.setups > 1 && round * (z_.setups - 1) % kRounds == 0) {
        RepeatSetup();
      }
    }
  }

  /// Closes the engine and reopens its directory: one recover_s sample
  /// (snapshot decode, WAL replay, index rebuild). Unless this is the last
  /// restart, a checkpoint follows, so every restart replays the WAL of an
  /// equal share of the run. Reopening leaves every tuple's memo cold, so
  /// lookup and analytic warm them again, untimed.
  void Restart(bool last) {
    engine_.reset();
    const Clock::time_point t0 = Clock::now();
    const int h = tracer_.Open("storage.open");
    engine_.emplace(Must(StorageEngine::Open(dir_), "recover"));
    tracer_.Close(h);
    p_.recover_s.push_back(MicrosSince(t0) / 1e6);
    p_.recover_records = engine_->wal_records();
    if (last) return;
    const int ck = tracer_.Open("storage.checkpoint");
    Must(engine_->Checkpoint(), "checkpoint");
    tracer_.Close(ck);
    if (c_.workload != Workload::kIngest) {
      Must(Session::Open(*engine_).Run("aggregate(emp, count)"), "rewarm");
    }
  }

  // --- reads -------------------------------------------------------------------

  /// One query through the session: Run() untraced, or the same parse ->
  /// lower -> drain path call by call under spans. Plan counters go to
  /// `plan` (null: not counted, as for the probe reports).
  Result<Relation> Query(const Session& s, const std::string& hrql,
                         OpLayers* layers, PlanTotals* plan,
                         double* drain_us = nullptr) {
    if (!traced_) return s.Run(hrql);
    int h = tracer_.Open("query.parse");
    Result<query::ExprPtr> expr = query::ParseExpr(hrql);
    layers->parse += tracer_.Close(h);
    if (!expr.ok()) return expr.status();
    h = tracer_.Open("query.lower");
    Result<query::Plan> lowered = query::Plan::Lower(
        *expr, query::VersionResolver(s.version()), s.MakePlanOptions());
    layers->lower += tracer_.Close(h);
    if (!lowered.ok()) return lowered.status();
    h = tracer_.Open("query.drain");
    Result<Relation> out = lowered->Drain();
    const double d = tracer_.Close(h);
    layers->drain += d;
    if (drain_us != nullptr) *drain_us = d;
    if (plan != nullptr) plan->Add(lowered->stats());
    return out;
  }

  /// Opens a session, under a span when traced.
  Session OpenSession(OpLayers* layers) {
    const int h = tracer_.Open("session.open");
    Session s = Session::Open(*engine_);
    layers->open += tracer_.Close(h);
    return s;
  }

  /// Records one successful read of the read class.
  void RecordRead(double us, const OpLayers& l) {
    p_.read_us.push_back(us);
    if (!traced_) return;
    p_.open_us.push_back(l.open);
    p_.parse_us.push_back(l.parse);
    p_.lower_us.push_back(l.lower);
    p_.drain_us.push_back(l.drain);
  }

  /// A timed point-key history read; on success `*us` is its latency.
  Result<Relation> HistoryRead(int64_t index, double* us) {
    const std::string q = HistoryQuery(index);
    OpLayers layers;
    const Clock::time_point t0 = Clock::now();
    const int h = tracer_.Open("read");
    Result<Relation> r = [&] {
      const Session s = OpenSession(&layers);
      return Query(s, q, &layers, &p_.plan);
    }();
    tracer_.Close(h);
    *us = MicrosSince(t0);
    ++p_.attempted[kReadSlot];
    if (!r.ok()) {
      ++p_.failed[kReadSlot];
      return r;
    }
    RecordRead(*us, layers);
    return r;
  }

  /// lookup: one history read of a random object, checked against the
  /// population's object materialized, or, once a commit has changed the
  /// object, against the model's lifespan.
  void LookupOp(Rng& rng) {
    const int64_t index =
        static_cast<int64_t>(rng.Index(static_cast<size_t>(z_.objects)));
    double us = 0;
    Result<Relation> r = HistoryRead(index, &us);
    if (!r.ok()) return;
    p_.op_us.push_back(us);
    ++p_.checks;
    if (changed_.count(index) != 0) {
      if (r->size() != 1 ||
          r->tuple_ptrs().front()->lifespan() != model_.Of(index)) {
        Mismatch(p_, "lookup " + KeyOf(index) + ": lifespan differs from "
                     "the model " + model_.Of(index).ToString());
      }
      return;
    }
    const Tuple expected =
        Must(population_.tuple(static_cast<size_t>(index)).Materialized(),
             "materialize expected");
    if (r->size() != 1 || !(*r->tuple_ptrs().front() == expected)) {
      Mismatch(p_, "lookup " + KeyOf(index) + ": got " + r->ToString() +
                       " want " + expected.ToString());
    }
  }

  /// Runs the three queries of `rep` on `s` into `out`; false if one fails.
  /// Traced runs record the drain time of each query kind.
  bool ReportQueries(const Session& s, const WindowReport& rep,
                     OpLayers* layers, PlanTotals* plan,
                     std::vector<Relation>* out) {
    const std::string* qs[3] = {&rep.aggregate, &rep.restrict, &rep.join};
    double drain[3] = {0, 0, 0};
    for (int k = 0; k < 3; ++k) {
      Result<Relation> r = Query(s, *qs[k], layers, plan, &drain[k]);
      if (!r.ok()) return false;
      out->push_back(*std::move(r));
    }
    if (traced_) {
      p_.drain_aggregate_us.push_back(drain[0]);
      p_.drain_restrict_us.push_back(drain[1]);
      p_.drain_join_us.push_back(drain[2]);
    }
    return true;
  }

  /// analytic: one timed window report on its own session; with `check`,
  /// each query is compared with the materializing interpreter on the same
  /// version.
  void ReportOp(Rng& rng, bool check) {
    const WindowReport rep = DrawReport(rng);
    const Session pin = Session::Open(*engine_);  // the oracle's version
    OpLayers layers;
    std::vector<Relation> got;
    const Clock::time_point t0 = Clock::now();
    const int h = tracer_.Open("report");
    const bool ok = [&] {
      const Session s = OpenSession(&layers);
      return ReportQueries(s, rep, &layers, &p_.plan, &got);
    }();
    tracer_.Close(h);
    const double us = MicrosSince(t0);
    ++p_.attempted[kReadSlot];
    if (!ok) {
      ++p_.failed[kReadSlot];
      return;
    }
    RecordRead(us, layers);
    p_.op_us.push_back(us);
    if (!check) return;
    // The oracle's materialized intermediates stay out of peak_rss_mb.
    rss_.Exclude([&] {
      const std::string* qs[3] = {&rep.aggregate, &rep.restrict, &rep.join};
      for (int k = 0; k < 3; ++k) {
        ++p_.checks;
        const Relation want = Must(
            query::EvalMaterializing(Must(query::ParseExpr(*qs[k]), "parse"),
                                     query::VersionResolver(pin.version())),
            "oracle");
        if (got[static_cast<size_t>(k)].ToString() != want.ToString()) {
          Mismatch(p_, "report query " + *qs[k]);
        }
      }
    });
  }

  // --- commits -------------------------------------------------------------------

  /// One lifecycle commit drawn from the lifespan model. `after_pin`: the
  /// reader session refreshes first, so this commit copies the shared
  /// relation root and its indexes. In ingest the check waits for the
  /// timed read of ReadBack; otherwise it reads the engine now.
  void CommitOp(Rng& rng,
                std::optional<Session>& reader, bool after_pin) {
    if (after_pin) {
      if (reader) {
        reader->Refresh(*engine_);
      } else {
        reader.emplace(Session::Open(*engine_));
      }
    }
    DmlOp op = model_.Draw(rng);
    const int kind = static_cast<int>(op.kind);
    const Clock::time_point t0 = Clock::now();
    const int h = tracer_.Open(CommitSpanName(op.kind));
    const Status st = ApplyOp(*engine_, population_, op);
    tracer_.Close(h);
    const double us = MicrosSince(t0);
    ++p_.attempted[kind];
    if (!st.ok()) {
      ++p_.failed[kind];
      std::fprintf(stderr, "perfbench: %s failed: %s\n", OpKindName(op.kind),
                   st.ToString().c_str());
      return;
    }
    p_.commit_us.push_back(us);
    p_.op_us.push_back(us);
    (after_pin ? p_.after_pin_us : p_.commit_kind_us[kind]).push_back(us);
    if (c_.workload != Workload::kIngest) CheckWrite(op, nullptr, true);
    changed_.insert(op.index);
    log_.push_back(std::move(op));
  }

  /// ingest: a timed history read of the key each commit in log_[from..]
  /// wrote, checked against the model. The reads follow the slice's
  /// commits rather than each commit, so a read does not start on a core
  /// that just sat idle through the commit's fsync. An Assign's value is
  /// checked only if no later commit of the slice wrote the same object.
  void ReadBack(size_t from) {
    std::unordered_map<int64_t, size_t> last;  // object -> its last commit
    for (size_t i = from; i < log_.size(); ++i) last[log_[i].index] = i;
    for (size_t i = from; i < log_.size(); ++i) {
      const DmlOp& op = log_[i];
      tracer_.BeginOp(static_cast<uint64_t>(z_.commits) + i);
      double us = 0;
      Result<Relation> r = HistoryRead(op.index, &us);
      if (r.ok()) p_.op_us.push_back(us);
      CheckWrite(op, r.ok() ? &*r : nullptr, last[op.index] == i);
    }
  }

  static const char* CommitSpanName(OpKind k) {
    switch (k) {
      case OpKind::kAssign:
        return "storage.assign";
      case OpKind::kInsert:
        return "storage.insert";
      case OpKind::kEndLifespan:
        return "storage.end_lifespan";
      case OpKind::kReincarnate:
        return "storage.reincarnate";
    }
    return "storage.commit";
  }

  /// The written object must carry the model's lifespan, and an Assign's
  /// value must be visible at the first chronon it covers. `read` is the
  /// timed read's result, or null to look the tuple up in the engine.
  void CheckWrite(const DmlOp& op, const Relation* read, bool check_value) {
    ++p_.checks;
    const Tuple* t = nullptr;
    std::optional<Tuple> stored;
    if (read != nullptr) {
      if (read->size() == 1) t = read->tuple_ptrs().front().get();
    } else {
      const Relation* rel = Must(engine_->db().Get("emp"), "emp");
      if (auto idx = rel->FindByKey({Value::String(KeyOf(op.index))})) {
        stored = Must(rel->tuple(*idx).Materialized(), "materialize");
        t = &*stored;
      }
    }
    if (t == nullptr || t->lifespan() != model_.Of(op.index)) {
      Mismatch(p_, std::string(OpKindName(op.kind)) + " " + KeyOf(op.index) +
                       ": lifespan differs from the model " +
                       model_.Of(op.index).ToString());
      return;
    }
    if (op.kind == OpKind::kAssign && check_value) {
      const size_t ai = op.attr == "Salary" ? 1 : 2;
      if (t->ValueAt(ai, op.span.Min()) != op.value) {
        Mismatch(p_, "assign " + KeyOf(op.index) + "." + op.attr +
                         " not visible at " + std::to_string(op.span.Min()));
      }
    }
  }

  // --- final checks --------------------------------------------------------------

  /// The recovered engine must render exactly like the live one did before
  /// the last restart; for ingest, so must a replay of the same load and
  /// DML into a plain storage::Database.
  void CheckFinalState() {
    ++p_.checks;
    if (engine_->db().ToString() != live_) {
      Mismatch(p_, "recovered state differs from live");
    }
    if (!z_.replay_check) return;
    storage::Database replay;
    Load(replay, c_.seed, population_, z_.objects);
    for (const DmlOp& op : log_) {
      Must(ApplyOp(replay, population_, op), "replay");
    }
    ++p_.checks;
    if (replay.ToString() != live_) {
      Mismatch(p_, "replayed state differs from live");
    }
  }

  const Config& c_;
  const Sizes z_;
  const bool traced_;
  const Relation& population_;
  Tracer tracer_;
  const std::string dir_;
  std::optional<StorageEngine> engine_;
  LifespanModel model_;
  std::vector<DmlOp> log_;  // every committed DML op, in order
  PeakRss rss_;
  std::unordered_set<int64_t> changed_;  // objects a commit has written
  std::string live_;  // Database::ToString() before the last restart
  Pass p_;
};

// --- reporting -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEnd(const Pass& p) {
  const double reads = static_cast<double>(p.read_us.size());
  const double commits = static_cast<double>(p.commit_us.size());
  return {
      {"setup_s", Median(p.setup_s), "s"},
      {"read_p50_us", Percentile(p.read_us, 0.50), "us"},
      {"read_p95_us", Percentile(p.read_us, 0.95), "us"},
      {"reads_per_s", reads / (Sum(p.read_us) / 1e6), "1/s"},
      {"commit_p50_us", Percentile(p.commit_us, 0.50), "us"},
      {"commit_p99_us", Percentile(p.commit_us, 0.99), "us"},
      {"commits_per_s", commits / (Sum(p.commit_us) / 1e6), "1/s"},
      {"recover_s", Median(p.recover_s), "s"},
      {"disk_mb", p.disk_mb, "MB"},
      {"peak_rss_mb", p.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(const Pass& traced, const Pass& plain) {
  const PlanTotals& t = traced.plan;
  const double rows = std::max(1.0, t.returned);
  const double plans = std::max(1.0, t.plans);
  const double overhead =
      100.0 * (Sum(traced.op_us) / std::max(1e-9, Sum(plain.op_us)) - 1.0);
  return {
      {"session.open_us", Median(traced.open_us), "us"},
      {"query.parse_us", Median(traced.parse_us), "us"},
      {"query.lower_us", Median(traced.lower_us), "us"},
      {"query.drain_us", Median(traced.drain_us), "us"},
      {"query.drain_us.aggregate", Median(traced.drain_aggregate_us), "us"},
      {"query.drain_us.restrict", Median(traced.drain_restrict_us), "us"},
      {"query.drain_us.join", Median(traced.drain_join_us), "us"},
      {"plan.rows_examined_per_row", t.scanned / rows, "ratio"},
      {"plan.index_candidates_per_row", t.candidates / rows, "ratio"},
      {"plan.join_pairs_tested", t.pairs / plans, "count"},
      {"plan.batch_fill_avg", t.batch_tuples / std::max(1.0, t.batches), "count"},
      {"plan.arena_kb", t.arena_bytes / plans / 1024.0, "KiB"},
      {"plan.parallelism", t.parallelism / plans, "count"},
      {"plan.morsels_dispatched", t.morsels / plans, "count"},
      {"storage.commit_us.assign",
       Median(traced.commit_kind_us[static_cast<int>(OpKind::kAssign)]), "us"},
      {"storage.commit_us.insert",
       Median(traced.commit_kind_us[static_cast<int>(OpKind::kInsert)]), "us"},
      {"storage.commit_us.end_lifespan",
       Median(traced.commit_kind_us[static_cast<int>(OpKind::kEndLifespan)]),
       "us"},
      {"storage.commit_us.reincarnate",
       Median(traced.commit_kind_us[static_cast<int>(OpKind::kReincarnate)]),
       "us"},
      {"storage.commit_us.after_pin", Median(traced.after_pin_us), "us"},
      {"storage.wal_bytes_per_commit", traced.wal_bytes, "B"},
      {"storage.checkpoint_ms", Median(traced.checkpoint_ms), "ms"},
      {"storage.snapshot_mb", traced.snapshot_mb, "MB"},
      {"storage.recover_records", static_cast<double>(traced.recover_records),
       "count"},
      {"trace.overhead_pct", overhead, "%"},
      {"trace.spans", static_cast<double>(traced.spans), "count"},
  };
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: hrdm_perfbench --workload lookup|analytic|ingest "
               "--seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Config c;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      c.smoke = true;
    } else if (a == "--workload" && has_value) {
      c.workload_name = argv[++i];
      have_workload = true;
      if (c.workload_name == "lookup") {
        c.workload = Workload::kLookup;
      } else if (c.workload_name == "analytic") {
        c.workload = Workload::kAnalytic;
      } else if (c.workload_name == "ingest") {
        c.workload = Workload::kIngest;
      } else {
        return Usage();
      }
    } else if (a == "--seed" && has_value) {
      c.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      c.seconds = std::max<int64_t>(1, std::strtoll(argv[++i], nullptr, 10));
    } else if (a == "--trace" && has_value) {
      c.trace = std::string(argv[++i]) == "1";
    } else if (a == "--work-dir" && has_value) {
      c.work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();
  fs::create_directories(c.work_dir);

  const Relation population = Must(
      MakePopulation(c.seed, Runner::PopulationSize(c)), "population");
  Pass plain = Runner(c, false, population).Run();
  std::optional<Pass> traced;
  if (c.trace) {
    Runner runner(c, true, population);
    traced = runner.Run();
    const std::string path = c.work_dir + "/trace-" + c.workload_name +
                             "-seed" + std::to_string(c.seed) + ".jsonl";
    if (!runner.tracer().Write(path)) Die("cannot write " + path);
    std::printf("spans: %s\n", path.c_str());
  }
  // A traced run's operations and checks are those of both passes.
  std::vector<const Pass*> passes = {&plain};
  if (traced) passes.push_back(&*traced);
  uint64_t attempted = 0, failed = 0, checks = 0, mismatches = 0;
  for (int k = 0; k <= kOpKinds; ++k) {
    uint64_t a = 0, f = 0;
    for (const Pass* p : passes) {
      a += p->attempted[k];
      f += p->failed[k];
    }
    attempted += a;
    failed += f;
    std::printf("ops %-13s attempted %8llu failed %llu\n",
                k == kReadSlot ? "read" : OpKindName(static_cast<OpKind>(k)),
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(f));
  }
  for (const Pass* p : passes) {
    checks += p->checks;
    mismatches += p->mismatches;
  }
  const bool correct = mismatches == 0;
  std::printf("checks %llu mismatches %llu failed_frac %.6g\n",
              static_cast<unsigned long long>(checks),
              static_cast<unsigned long long>(mismatches),
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted));
  auto print_samples = [](const char* name, const std::vector<double>& v) {
    std::printf("samples %-10s", name);
    for (double x : v) std::printf(" %.4f", x);
    std::printf("\n");
  };
  print_samples("setup_s", plain.setup_s);
  print_samples("recover_s", plain.recover_s);
  const std::vector<Metric> metrics =
      traced ? PerLayer(*traced, plain) : EndToEnd(plain);
  for (const Metric& m : metrics) {
    std::printf("%-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::string json = Json(correct, attempted, failed, metrics);
  std::ofstream(c.work_dir + "/result-" + c.workload_name + "-seed" +
                std::to_string(c.seed) + (c.trace ? "-trace" : "") + ".json")
      << json << "\n";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hrdm::perfbench

int main(int argc, char** argv) { return hrdm::perfbench::Main(argc, argv); }
