// The one harness behind every bench/bench_*.cc program: timed
// repetitions with latency percentiles, a small JSON value with an
// escaping writer, the BENCH_<name>.json write with its host record, and
// scratch directories for the storage benches.
//
// Every file records its host (hardware_concurrency, CMake build type,
// HRDM_THREADS) because a timing means nothing without it: ratios from a
// 1-core container and a debug build are not comparable with a Release
// build on N cores. HRDM_BUILD_TYPE is a compile definition set by
// CMakeLists.txt.

#ifndef HRDM_BENCH_BENCH_UTIL_H_
#define HRDM_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "query/plan.h"
#include "util/file.h"
#include "util/status.h"

#ifndef HRDM_BUILD_TYPE
#error "HRDM_BUILD_TYPE must name the CMake build type"
#endif

namespace hrdm::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Wall time of one call of `op`, in microseconds.
template <typename Op>
double TimeUs(Op&& op) {
  const auto start = Clock::now();
  op();
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Aborts the run with `status`'s message unless it is OK: a bench never
/// reports a timing for an operation that failed.
inline void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench: %s\n", status.ToString().c_str());
    std::abort();
  }
}

/// The `q`-quantile (`q` in [0, 1]) of `samples` by lower nearest rank:
/// the element at index ⌊q·(n−1)⌋ of the sorted samples, so `q = 1` is the
/// maximum. 0 when there are no samples.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const auto idx = static_cast<std::ptrdiff_t>(
      q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[static_cast<size_t>(idx)];
}

/// Throughput and latency of `reps` timed operations.
struct Timing {
  size_t reps = 0;
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;
  size_t result = 0;  // the result size every rep returned (TimeReps)
};

/// Summarizes per-operation latencies `us` measured over `seconds` of
/// wall time.
inline Timing Summarize(const std::vector<double>& us, double seconds) {
  Timing t;
  t.reps = us.size();
  t.ops_per_sec = seconds > 0 ? static_cast<double>(us.size()) / seconds : 0;
  t.p50_us = Percentile(us, 0.50);
  t.p99_us = Percentile(us, 0.99);
  t.max_us = Percentile(us, 1.0);
  return t;
}

/// Runs `op` once untimed (the warm-up: lazy set-up, memoized
/// interpolation, caches), then `reps` timed times. `op` returns its
/// result size; a rep that returns a different size than the warm-up
/// aborts the run, so a fast wrong answer never becomes a number.
template <typename Op>
Timing TimeReps(int reps, Op&& op) {
  const size_t expected = op();
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  const auto start = Clock::now();
  for (int i = 0; i < reps; ++i) {
    size_t got = 0;
    us.push_back(TimeUs([&] { got = op(); }));
    if (got != expected) {
      std::fprintf(stderr, "bench: result size changed between reps\n");
      std::abort();
    }
  }
  Timing t = Summarize(us, SecondsSince(start));
  t.result = expected;
  return t;
}

/// TimeReps over lowering and draining `expr`; `stats` receives the last
/// run's PlanStats.
inline Timing TimePlan(const query::ExprPtr& expr,
                       const query::PlanResolver& resolver,
                       const query::PlanOptions& options, int reps,
                       query::PlanStats* stats) {
  return TimeReps(reps, [&] {
    auto plan = query::Plan::Lower(expr, resolver, options);
    const size_t n = plan->Drain()->size();
    *stats = plan->stats();
    return n;
  });
}

/// A JSON value built in memory and rendered by Dump(). Numbers are
/// integers or doubles (three decimals); strings are escaped, so HRQL text
/// with quotes stays valid JSON.
class Json {
 public:
  using Member = std::pair<std::string, Json>;

  Json(const char* s) : kind_(Kind::kString), text_(s) {}  // NOLINT
  Json(std::string s) : kind_(Kind::kString), text_(std::move(s)) {}  // NOLINT
  template <typename T>
    requires std::is_arithmetic_v<T>
  Json(T v) {  // NOLINT
    if constexpr (std::is_integral_v<T>) {
      int_ = static_cast<int64_t>(v);
    } else {
      kind_ = Kind::kDouble;
      double_ = v;
    }
  }

  static Json Object(std::vector<Member> members) {
    Json j(Kind::kObject);
    for (Member& m : members) {
      j.keys_.push_back(std::move(m.first));
      j.items_.push_back(std::move(m.second));
    }
    return j;
  }
  static Json Array(std::vector<Json> items) {
    Json j(Kind::kArray);
    j.items_ = std::move(items);
    return j;
  }

  /// The throughput and latency fields of `t`, plus `extra` members.
  static Json Of(const Timing& t, std::vector<Member> extra = {}) {
    extra.insert(extra.begin(), {{"ops_per_sec", t.ops_per_sec},
                                 {"p50_us", t.p50_us},
                                 {"p99_us", t.p99_us},
                                 {"max_us", t.max_us},
                                 {"reps", t.reps}});
    return Object(std::move(extra));
  }

  /// Renders with two-space indentation; a container holding only scalars
  /// stays on one line, so each result row reads as one line.
  std::string Dump() const {
    std::string out;
    Write(&out, 0);
    return out;
  }

 private:
  enum class Kind { kInt, kDouble, kString, kArray, kObject };

  explicit Json(Kind kind) : kind_(kind) {}

  /// Appends `s` as a quoted JSON string literal.
  static void Quote(std::string* out, const std::string& s) {
    *out += '"';
    for (const char c : s) {
      switch (c) {
        case '"': *out += "\\\""; break;
        case '\\': *out += "\\\\"; break;
        case '\n': *out += "\\n"; break;
        case '\t': *out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            *out += buf;
          } else {
            *out += c;
          }
      }
    }
    *out += '"';
  }

  bool container() const {
    return kind_ == Kind::kArray || kind_ == Kind::kObject;
  }

  void Write(std::string* out, size_t indent) const {
    switch (kind_) {
      case Kind::kInt:
        *out += std::to_string(int_);
        return;
      case Kind::kDouble: {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.3f", double_);
        *out += buf;
        return;
      }
      case Kind::kString:
        Quote(out, text_);
        return;
      case Kind::kArray:
      case Kind::kObject:
        break;
    }
    const bool flat = std::none_of(items_.begin(), items_.end(),
                                   [](const Json& j) { return j.container(); });
    *out += kind_ == Kind::kObject ? '{' : '[';
    for (size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) *out += ',';
      if (flat) {
        if (i > 0) *out += ' ';
      } else {
        *out += '\n';
        out->append(indent + 2, ' ');
      }
      if (kind_ == Kind::kObject) {
        Quote(out, keys_[i]);
        *out += ": ";
      }
      items_[i].Write(out, indent + 2);
    }
    if (!flat) {
      *out += '\n';
      out->append(indent, ' ');
    }
    *out += kind_ == Kind::kObject ? '}' : ']';
  }

  Kind kind_ = Kind::kInt;
  int64_t int_ = 0;
  double double_ = 0;
  std::string text_;
  std::vector<std::string> keys_;  // kObject: one per item
  std::vector<Json> items_;
};

/// The host record every BENCH_*.json carries.
inline Json HostJson() {
  const char* threads = std::getenv("HRDM_THREADS");
  return Json::Object(
      {{"hardware_concurrency", std::thread::hardware_concurrency()},
       {"build_type", HRDM_BUILD_TYPE},
       {"hrdm_threads", threads != nullptr ? threads : ""}});
}

/// Writes `{"benchmark": name, "host": HostJson(), fields...}` to
/// BENCH_<name>.json in the working directory; exits non-zero if the file
/// cannot be written.
inline void WriteBenchJson(const std::string& name,
                           std::vector<Json::Member> fields) {
  fields.insert(fields.begin(), {{"benchmark", name}, {"host", HostJson()}});
  const std::string path = "BENCH_" + name + ".json";
  const Status written = util::AtomicWriteFile(
      path, Json::Object(std::move(fields)).Dump() + "\n", /*durable=*/false);
  if (!written.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 written.ToString().c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

/// A fresh scratch directory under $HRDM_BENCH_DIR, else $TMPDIR, else
/// /tmp.
inline std::string MakeScratchDir() {
  const char* base = std::getenv("HRDM_BENCH_DIR");
  if (base == nullptr || *base == '\0') base = std::getenv("TMPDIR");
  if (base == nullptr || *base == '\0') base = "/tmp";
  std::string tmpl = std::string(base) + "/hrdm_bench_XXXXXX";
  if (mkdtemp(tmpl.data()) == nullptr) {
    std::perror("mkdtemp");
    std::exit(1);
  }
  return tmpl;
}

/// Removes a MakeScratchDir directory and the files in it.
inline void RemoveScratchDir(const std::string& dir) {
  auto entries = util::ListDir(dir);
  if (entries.ok()) {
    for (const std::string& name : *entries) {
      (void)util::RemoveFileIfExists(dir + "/" + name);
    }
  }
  ::rmdir(dir.c_str());
}

}  // namespace hrdm::bench

#endif  // HRDM_BENCH_BENCH_UTIL_H_
