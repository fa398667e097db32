#ifndef HRDM_PERFBENCH_TRACE_H_
#define HRDM_PERFBENCH_TRACE_H_

// In-memory spans for the benchmark's traced run. The harness opens a span
// around each public call it makes into a layer (Session::Open, ParseExpr,
// Plan::Lower, Plan::Drain, each StorageEngine mutator, Checkpoint, Open);
// spans of one operation share its op number and point at their parent.
// Spans are kept in memory and written once, when the run ends. Every span
// is timed, but only the first `keep_ops` operations' spans are stored, so
// a long run's dump stays small. A disabled tracer opens no spans: Open returns -1 and Close(-1) is a
// no-op, so untraced code paths need no branches of their own.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace hrdm::perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

class Tracer {
 public:
  Tracer(bool enabled, uint64_t keep_ops)
      : enabled_(enabled), keep_ops_(keep_ops), origin_(Clock::now()) {}

  /// Starts operation number `op`; later spans belong to it.
  void BeginOp(uint64_t op) { op_ = op; }

  /// Opens a span whose parent is the innermost open span (none: a root
  /// span) and returns its handle.
  int Open(const char* name) {
    if (!enabled_) return -1;
    const int64_t parent = open_.empty() ? -1 : open_.back().id;
    open_.push_back({name, next_id_++, parent, Clock::now()});
    return static_cast<int>(open_.size()) - 1;
  }

  /// Closes span `handle` (the innermost open one) and returns its
  /// duration in microseconds (0 for the disabled handle -1).
  double Close(int handle) {
    if (handle < 0) return 0;
    const Clock::time_point end = Clock::now();
    const Pending p = open_[static_cast<size_t>(handle)];
    open_.resize(static_cast<size_t>(handle));
    const double us =
        std::chrono::duration<double, std::micro>(end - p.start).count();
    ++spans_;
    if (op_ < keep_ops_) {
      kept_.push_back(
          {op_, p.name, p.id, p.parent,
           std::chrono::duration<double, std::micro>(p.start - origin_).count(),
           us});
    }
    return us;
  }

  uint64_t spans() const { return spans_; }

  /// Writes the kept spans as JSON lines; false on an I/O error.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Kept& k : kept_) {
      std::fprintf(f,
                   "{\"op\": %llu, \"span\": %lld, \"parent\": %lld, "
                   "\"name\": \"%s\", \"start_us\": %.3f, "
                   "\"dur_us\": %.3f}\n",
                   static_cast<unsigned long long>(k.op),
                   static_cast<long long>(k.id),
                   static_cast<long long>(k.parent), k.name, k.start_us,
                   k.dur_us);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Pending {
    const char* name;
    int64_t id;
    int64_t parent;  // -1: a root span
    Clock::time_point start;
  };
  struct Kept {
    uint64_t op;
    const char* name;
    int64_t id;
    int64_t parent;
    double start_us;  // since the tracer was created
    double dur_us;
  };

  bool enabled_;
  uint64_t keep_ops_;
  Clock::time_point origin_;
  uint64_t op_ = 0;
  uint64_t spans_ = 0;
  int64_t next_id_ = 0;
  std::vector<Pending> open_;
  std::vector<Kept> kept_;
};

}  // namespace hrdm::perfbench

#endif  // HRDM_PERFBENCH_TRACE_H_
