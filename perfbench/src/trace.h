// Spans and sample statistics for the benchmark.
//
// A span is one timed call into a layer of the library, recorded from
// the benchmark's own code: name ("<layer>.<call>"), start and end on
// the steady clock, the span that caused it, and the request it served.
// Spans stay in memory for the whole run and are written out once at
// exit; the per-layer metrics of a traced run are derived from them.
// A disabled Tracer records nothing, so untraced runs pay one branch
// per call site.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (a process-wide origin).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

struct Span {
  std::string name;  // "<layer>.<call>"
  int64_t id = 0;
  int64_t parent = 0;    // 0 = root
  int64_t request = -1;  // request id, -1 = none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh span id (for a parent whose children end first); 0 when
  /// disabled.
  int64_t NewId() { return enabled_ ? next_id_.fetch_add(1) : 0; }

  /// Records a finished span under `id` (NewId() when 0). Returns the
  /// id, or 0 when disabled.
  int64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
              int64_t parent = 0, int64_t request = -1, int64_t id = 0);

  /// Durations (ms) of every span called `name`, in record order.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Self time per layer (ms): each span's duration minus the part of
  /// its interval its child spans cover, summed by the name's layer
  /// prefix.
  std::map<std::string, double> SelfMsByLayer() const;

  size_t size() const;

  /// Writes every span as one JSON object per line. False on I/O error.
  bool Write(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Times one call: records `name` from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent = 0,
             int64_t request = -1)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        request_(request),
        id_(tracer->NewId()),
        start_ns_(tracer->enabled() ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (tracer_->enabled()) {
      tracer_->Add(name_, start_ns_, NowNs(), parent_, request_, id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t parent_;
  int64_t request_;
  int64_t id_;
  int64_t start_ns_;
};

/// Nearest-rank percentile (p in [0,1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
