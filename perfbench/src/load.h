// Open-loop query load against a fairmatch Server.
//
// Requests arrive on a Poisson schedule drawn from the plan's seed and
// are submitted when due, whether or not earlier ones finished (that
// wait is the measured queueing). Each request is timed from its
// scheduled send time, so a generator that falls behind charges its
// lag to the requests it delayed; the lag itself is reported too.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fairmatch/serve/server.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct LoadPlan {
  std::vector<std::string> datasets;
  std::vector<RequestKind> mix;
  double rate = 0.0;  // req/s
  int count = 0;
  uint64_t seed = 0;
};

/// What one request saw.
struct RequestRecord {
  int dataset = 0;  // index into LoadPlan::datasets
  int kind = 0;     // index into LoadPlan::mix
  /// The live epoch just before and just after Submit(): the request
  /// ran on one of the epochs in [epoch_lo, epoch_hi].
  int64_t epoch_lo = 0;
  int64_t epoch_hi = 0;
  bool status_ok = false;
  uint64_t digest = 0;
  int64_t due_ns = 0;       // scheduled send time (steady clock)
  double lag_ms = 0.0;      // submit time minus scheduled time
  double submit_us = 0.0;   // Submit() call
  double latency_ms = 0.0;  // scheduled send -> response
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  int64_t io_accesses = 0;
};

struct LoadRun {
  std::vector<RequestRecord> records;
  /// First to last submission (s).
  double span_s = 0.0;
};

/// Drives `plan` against `server` and waits for every response.
LoadRun RunOpenLoop(fairmatch::serve::Server* server, const LoadPlan& plan,
                    Tracer* tracer);

/// True when a record's response is the right one (status OK and the
/// digest of the epoch it ran on).
using Verifier = std::function<bool(const RequestRecord&)>;

int64_t CountFailed(const LoadRun& run, const Verifier& verify);

std::vector<double> Latencies(const LoadRun& run);

/// The typical Submit->Response latency of a mixed stream: the mean,
/// over the (dataset, request kind) pairs the records cover, of each
/// pair's median latency. A median of the pooled samples would sit
/// between the modes of the kinds' service times (SB and SB-Packed
/// differ about 2x), where it swings with the exact mix a seed draws.
double MeanCellMedianMs(const std::vector<RequestRecord>& records);

/// How long a burst took to serve (s): `run` submitted its whole plan
/// at once (a plan with a very high rate), so this is the time from the
/// first due time to the last response.
double BurstSeconds(const LoadRun& run);

/// A plan's rate for a burst: every request due within microseconds.
constexpr double kBurstRps = 1e7;

/// The highest rung of a fixed rate ladder (nominal * 1.025^k,
/// k = -28..84) at which a probe meets p99 <= slo_ms with zero failures
/// and no growing backlog, found by bisection one probe at a time (so
/// the probes can be spread over a run). Seven steps settle it.
class SloSearch {
 public:
  SloSearch(double slo_ms, double probe_seconds)
      : slo_ms_(slo_ms), probe_seconds_(probe_seconds) {}

  bool done() const { return hi_ - lo_ <= 1; }

  /// Probes the middle rung of the open interval around `nominal`'s
  /// rate; every probed request counts in *attempted / *failed.
  void Step(fairmatch::serve::Server* server, const LoadPlan& nominal,
            const Verifier& verify, int64_t* attempted, int64_t* failed);

  /// The highest rung known to pass (below the ladder if none did).
  double rate(double nominal_rps) const;

 private:
  static constexpr int kLowest = -28;  // 0.50x nominal
  static constexpr int kHighest = 84;  // 7.95x nominal

  double slo_ms_;
  double probe_seconds_;
  // Every rung <= lo_ passed, every rung >= hi_ failed.
  int lo_ = kLowest - 1;
  int hi_ = kHighest + 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
