// Recoverable, typed error propagation: the library's one status type.
// Storage faults, engine runs, durable updates (update/, recover/),
// packed-image opens and served requests (serve/server.h) all report a
// Status; the serving layer passes an engine run's status to its client
// unchanged. Only the server produces kOverloaded.
//
// The library's CHECK macros (common/check.h) stay the answer for
// programmer error: a violated invariant aborts. Data-dependent
// failures — a page that fails to read, a checksum mismatch, a deadline
// that expired — are a different category: under a long-lived server
// they must abort ONE request, never the process. Status is the typed
// carrier for that category, and ErrorSink is how it travels.
//
// Threading a Status return through every storage accessor would churn
// dozens of hot signatures (and cost happy-path branches the perf
// parity suite forbids). Instead the stack uses a *sticky sink*: the
// ExecContext of a run owns an ErrorSink, the DiskManager at the bottom
// of the storage stack is pointed at it (set_error_sink), and every
// fault lands there as the run's first error. Read paths degrade to
// zero-filled pages (structurally safe: a zeroed page parses as an
// empty node / empty record list), matchers poll
// ExecContext::ShouldAbort() at their outer loops, and the adapter
// copies the sink's status into AssignResult::status. The happy path
// pays one null-pointer test per physical access and one bool test per
// outer loop.
#ifndef FAIRMATCH_COMMON_STATUS_H_
#define FAIRMATCH_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>

namespace fairmatch {

/// Failure classes, canonical-status style: the one status vocabulary
/// of the library, from a storage read up to a served request.
/// Everything here is recoverable at the request boundary; none of
/// these abort.
enum class ErrorCode {
  kOk = 0,
  /// Unknown dataset or matcher name, or a file that does not exist or
  /// cannot be read (a missing manifest, WAL, snapshot or packed
  /// image).
  kNotFound = 1,
  /// The request or update contradicts itself or the matcher's
  /// contract (e.g. a non-positive timing knob, an out-of-range id).
  kInvalidArgument = 2,
  /// The caller violated a stateful contract: a matcher's requirements
  /// are not met by the resident dataset, Matcher::Run() was invoked
  /// twice on one instance, a publish does not advance the live epoch.
  /// Retrying the same call cannot succeed.
  kFailedPrecondition = 3,
  /// Admission control rejected a request (serving only): the bounded
  /// queue is full or the in-flight cap is reached. Retry later.
  kOverloaded = 4,
  /// A transient failure: an injected or real read/write error, a
  /// draining server, or a dataset shedding load. Retrying is the
  /// expected recovery.
  kUnavailable = 5,
  /// The deadline expired — while queued, or mid-run at a cancellation
  /// point.
  kDeadlineExceeded = 6,
  /// Bytes were lost or failed verification (a checksum mismatch, an
  /// out-of-range decoded id, a malformed node or image). Retrying may
  /// help only if the damage was in transfer.
  kDataLoss = 7,
};

// The numeric values are pinned here and by
// StatusTest.EveryCodeIsNamedAndMade. No stored format or digest
// hashes them, so a renumbering only has to update those two places.
static_assert(static_cast<int>(ErrorCode::kOk) == 0);
static_assert(static_cast<int>(ErrorCode::kNotFound) == 1);
static_assert(static_cast<int>(ErrorCode::kInvalidArgument) == 2);
static_assert(static_cast<int>(ErrorCode::kFailedPrecondition) == 3);
static_assert(static_cast<int>(ErrorCode::kOverloaded) == 4);
static_assert(static_cast<int>(ErrorCode::kUnavailable) == 5);
static_assert(static_cast<int>(ErrorCode::kDeadlineExceeded) == 6);
static_assert(static_cast<int>(ErrorCode::kDataLoss) == 7);

/// Stable identifier for logs/tests ("OK", "DATA_LOSS", ...).
inline const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "OK";
    case ErrorCode::kNotFound:
      return "NOT_FOUND";
    case ErrorCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case ErrorCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case ErrorCode::kOverloaded:
      return "OVERLOADED";
    case ErrorCode::kUnavailable:
      return "UNAVAILABLE";
    case ErrorCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case ErrorCode::kDataLoss:
      return "DATA_LOSS";
  }
  return "UNKNOWN";
}

/// Error code + human-readable detail. Default-constructed is OK.
struct Status {
  ErrorCode code = ErrorCode::kOk;
  std::string message;

  bool ok() const { return code == ErrorCode::kOk; }

  static Status Ok() { return {}; }
  static Status NotFound(std::string message) {
    return {ErrorCode::kNotFound, std::move(message)};
  }
  static Status InvalidArgument(std::string message) {
    return {ErrorCode::kInvalidArgument, std::move(message)};
  }
  static Status FailedPrecondition(std::string message) {
    return {ErrorCode::kFailedPrecondition, std::move(message)};
  }
  static Status Overloaded(std::string message) {
    return {ErrorCode::kOverloaded, std::move(message)};
  }
  static Status Unavailable(std::string message) {
    return {ErrorCode::kUnavailable, std::move(message)};
  }
  static Status DeadlineExceeded(std::string message) {
    return {ErrorCode::kDeadlineExceeded, std::move(message)};
  }
  static Status DataLoss(std::string message) {
    return {ErrorCode::kDataLoss, std::move(message)};
  }
};

/// Sticky first-error collector for one run. Not thread-safe: a sink
/// belongs to one ExecContext, which belongs to one lane (the same
/// single-lane rule as PerfCounters).
///
/// The FIRST reported error wins (it is the root cause; later errors
/// are usually knock-on effects of the zero-filled pages the storage
/// layer hands out after the first fault). All reports are counted.
class ErrorSink {
 public:
  ErrorSink() = default;

  ErrorSink(const ErrorSink&) = delete;
  ErrorSink& operator=(const ErrorSink&) = delete;

  /// Records an error. Keeps only the first; counts all.
  void Report(ErrorCode code, std::string message) {
    ++reports_;
    if (status_.ok()) {
      status_.code = code;
      status_.message = std::move(message);
    }
  }

  /// True once any error was reported. This is the single load matchers
  /// poll at their cancellation points.
  bool failed() const { return reports_ != 0; }

  /// The first reported error (OK when failed() is false).
  const Status& status() const { return status_; }

  /// Total errors reported, including suppressed knock-on ones.
  int64_t reports() const { return reports_; }

  void Reset() {
    status_ = Status();
    reports_ = 0;
  }

 private:
  Status status_;
  int64_t reports_ = 0;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_COMMON_STATUS_H_
