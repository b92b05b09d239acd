// Deterministic, seeded storage-fault injection.
//
// A FaultInjector is attached to exactly one DiskManager (or consulted
// by an MmapFile attach) for the duration of one run and decides, per
// physical access, whether that access fails, delivers corrupted bytes,
// or stalls for a latency spike. Every decision is a pure function of
// (seed, access index, decision stream): the schedule is reproducible —
// re-running the same single-lane access sequence against the same seed
// injects exactly the same faults. That determinism is what the chaos
// suite (tests/chaos_test.cc) builds on: the serving layer
// seeds one injector per (request, attempt), so fault and retry counts
// are invariant under lane count and completion order.
//
// Fault model (all faults are *transfer* faults — the stored page
// stays intact, so a retried attempt can succeed):
//  * read failure  — the read returns kUnavailable; the caller sees a
//    zero-filled page.
//  * corruption    — the read delivers the page with a few bytes
//    flipped. Only detectable when the disk's per-page CRC verification
//    is on (DiskManager::set_verify_checksums), which turns it into a
//    typed kDataLoss; with verification off the flipped bytes are
//    silently consumed, exactly like real hardware.
//  * write failure — the write is dropped, kUnavailable.
//  * latency spike — the access additionally sleeps spike_us.
//
// Not thread-safe: an injector belongs to the one lane whose disk it is
// attached to, like the DiskManager itself.
#ifndef FAIRMATCH_STORAGE_FAULT_INJECTOR_H_
#define FAIRMATCH_STORAGE_FAULT_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "fairmatch/common/status.h"
#include "fairmatch/common/types.h"

namespace fairmatch {

/// How a scheduled crash point takes the process down.
enum class CrashMode {
  /// Throw InjectedCrash: the stack unwinds out of the durable path and
  /// a test harness catches it — an in-process kill whose aftermath
  /// (the files on disk) is exactly what a real crash leaves behind.
  kThrow,
  /// raise SIGKILL: the subprocess crash-sweep mode — no unwinding, no
  /// destructors, the parent observes a genuinely killed child.
  kKill,
};

/// Thrown by a CrashMode::kThrow crash point. Deliberately NOT derived
/// from std::exception: nothing in the engine catches it by accident,
/// only a harness that asked for the crash.
struct InjectedCrash {
  int64_t durable_op = 0;  // the boundary index that died
  const char* site = "";   // which durable boundary (e.g. "wal append")
};

/// Fault schedule knobs. All rates are probabilities in [0, 1] applied
/// independently per physical access; all-zero rates = a disabled plan.
struct FaultInjectorOptions {
  /// Root of the deterministic decision schedule.
  uint64_t seed = 0;

  /// P(a physical read fails outright) — surfaces as kUnavailable.
  double read_fail_rate = 0.0;

  /// P(a physical read delivers flipped bytes). Detected (kDataLoss)
  /// only under DiskManager::set_verify_checksums(true).
  double corrupt_rate = 0.0;

  /// P(a physical write is dropped) — surfaces as kUnavailable.
  double write_fail_rate = 0.0;

  /// P(an access additionally sleeps spike_us). Latency only; never
  /// affects results.
  double spike_rate = 0.0;
  int spike_us = 0;

  /// Crash schedule over the *durable* op stream (real file writes,
  /// fsyncs and renames on the recovery path, storage/durable_file.h):
  /// die at the boundary with this 0-based index, -1 = never. A write
  /// boundary dies torn — a schedule-determined strict prefix of the
  /// bytes lands before the crash — so the sweep exercises every torn
  /// tail the format must truncate.
  int64_t crash_after_durable = -1;
  CrashMode crash_mode = CrashMode::kThrow;

  /// True when any fault can ever fire.
  bool active() const {
    return read_fail_rate > 0.0 || corrupt_rate > 0.0 ||
           write_fail_rate > 0.0 || spike_rate > 0.0 ||
           crash_after_durable >= 0;
  }
};

/// What actually fired (monotonic; snapshot freely).
struct FaultCounters {
  int64_t read_failures = 0;
  int64_t corruptions = 0;
  int64_t write_failures = 0;
  int64_t spikes = 0;

  /// Durable-op boundaries observed (writes + syncs + renames on the
  /// recovery path). Not a fault: a crash sweep counts one uncrashed
  /// run's boundaries, then schedules a crash at each index in turn.
  int64_t durable_ops = 0;

  /// Result-affecting faults (spikes excluded: they only cost time).
  int64_t injected() const {
    return read_failures + corruptions + write_failures;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectorOptions options) : options_(options) {}

  /// Derives an independent schedule seed from a base seed and two
  /// coordinates (the serving layer uses (request_id, attempt), so each
  /// retry of each request replays its own schedule regardless of which
  /// lane runs it or in what order).
  static uint64_t DeriveSeed(uint64_t base, uint64_t a, uint64_t b);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// One physical read of `pid`. May flip bytes in `page` (kPageSize
  /// bytes) in place; `*spike_us` gets the extra latency to sleep (0
  /// almost always). Returns OK or kUnavailable (read failure — the
  /// caller must discard/zero the page content).
  Status OnRead(PageId pid, std::byte* page, int* spike_us);

  /// One physical write of `pid`. Returns OK or kUnavailable (the write
  /// must be dropped).
  Status OnWrite(PageId pid, int* spike_us);

  /// One file-mapping attach (storage/mmap_file.h). Fails with the
  /// read-failure stream: returns kUnavailable when the map should be
  /// refused.
  Status OnMap(const std::string& path);

  /// One durable *write* boundary of `size` bytes (a real file write on
  /// the recovery path). Ticks the durable-op counter. Returns false
  /// normally (write all `size` bytes). Returns true when this boundary
  /// is the scheduled crash point: the caller must write only
  /// `*torn_prefix` bytes (a schedule-determined strict prefix,
  /// possibly 0) and then call Crash() — the torn record is exactly
  /// what a mid-write power cut leaves.
  bool OnDurableWrite(size_t size, size_t* torn_prefix);

  /// One durable non-write boundary (fsync, rename). Ticks the
  /// durable-op counter; true = this is the crash point, call Crash().
  bool OnDurablePoint();

  /// Dies per options().crash_mode: kThrow throws InjectedCrash{op,
  /// site}, kKill raises SIGKILL (never returns either way).
  [[noreturn]] void Crash(const char* site);

  const FaultCounters& counters() const { return counters_; }
  const FaultInjectorOptions& options() const { return options_; }

 private:
  /// Deterministic U[0,1) draw for decision stream `salt` of the
  /// current access index.
  double Unit(uint64_t salt) const;

  FaultInjectorOptions options_;
  FaultCounters counters_;
  uint64_t op_ = 0;  // physical-access index; one tick per access
  int64_t crashed_at_ = -1;  // durable-op index Crash() was armed for
};

}  // namespace fairmatch

#endif  // FAIRMATCH_STORAGE_FAULT_INJECTOR_H_
