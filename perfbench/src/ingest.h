// Durable ingest and crash recovery, driven through the public
// DurableBuilder / DatasetRegistry calls.
#ifndef PERFBENCH_INGEST_H_
#define PERFBENCH_INGEST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fairmatch/recover/durable_builder.h"
#include "fairmatch/serve/dataset_registry.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// Bytes written to a log directory, from the file sizes seen between
/// applies: a new file counts whole, a grown one its growth, so files
/// a checkpoint later deletes still count.
class LogBytes {
 public:
  explicit LogBytes(std::string dir);

  void Scan();
  int64_t written() const { return written_; }

 private:
  std::string dir_;
  std::map<std::string, int64_t> seen_;
  int64_t written_ = 0;  // since construction
};

/// Accumulates over every writer slice of a run.
struct IngestRun {
  /// Apply -> durable ack plus Publish, per batch (ms).
  std::vector<double> apply_ms;
  double wall_s = 0.0;
  int64_t updates_acked = 0;
  /// Start and end of each slice on the steady clock (ns).
  std::vector<std::pair<int64_t, int64_t>> windows;
  /// Updates acknowledged per second of each snapshot cycle: from the
  /// end of one checkpointing batch to the end of the next, within a
  /// slice, so every cycle holds exactly one checkpoint.
  std::vector<double> cycle_updates_per_s;
  int checkpoints = 0;
  int compactions = 0;
  /// WAL records after the last snapshot when the writer last stopped.
  int64_t final_suffix = 0;
  int64_t failed = 0;
};

/// Closed loop: Apply then Publish batches [begin, end) of `stream`.
void RunDurableWriter(fairmatch::recover::DurableBuilder* builder,
                      fairmatch::serve::DatasetRegistry* registry,
                      const std::vector<fairmatch::update::UpdateBatch>&
                          stream,
                      size_t begin, size_t end, LogBytes* log_bytes,
                      Tracer* tracer, IngestRun* run);

/// Accumulates over every restart of a run.
struct RecoverRun {
  /// Recover + PublishRecovered into a fresh registry, per restart (ms).
  std::vector<double> total_ms;
  std::vector<fairmatch::recover::RecoveryStats> stats;
  int64_t failed = 0;
};

/// `restarts` times: Recover from `options.dir` and PublishRecovered
/// into a fresh registry, as a restarted process would. Each recovered
/// epoch must be `expected_epoch` with SB digest `expected_digest`
/// (checked outside the timed calls). Returns the last recovered
/// builder, which the writer continues on; nullptr when recovery
/// failed.
std::unique_ptr<fairmatch::recover::DurableBuilder> RunRecoverRounds(
    const fairmatch::recover::DurableOptions& options, int restarts,
    int64_t expected_epoch, uint64_t expected_digest, Tracer* tracer,
    RecoverRun* run);

struct ReplayRun {
  /// Non-durable DeltaBuilder::Apply, per batch (ms).
  std::vector<double> apply_ms;
  int64_t tree_ops = 0;
  int compactions = 0;
  /// Patch entries plus tombstones of the final epoch's packed overlay.
  int64_t overlay_entries = 0;
  int64_t final_epoch = 0;
  uint64_t final_digest = 0;
  /// Reference digest per epoch listed in `digest_epochs`.
  std::map<int64_t, uint64_t> digests;
  int64_t failed = 0;
};

/// Re-applies `stream` to `base` through a plain DeltaBuilder and takes
/// the reference (direct SB) digest of every epoch in `digest_epochs`
/// and of the final one, on `digest_threads` threads beside the
/// replay. Only the Apply calls are timed.
ReplayRun ReplayStream(fairmatch::serve::DatasetHandle base,
                       const fairmatch::update::DeltaOptions& options,
                       const std::vector<fairmatch::update::UpdateBatch>&
                           stream,
                       const std::set<int64_t>& digest_epochs,
                       int digest_threads, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_INGEST_H_
