// Durable epochs: DeltaBuilder behind a write-ahead log + manifest.
//
// A DurableBuilder owns one log directory and keeps the on-disk state
// in lockstep with the in-memory epoch chain:
//
//   Apply(batch):
//     1. encode the batch, append it to the WAL, fsync   <- commit point
//     2. DeltaBuilder::Apply (in-memory, atomic)
//     3. every snapshot_threshold records: Checkpoint() — write a new
//        snapshot + fresh WAL, commit a manifest slot binding them,
//        then delete the superseded files.
//
// Crash-consistency argument, boundary by boundary:
//  * die before/inside the WAL append -> the record is torn or absent;
//    the batch was never acknowledged; recovery truncates the tail and
//    converges to the previous epoch.
//  * die between WAL fsync and the in-memory apply (or any time after)
//    -> the record is durable; recovery replays it; the caller never
//    got an OK, so converging one epoch PAST the last acknowledged one
//    is correct (this is what "half-applied batches replayed" means).
//  * die anywhere inside Checkpoint() -> the manifest still binds the
//    OLD snapshot + OLD WAL, which still holds every record; stale
//    snap/wal files from the aborted checkpoint are unreferenced
//    garbage, overwritten or deleted by the next successful one. A
//    torn manifest-slot write corrupts only the alternate slot —
//    recovery fails over to the surviving one (the A/B protocol).
//
// Recovery (Recover()): read the manifest, try each intact slot newest
// first — load its snapshot, replay its WAL suffix through a fresh
// DeltaBuilder (records at or below the recovered epoch are skipped:
// replay idempotence; records the live path rejected as invalid are
// re-rejected identically) — and fail over to the older slot with a
// typed detail when a snapshot or committed WAL prefix is unreadable.
// The recovered builder appends to the recovered WAL and keeps going.
//
// RecoverAndPublish() is the boot path: recover, then publish the
// epoch through DatasetRegistry::PublishRecovered so serving resumes
// exactly where the crash interrupted it.
#ifndef FAIRMATCH_RECOVER_DURABLE_BUILDER_H_
#define FAIRMATCH_RECOVER_DURABLE_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "fairmatch/common/status.h"
#include "fairmatch/recover/manifest.h"
#include "fairmatch/recover/wal.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/update/delta_builder.h"

namespace fairmatch::recover {

/// Durability knobs.
struct DurableOptions {
  /// Log directory (must exist). One DurableBuilder per directory.
  std::string dir;

  /// Checkpoint (snapshot + manifest commit + WAL rotation) after this
  /// many WAL records. Smaller = cheaper recovery replay, pricier
  /// applies — perfbench's ingest_serve workload measures the trade
  /// (recover_ms against updates_per_s).
  int snapshot_threshold = 8;

  /// Epoch-construction knobs, passed through to DeltaBuilder. The
  /// delta-level injector must stay null here: replay re-applies
  /// batches through a fresh DeltaBuilder, and only an injector-free
  /// apply path replays bit-identically. Crash scheduling uses
  /// `injector` below instead — it fires only at durable-file
  /// boundaries, which replay never re-executes.
  update::DeltaOptions delta;

  /// Crash points + durable-op accounting over every WAL/snapshot/
  /// manifest write, fsync and rename (storage/durable_file.h). May be
  /// null. Must outlive the builder.
  FaultInjector* injector = nullptr;
};

/// What one Recover() did.
struct RecoveryStats {
  int64_t recovered_epoch = 0;
  int64_t snapshot_epoch = 0;
  uint64_t manifest_seq = 0;

  int manifest_slots_corrupt = 0;  // failed-over torn/corrupt slots
  int snapshot_fallbacks = 0;      // intact slots whose payload failed

  int64_t wal_records_replayed = 0;
  int64_t wal_records_skipped = 0;   // at/below snapshot epoch (idempotence)
  int64_t wal_records_rejected = 0;  // invalid batches, re-rejected
  int64_t wal_torn_bytes = 0;
  bool wal_torn_tail = false;

  double load_ms = 0.0;    // manifest + snapshot read/restore
  double replay_ms = 0.0;  // WAL suffix through DeltaBuilder
  double total_ms = 0.0;   // time to a servable epoch

  /// Failover trail: every slot/payload that had to be skipped, typed.
  std::string detail;
};

class DurableBuilder {
 public:
  /// Starts a durable log in options.dir from `base` (epoch 1 or any
  /// later epoch): writes its snapshot, a fresh WAL and the first
  /// manifest commit. The directory must not already hold a manifest.
  static Status Bootstrap(serve::DatasetHandle base,
                          const DurableOptions& options,
                          std::unique_ptr<DurableBuilder>* out);

  /// Recovers the newest intact epoch from options.dir (see file
  /// comment). kNotFound = nothing was ever committed; kDataLoss = a
  /// manifest exists but no slot leads to a servable epoch (the detail
  /// carries the per-slot trail).
  static Status Recover(const DurableOptions& options,
                        std::unique_ptr<DurableBuilder>* out,
                        RecoveryStats* stats = nullptr);

  DurableBuilder(const DurableBuilder&) = delete;
  DurableBuilder& operator=(const DurableBuilder&) = delete;

  /// WAL-first apply (see file comment). Statuses are DeltaBuilder's,
  /// plus kUnavailable for a durable-write failure.
  Status Apply(const update::UpdateBatch& batch,
               update::UpdateStats* stats = nullptr);

  const serve::DatasetHandle& current() const { return delta_->current(); }
  int64_t epoch() const { return delta_->epoch(); }
  const std::vector<ObjectRecord>& skyline() const {
    return delta_->skyline();
  }

  /// WAL records since the last checkpoint (the replay debt a crash
  /// right now would incur).
  int64_t records_since_snapshot() const { return records_since_snapshot_; }

 private:
  DurableBuilder() = default;

  /// Snapshot current(), rotate the WAL, commit the manifest, prune
  /// superseded files.
  Status Checkpoint();

  DurableOptions options_;
  std::unique_ptr<update::DeltaBuilder> delta_;
  WalWriter wal_;
  ManifestWriter manifest_;
  ManifestRecord committed_;  // last committed manifest state
  int64_t records_since_snapshot_ = 0;
};

/// Boot-from-manifest: Recover() + DatasetRegistry::PublishRecovered.
/// `out`/`stats`/`builder_out` may be null; on success the registry
/// serves the recovered epoch and recoveries() ticked.
Status RecoverAndPublish(const DurableOptions& options,
                         serve::DatasetRegistry* registry,
                         serve::DatasetHandle* out = nullptr,
                         RecoveryStats* stats = nullptr,
                         std::unique_ptr<DurableBuilder>*
                                         builder_out = nullptr);

}  // namespace fairmatch::recover

#endif  // FAIRMATCH_RECOVER_DURABLE_BUILDER_H_
