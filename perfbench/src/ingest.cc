#include "ingest.h"

#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace perfbench {

namespace recover = fairmatch::recover;
namespace serve = fairmatch::serve;

void LogBytes::Scan() {
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, error)) {
    if (!entry.is_regular_file(error)) continue;
    const int64_t size = static_cast<int64_t>(entry.file_size(error));
    if (error) continue;  // deleted by a checkpoint since the listing
    const std::string name = entry.path().filename().string();
    auto it = seen_.find(name);
    if (it == seen_.end()) {
      written_ += size;
    } else if (size > it->second) {
      written_ += size - it->second;
    } else if (size < it->second) {
      written_ += size;  // recreated under the same name
    }
    seen_[name] = size;
  }
}

LogBytes::LogBytes(std::string dir) : dir_(std::move(dir)) {
  Scan();
  written_ = 0;  // what exists now was not written by this run
}

void RunDurableWriter(recover::DurableBuilder* builder,
                      serve::DatasetRegistry* registry,
                      const std::vector<fairmatch::update::UpdateBatch>&
                          stream,
                      size_t begin, size_t end, LogBytes* log_bytes,
                      Tracer* tracer, IngestRun* run) {
  const int64_t start_ns = NowNs();
  int64_t cycle_begin_ns = -1;  // none yet in this slice
  int64_t cycle_updates = 0;
  for (size_t i = begin; i < end; ++i) {
    const int64_t request = static_cast<int64_t>(i);
    const int64_t root = tracer->NewId();
    const int64_t begin_ns = NowNs();
    fairmatch::update::UpdateStats stats;
    serve::ServeStatus status = builder->Apply(stream[i], &stats);
    const int64_t applied_ns = NowNs();
    if (status.ok()) status = registry->PublishOrError(builder->current());
    const int64_t end_ns = NowNs();
    if (tracer->enabled()) {
      tracer->Add("update.durable_apply", begin_ns, applied_ns, root, request);
      tracer->Add("serve.publish", applied_ns, end_ns, root, request);
      tracer->Add("update.batch", begin_ns, end_ns, 0, request, root);
    }
    if (!status.ok()) {
      ++run->failed;
      continue;
    }
    run->apply_ms.push_back(NsToMs(end_ns - begin_ns));
    run->updates_acked += UpdatesIn(stream[i]);
    cycle_updates += UpdatesIn(stream[i]);
    const bool checkpointed = builder->records_since_snapshot() == 0;
    if (checkpointed) ++run->checkpoints;
    if (stats.packed_compacted) ++run->compactions;
    log_bytes->Scan();
    if (checkpointed) {
      const int64_t cycle_end_ns = NowNs();
      if (cycle_begin_ns >= 0) {
        run->cycle_updates_per_s.push_back(
            static_cast<double>(cycle_updates) /
            (NsToMs(cycle_end_ns - cycle_begin_ns) / 1e3));
      }
      cycle_begin_ns = cycle_end_ns;
      cycle_updates = 0;
    }
  }
  const int64_t end_ns = NowNs();
  run->wall_s += NsToMs(end_ns - start_ns) / 1e3;
  run->windows.emplace_back(start_ns, end_ns);
  run->final_suffix = builder->records_since_snapshot();
}

std::unique_ptr<recover::DurableBuilder> RunRecoverRounds(
    const recover::DurableOptions& options, int restarts,
    int64_t expected_epoch, uint64_t expected_digest, Tracer* tracer,
    RecoverRun* run) {
  std::unique_ptr<recover::DurableBuilder> builder;
  for (int round = 0; round < restarts; ++round) {
    builder.reset();  // one writer per directory at a time
    serve::DatasetRegistry registry;  // a restarted process starts empty
    recover::RecoveryStats stats;
    const int64_t request = static_cast<int64_t>(run->total_ms.size());
    const int64_t root = tracer->NewId();
    const int64_t begin_ns = NowNs();
    serve::ServeStatus status =
        recover::DurableBuilder::Recover(options, &builder, &stats);
    const int64_t recovered_ns = NowNs();
    if (status.ok()) status = registry.PublishRecovered(builder->current());
    const int64_t end_ns = NowNs();
    if (tracer->enabled()) {
      const int64_t call = tracer->NewId();
      const int64_t loaded_ns =
          begin_ns + static_cast<int64_t>(stats.load_ms * 1e6);
      tracer->Add("recover.load", begin_ns, loaded_ns, call, request);
      tracer->Add("recover.replay", loaded_ns,
                  loaded_ns + static_cast<int64_t>(stats.replay_ms * 1e6),
                  call, request);
      tracer->Add("recover.recover", begin_ns, recovered_ns, root, request,
                  call);
      tracer->Add("serve.publish_recovered", recovered_ns, end_ns, root,
                  request);
      tracer->Add("recover.round", begin_ns, end_ns, 0, request, root);
    }
    bool ok = status.ok() && builder->epoch() == expected_epoch;
    if (ok) {
      bool ran = true;
      ok = ReferenceDigest(*builder->current(), &ran) == expected_digest &&
           ran;
    }
    run->total_ms.push_back(NsToMs(end_ns - begin_ns));
    run->stats.push_back(stats);
    if (!ok) {
      ++run->failed;
      return nullptr;
    }
  }
  return builder;
}

ReplayRun ReplayStream(serve::DatasetHandle base,
                       const fairmatch::update::DeltaOptions& options,
                       const std::vector<fairmatch::update::UpdateBatch>&
                           stream,
                       const std::set<int64_t>& digest_epochs,
                       int digest_threads, Tracer* tracer) {
  ReplayRun run;
  fairmatch::update::DeltaBuilder builder(std::move(base), options);

  // Epochs waiting for a reference digest; the digest threads drain it
  // while the replay goes on.
  std::mutex mu;
  std::vector<serve::DatasetHandle> pending;
  bool done = false;
  std::condition_variable cv;
  auto digest_worker = [&] {
    for (;;) {
      serve::DatasetHandle handle;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        handle = std::move(pending.back());
        pending.pop_back();
      }
      cv.notify_all();  // the replay may be waiting for room
      bool ok = true;
      const uint64_t digest = ReferenceDigest(*handle, &ok);
      std::lock_guard<std::mutex> lock(mu);
      run.digests[handle->epoch()] = digest;
      if (!ok) ++run.failed;
    }
  };
  std::vector<std::thread> workers;
  for (int i = 0; i < digest_threads; ++i) workers.emplace_back(digest_worker);
  auto enqueue = [&](serve::DatasetHandle handle) {
    if (workers.empty()) {
      bool ok = true;
      run.digests[handle->epoch()] = ReferenceDigest(*handle, &ok);
      if (!ok) ++run.failed;
      return;
    }
    std::unique_lock<std::mutex> lock(mu);
    // Bounded: each epoch holds its own tree pages.
    cv.wait(lock, [&] { return pending.size() < 16; });
    pending.push_back(std::move(handle));
    cv.notify_all();
  };

  if (digest_epochs.count(builder.epoch()) > 0) enqueue(builder.current());
  run.apply_ms.reserve(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    fairmatch::update::UpdateStats stats;
    const int64_t begin_ns = NowNs();
    const serve::ServeStatus status = builder.Apply(stream[i], &stats);
    const int64_t end_ns = NowNs();
    tracer->Add("update.apply", begin_ns, end_ns, 0, static_cast<int64_t>(i));
    if (!status.ok()) {
      ++run.failed;
      continue;
    }
    run.apply_ms.push_back(NsToMs(end_ns - begin_ns));
    run.tree_ops += stats.tree_ops;
    if (stats.packed_compacted) ++run.compactions;
    if (digest_epochs.count(builder.epoch()) > 0) enqueue(builder.current());
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (std::thread& worker : workers) worker.join();

  const serve::ResidentDataset& last = *builder.current();
  run.final_epoch = last.epoch();
  if (last.packed() != nullptr) {
    run.overlay_entries =
        last.packed()->patch_added() + last.packed()->patch_tombstones();
  }
  auto it = run.digests.find(run.final_epoch);
  if (it != run.digests.end()) {
    run.final_digest = it->second;
  } else {
    bool ok = true;
    run.final_digest = ReferenceDigest(last, &ok);
    if (!ok) ++run.failed;
  }
  return run;
}

}  // namespace perfbench
