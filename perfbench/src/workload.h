// Workload definitions and the inputs they are generated from.
//
// Every input — object and function sets, the request mix, the Poisson
// arrival schedule, the update batch stream — is a pure function of
// (workload, --seed). Sizes, rates and counts are fixed constants (see
// perfbench/README.md for how they were calibrated); --seconds scales
// only the open-loop request counts, so a run at the reference length
// (kReferenceSeconds) always measures the same work.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fairmatch/assign/problem.h"
#include "fairmatch/data/synthetic.h"
#include "fairmatch/update/delta_builder.h"

namespace perfbench {

/// One request kind of a workload's traffic mix.
struct RequestKind {
  const char* matcher;
  bool disk_resident_functions;
};

struct WorkloadSpec {
  const char* name;
  fairmatch::Distribution distribution;
  int dims;
  int num_functions;
  int num_objects;
  /// Resident datasets the queries spread over (d0 .. d<n-1>).
  int datasets;
  /// Serve the packed image from a file mapping instead of memory.
  bool packed_mmap;
  /// Requests cycle through these kinds in order.
  std::vector<RequestKind> mix;
  /// Server worker lanes.
  int lanes;

  /// Open-loop arrival rate (req/s) and request count of the measured
  /// phase at the reference run length (kReferenceSeconds).
  double nominal_rps;
  int nominal_requests;
  /// Latency objective on Submit->Response p99 (ms).
  double slo_p99_ms;

  /// Durable ingest: about this many batches applied to d0 by a
  /// closed-loop writer, in kRounds slices (WriterSliceEnds). On
  /// ingest_serve each slice runs beside that round's queries; on the
  /// serve workloads it runs alone.
  bool ingest_beside_queries;
  int ingest_batches;
};

/// Cumulative batch count at the end of each writer slice. Every slice
/// after the first is a multiple of the snapshot threshold and the first
/// is 4 more, so every restart replays a WAL suffix of 4 records.
std::vector<size_t> WriterSliceEnds(const WorkloadSpec& spec);

/// The run length the constants below were sized for (BENCHMARK.json).
constexpr double kReferenceSeconds = 30.0;

/// A run is this many rounds; each round takes its share of every
/// measurement (a setup, a slice of the nominal load, a slice of the
/// writer, restarts, and a capacity burst or, in traced runs, one step
/// of an SLO search), so every metric samples the whole run rather than
/// one stretch of it: the hosts this runs on change speed by up to 1.5x
/// from one few-second stretch to the next.
constexpr int kRounds = 14;

/// Update shape: per batch, half object deletes and half object inserts,
/// plus this many function deletes and as many inserts.
constexpr int kObjectUpdatesPerBatch = 100;
constexpr int kFunctionChurnPerBatch = 2;
/// The shipped flush policy: one fsync per Apply, a snapshot every 8.
constexpr int kSnapshotThreshold = 8;
/// Restarts (Recover + PublishRecovered) after each writer slice.
constexpr int kRestartsPerRound = 8;
/// Requests in each round's capacity burst (untraced runs).
constexpr int kBurstRequests = 48;

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Dataset `index` of the workload for `seed`.
fairmatch::AssignmentProblem MakeProblem(const WorkloadSpec& spec,
                                         uint64_t seed, int index);

std::string DatasetName(int index);

/// The ingest writer's batch stream. Object and function counts stay
/// constant across batches, so the stream does not depend on epochs.
std::vector<fairmatch::update::UpdateBatch> MakeBatchStream(
    const WorkloadSpec& spec, uint64_t seed, int count);

/// Updates one batch acknowledges (objects plus functions).
int64_t UpdatesIn(const fairmatch::update::UpdateBatch& batch);

/// Order-independent digest of a matching: FNV-1a over (fid, oid)
/// pairs sorted by function id.
uint64_t MatchingDigest(const fairmatch::Matching& matching);

/// Digest of a direct SB run on `dataset` (the reference every served
/// response is checked against). Sets *ok = false if the run failed.
uint64_t ReferenceDigest(const fairmatch::serve::ResidentDataset& dataset,
                         bool* ok);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
