#include "workload.h"

#include <algorithm>
#include <utility>

#include "fairmatch/common/rng.h"
#include "fairmatch/update/stream_matcher.h"

namespace perfbench {

using fairmatch::Distribution;

namespace {

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"serve_mem", Distribution::kIndependent, 3, 250, 5000,
       /*datasets=*/8, /*packed_mmap=*/false,
       {{"SB", false}, {"SB-Packed", false}},
       /*lanes=*/3, /*nominal_rps=*/100.0, /*nominal_requests=*/1400,
       /*slo_p99_ms=*/50.0, /*ingest_beside_queries=*/false,
       /*ingest_batches=*/3600},
      {"serve_disk_anti", Distribution::kAntiCorrelated, 4, 250, 5000,
       /*datasets=*/4, /*packed_mmap=*/true,
       {{"SB-alt", true}, {"SB-Packed", false}},
       /*lanes=*/3, /*nominal_rps=*/75.0, /*nominal_requests=*/1050,
       /*slo_p99_ms=*/100.0, /*ingest_beside_queries=*/false,
       /*ingest_batches=*/3600},
      {"ingest_serve", Distribution::kIndependent, 3, 250, 5000,
       /*datasets=*/1, /*packed_mmap=*/false,
       {{"SB-Packed", false}},
       /*lanes=*/2, /*nominal_rps=*/90.0, /*nominal_requests=*/1120,
       /*slo_p99_ms=*/50.0, /*ingest_beside_queries=*/true,
       /*ingest_batches=*/8400},
  };
  return specs;
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

/// `n` distinct ids in [0, limit), in draw order.
std::vector<int32_t> DistinctIds(int n, int limit, fairmatch::Rng* rng) {
  std::vector<int32_t> ids;
  std::vector<bool> picked(static_cast<size_t>(limit), false);
  while (static_cast<int>(ids.size()) < n) {
    const int id = static_cast<int>(rng->UniformInt(0, limit - 1));
    if (picked[static_cast<size_t>(id)]) continue;
    picked[static_cast<size_t>(id)] = true;
    ids.push_back(id);
  }
  return ids;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

fairmatch::AssignmentProblem MakeProblem(const WorkloadSpec& spec,
                                         uint64_t seed, int index) {
  fairmatch::Rng rng(seed * 1000003ull + static_cast<uint64_t>(index) * 7919ull +
                     0x5eed);
  std::vector<fairmatch::Point> points = fairmatch::GeneratePoints(
      spec.distribution, spec.num_objects, spec.dims, &rng);
  fairmatch::FunctionSet functions =
      fairmatch::GenerateFunctions(spec.num_functions, spec.dims, &rng);
  return fairmatch::MakeProblem(std::move(points), std::move(functions));
}

std::vector<size_t> WriterSliceEnds(const WorkloadSpec& spec) {
  const size_t slice =
      static_cast<size_t>(spec.ingest_batches / kRounds / kSnapshotThreshold) *
      kSnapshotThreshold;
  std::vector<size_t> ends;
  size_t end = kSnapshotThreshold / 2;
  for (int round = 0; round < kRounds; ++round) {
    end += slice;
    ends.push_back(end);
  }
  return ends;
}

std::string DatasetName(int index) { return "d" + std::to_string(index); }

std::vector<fairmatch::update::UpdateBatch> MakeBatchStream(
    const WorkloadSpec& spec, uint64_t seed, int count) {
  fairmatch::Rng rng(seed * 2654435761ull + 0xba7c4);
  std::vector<fairmatch::update::UpdateBatch> stream(
      static_cast<size_t>(count));
  const int half = kObjectUpdatesPerBatch / 2;
  for (fairmatch::update::UpdateBatch& batch : stream) {
    for (int32_t id : DistinctIds(half, spec.num_objects, &rng)) {
      batch.delete_objects.push_back(id);
    }
    for (fairmatch::Point& p : fairmatch::GeneratePoints(
             spec.distribution, half, spec.dims, &rng)) {
      fairmatch::ObjectItem item;
      item.point = p;
      batch.insert_objects.push_back(item);
    }
    for (int32_t id :
         DistinctIds(kFunctionChurnPerBatch, spec.num_functions, &rng)) {
      batch.delete_functions.push_back(id);
    }
    batch.insert_functions = fairmatch::GenerateFunctions(
        kFunctionChurnPerBatch, spec.dims, &rng);
  }
  return stream;
}

int64_t UpdatesIn(const fairmatch::update::UpdateBatch& batch) {
  return static_cast<int64_t>(
      batch.insert_objects.size() + batch.delete_objects.size() +
      batch.insert_functions.size() + batch.delete_functions.size());
}

uint64_t MatchingDigest(const fairmatch::Matching& matching) {
  std::vector<std::pair<int32_t, int32_t>> pairs;
  pairs.reserve(matching.size());
  for (const fairmatch::MatchPair& p : matching) pairs.emplace_back(p.fid, p.oid);
  std::sort(pairs.begin(), pairs.end());
  uint64_t h = 1469598103934665603ull;
  for (const auto& [fid, oid] : pairs) {
    h = Fnv1a(h, static_cast<uint64_t>(fid));
    h = Fnv1a(h, static_cast<uint64_t>(oid));
  }
  return h;
}

uint64_t ReferenceDigest(const fairmatch::serve::ResidentDataset& dataset,
                         bool* ok) {
  const fairmatch::AssignResult result =
      fairmatch::update::RunOnDataset(dataset, "SB");
  if (!result.status.ok() || result.matching.empty()) *ok = false;
  return MatchingDigest(result.matching);
}

}  // namespace perfbench
