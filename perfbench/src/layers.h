// Per-layer probes of the traced run: direct calls into each layer's
// public entry points on the workload's own data, each wrapped in a
// span. Counts marked deterministic in perfbench/README.md come from
// the library's own counters on fixed work, never from a clock.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "fairmatch/serve/dataset_registry.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Report = std::vector<Metric>;

struct ProbeInputs {
  const WorkloadSpec* spec = nullptr;
  /// The workload's resident datasets at epoch 1, d0 first.
  std::vector<fairmatch::serve::DatasetHandle> datasets;
  /// Reference (direct SB) digest per dataset.
  std::vector<uint64_t> digests;
  /// Epoch 1 of the dataset the ingest stream updates.
  fairmatch::serve::DatasetHandle ingest_base;
  const std::vector<fairmatch::update::UpdateBatch>* stream = nullptr;
  /// Scratch directory for the fsync, WAL and snapshot probes.
  std::string workdir;
};

/// Direct Matcher::Run over every (dataset, matcher) of the probe set,
/// fresh ExecContext each, checked against the reference digests.
/// Appends the assign.* metrics, engine.overhead_ms (the served exec
/// p50 per matcher, `served_exec_p50_ms`, minus the direct-run p50,
/// averaged over served matchers) and the storage.* request counters;
/// returns the number of wrong or failed runs.
int64_t ProbeAssign(const ProbeInputs& in, Tracer* tracer,
                    const std::map<std::string, double>& served_exec_p50_ms,
                    Report* out);

/// topk, skyline, storage (Entry scan, fsync), rtree, update (plain
/// DeltaBuilder replay) and recover (WAL append, snapshot write)
/// probes. Returns the number of failed probe operations.
int64_t ProbeLayers(const ProbeInputs& in, Tracer* tracer, Report* out);

/// Skyline size of dataset `index` of `spec` for `seed` (the premise
/// report compares the two serve workloads' shapes).
size_t InitialSkylineSize(const WorkloadSpec& spec, uint64_t seed, int index);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
