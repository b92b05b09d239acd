#include "layers.h"

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "fairmatch/engine/exec_context.h"
#include "fairmatch/engine/registry.h"
#include "fairmatch/recover/batch_codec.h"
#include "fairmatch/recover/snapshot.h"
#include "fairmatch/recover/wal.h"
#include "fairmatch/rtree/node_store.h"
#include "fairmatch/skyline/bbs.h"
#include "fairmatch/storage/durable_file.h"
#include "fairmatch/topk/disk_function_lists.h"
#include "fairmatch/topk/function_lists.h"
#include "fairmatch/topk/packed_function_lists.h"
#include "fairmatch/topk/reverse_top1.h"
#include "fairmatch/update/stream_matcher.h"
#include "ingest.h"

namespace perfbench {

namespace fm = fairmatch;
namespace serve = fairmatch::serve;

namespace {

const char* const kProbeMatchers[] = {"SB", "SB-Packed", "SB-alt"};
constexpr int kAssignReps = 2;
constexpr int kBuildReps = 2;
constexpr int kEntryScanReps = 20;
constexpr int kFsyncs = 200;
constexpr int kWalAppends = 300;
constexpr int kSnapshotWrites = 5;
constexpr int64_t kBlockDecodes = 200000;
constexpr double kBufferFraction = 0.02;

/// Keeps probe loops from being optimized away.
volatile int64_t g_sink = 0;

struct DirectRun {
  fm::AssignResult result;
  fm::PerfCounters counters;
  double ms = 0.0;
};

/// One Matcher::Run on `dataset` with a fresh ExecContext, assembled the
/// way a server lane assembles it.
DirectRun RunDirect(const serve::ResidentDataset& dataset,
                    const std::string& matcher, Tracer* tracer) {
  const fm::MatcherInfo* info = fm::MatcherRegistry::Global().Find(matcher);
  fm::ExecContext ctx;
  fm::MatcherEnv env;
  env.problem = &dataset.problem();
  env.tree = dataset.tree();
  env.buffer_fraction = kBufferFraction;
  env.ctx = &ctx;
  std::optional<fm::DiskFunctionStore> disk;
  if (info->needs_disk_functions) {
    disk.emplace(dataset.problem().functions, kBufferFraction,
                 &ctx.counters());
    env.fn_store = &*disk;
  }
  std::unique_ptr<fm::PackedFunctionStore> view;
  if (info->needs_packed_functions) {
    view = fm::PackedFunctionStore::NewSharedView(*dataset.packed());
    env.packed_fns = view.get();
  }
  std::unique_ptr<fm::Matcher> instance =
      fm::MatcherRegistry::Global().Create(matcher, env);
  DirectRun run;
  const int64_t begin_ns = NowNs();
  run.result = instance->Run();
  const int64_t end_ns = NowNs();
  tracer->Add("assign.run." + matcher, begin_ns, end_ns);
  run.ms = NsToMs(end_ns - begin_ns);
  run.counters = ctx.counters();
  return run;
}

bool Served(const WorkloadSpec& spec, const std::string& matcher) {
  for (const RequestKind& kind : spec.mix) {
    if (matcher == kind.matcher) return true;
  }
  return false;
}

/// Median duration of the spans called `name`, in `scale` units per ms.
double MedianSpan(const Tracer& tracer, const std::string& name,
                  double scale = 1.0) {
  return Median(tracer.DurationsMs(name)) * scale;
}

double PercentileSpan(const Tracer& tracer, const std::string& name,
                      double p, double scale = 1.0) {
  return Percentile(tracer.DurationsMs(name), p) * scale;
}

}  // namespace

int64_t ProbeAssign(const ProbeInputs& in, Tracer* tracer,
                    const std::map<std::string, double>& served_exec_p50_ms,
                    Report* out) {
  int64_t failed = 0;
  int64_t sb_loops = 0;
  int64_t sb_pairs = 0;
  double sb_peak_mb = 0.0;
  int64_t served_runs = 0;
  int64_t served_io = 0;
  int64_t served_hits = 0;
  int64_t served_logical = 0;
  for (int rep = 0; rep < kAssignReps; ++rep) {
    for (size_t d = 0; d < in.datasets.size(); ++d) {
      for (const char* matcher : kProbeMatchers) {
        const DirectRun run = RunDirect(*in.datasets[d], matcher, tracer);
        if (!run.result.status.ok() ||
            MatchingDigest(run.result.matching) != in.digests[d]) {
          ++failed;
        }
        const bool served = Served(*in.spec, matcher);
        if (rep > 0) continue;  // counts are identical on every rep
        if (std::string(matcher) == "SB") {
          sb_loops += run.result.stats.loops;
          sb_pairs += static_cast<int64_t>(run.result.stats.pairs);
          sb_peak_mb = std::max(sb_peak_mb, run.result.stats.peak_memory_mb());
        }
        if (served) {
          ++served_runs;
          served_io += run.result.stats.io_accesses;
          served_hits += run.counters.buffer_hits;
          served_logical += run.counters.logical_reads;
        }
      }
    }
  }
  for (const char* matcher : kProbeMatchers) {
    out->push_back({std::string("assign.run_ms.") + matcher,
                    MedianSpan(*tracer, std::string("assign.run.") + matcher),
                    "ms"});
  }
  const double datasets = static_cast<double>(in.datasets.size());
  out->push_back({"assign.loops", static_cast<double>(sb_loops) / datasets,
                  "count"});
  out->push_back({"assign.pairs_per_loop",
                  sb_loops > 0 ? static_cast<double>(sb_pairs) / sb_loops : 0.0,
                  "count"});
  out->push_back({"assign.peak_mem_mb", sb_peak_mb, "MB"});
  double overhead = 0.0;
  for (const auto& [matcher, exec_p50] : served_exec_p50_ms) {
    overhead += exec_p50 - MedianSpan(*tracer, "assign.run." + matcher);
  }
  out->push_back({"engine.overhead_ms",
                  served_exec_p50_ms.empty()
                      ? 0.0
                      : overhead / static_cast<double>(
                                       served_exec_p50_ms.size()),
                  "ms"});
  out->push_back({"storage.io_per_request",
                  served_runs > 0 ? static_cast<double>(served_io) / served_runs
                                  : 0.0,
                  "count"});
  out->push_back({"storage.hit_rate",
                  served_logical > 0
                      ? static_cast<double>(served_hits) / served_logical
                      : 0.0,
                  "ratio"});
  return failed;
}

int64_t ProbeLayers(const ProbeInputs& in, Tracer* tracer, Report* out) {
  int64_t failed = 0;
  const serve::ResidentDataset& d0 = *in.datasets[0];
  const fm::AssignmentProblem& p0 = d0.problem();

  // rtree: STR bulk load; topk: packed image build.
  for (int rep = 0; rep < kBuildReps; ++rep) {
    for (const serve::DatasetHandle& dataset : in.datasets) {
      const fm::AssignmentProblem& problem = dataset->problem();
      {
        fm::MemNodeStore store(problem.dims);
        fm::RTree tree(&store);
        ScopedSpan span(tracer, "rtree.bulk_load");
        fm::BuildObjectTree(problem, &tree);
      }
      {
        ScopedSpan span(tracer, "topk.pack");
        fm::PackedFunctionStore packed(problem.functions);
        g_sink = g_sink + packed.num_blocks();
      }
    }
  }
  out->push_back({"rtree.bulk_load_ms", MedianSpan(*tracer, "rtree.bulk_load"),
                  "ms"});
  out->push_back({"topk.pack_ms", MedianSpan(*tracer, "topk.pack"), "ms"});

  // skyline: BBS initial skyline, then RemoveAndUpdate replaying the
  // reference matching in pair order.
  int64_t sky_size = 0;
  int64_t sky_nodes = 0;
  int64_t update_nodes = 0;
  std::vector<std::pair<fm::Point, fm::ObjectId>> d0_skyline;
  for (size_t d = 0; d < in.datasets.size(); ++d) {
    const serve::ResidentDataset& dataset = *in.datasets[d];
    const fm::AssignResult reference = fm::update::RunOnDataset(dataset, "SB");
    fm::SkylineManager skyline(dataset.tree());
    {
      ScopedSpan span(tracer, "skyline.initial");
      skyline.ComputeInitial();
    }
    sky_size += static_cast<int64_t>(skyline.skyline().size());
    sky_nodes += skyline.nodes_read();
    if (d == 0) {
      skyline.skyline().ForEach([&](int, const fm::SkylineObject& member) {
        d0_skyline.emplace_back(member.point, member.id);
      });
    }
    const int64_t before = skyline.nodes_read();
    {
      ScopedSpan span(tracer, "skyline.update");
      for (const fm::MatchPair& pair : reference.matching) {
        if (!skyline.skyline().Contains(pair.oid)) {
          ++failed;  // SB only ever matches skyline members
          break;
        }
        skyline.RemoveAndUpdate({pair.oid});
      }
    }
    update_nodes += skyline.nodes_read() - before;
  }
  const double datasets = static_cast<double>(in.datasets.size());
  out->push_back({"skyline.initial_ms", MedianSpan(*tracer, "skyline.initial"),
                  "ms"});
  out->push_back({"skyline.size", sky_size / datasets, "count"});
  out->push_back({"skyline.nodes_read", sky_nodes / datasets, "count"});
  out->push_back({"skyline.update_ms", MedianSpan(*tracer, "skyline.update"),
                  "ms"});
  out->push_back({"skyline.update_nodes_read", update_nodes / datasets,
                  "count"});

  // topk: ReverseTop1::Best for every initial skyline member of d0, per
  // backend. Pass one assigns each result, so pass two resumes past
  // taken functions (and may exhaust Omega and restart).
  int64_t probes = 0;
  int64_t restarts = 0;
  int64_t calls = 0;
  auto best_calls = [&](fm::FunctionIndexBase* index, bool impact_ordered,
                        const std::string& span_name) {
    fm::ReverseTop1Options options;
    options.impact_ordered = impact_ordered;
    fm::ReverseTop1 searcher(index, options);
    std::vector<fm::ReverseTop1State> states(d0_skyline.size());
    std::vector<uint8_t> assigned(p0.functions.size(), 0);
    int64_t unassigned = static_cast<int64_t>(p0.functions.size());
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < d0_skyline.size(); ++i) {
        const int64_t begin_ns = NowNs();
        const auto best = searcher.Best(&states[i], d0_skyline[i].first,
                                        assigned, unassigned);
        tracer->Add(span_name, begin_ns, NowNs());
        ++calls;
        if (pass == 0 && best.has_value()) {
          assigned[static_cast<size_t>(best->first)] = 1;
          --unassigned;
        }
      }
    }
    probes += searcher.probes();
    restarts += searcher.restarts();
  };
  {
    fm::FunctionLists lists(&p0.functions);
    best_calls(&lists, false, "topk.best.lists");
    std::unique_ptr<fm::PackedFunctionStore> view =
        fm::PackedFunctionStore::NewSharedView(*d0.packed());
    best_calls(view.get(), true, "topk.best.packed");
    fm::DiskFunctionStore disk(p0.functions, kBufferFraction);
    best_calls(&disk, false, "topk.best.disk");
  }
  for (const char* backend : {"lists", "packed", "disk"}) {
    out->push_back({std::string("topk.best_us.") + backend,
                    MedianSpan(*tracer, std::string("topk.best.") + backend,
                               1e3),
                    "us"});
  }
  out->push_back({"topk.probes_per_call",
                  calls > 0 ? static_cast<double>(probes) / calls : 0.0,
                  "count"});
  out->push_back({"topk.restarts", static_cast<double>(restarts), "count"});

  // topk: DecodeBlock sweep over every block of d0's packed image.
  {
    const fm::PackedFunctionStore& packed = *d0.packed();
    const int blocks = packed.dims() * packed.num_blocks();
    std::vector<int32_t> fids(static_cast<size_t>(packed.block_entries()));
    const int64_t sweeps = kBlockDecodes / blocks + 1;
    int64_t sum = 0;
    const int64_t begin_ns = NowNs();
    for (int64_t s = 0; s < sweeps; ++s) {
      for (int dim = 0; dim < packed.dims(); ++dim) {
        for (int b = 0; b < packed.num_blocks(); ++b) {
          sum += packed.DecodeBlock(dim, b, fids.data()) + fids[0];
        }
      }
    }
    const int64_t end_ns = NowNs();
    tracer->Add("topk.decode_sweep", begin_ns, end_ns);
    g_sink = g_sink + sum;
    out->push_back({"topk.decode_ns_per_block",
                    static_cast<double>(end_ns - begin_ns) /
                        static_cast<double>(sweeps * blocks),
                    "ns"});
    out->push_back({"topk.blocks", static_cast<double>(blocks), "count"});
  }

  // storage: DiskFunctionStore::Entry scan at a 2% buffer, and the
  // fsync a durable append pays.
  {
    fm::DiskFunctionStore disk(p0.functions, kBufferFraction);
    const int entries = disk.dims() * disk.size();
    int64_t sum = 0;
    for (int rep = 0; rep < kEntryScanReps; ++rep) {
      ScopedSpan span(tracer, "storage.entry_scan");
      for (int dim = 0; dim < disk.dims(); ++dim) {
        for (int pos = 0; pos < disk.size(); ++pos) {
          sum += disk.Entry(dim, pos).second;
        }
      }
    }
    g_sink = g_sink + sum;
    out->push_back({"storage.entry_ns",
                    MedianSpan(*tracer, "storage.entry_scan", 1e6 / entries),
                    "ns"});
  }
  std::string payload;
  fm::recover::EncodeBatch((*in.stream)[0], p0.dims, &payload);
  {
    const std::string path = in.workdir + "/fsync.probe";
    std::string error;
    fm::DurableFile file = fm::DurableFile::Create(path, &error);
    for (int i = 0; i < kFsyncs && file.valid(); ++i) {
      if (!file.Append(payload.data(), payload.size(), nullptr, "probe",
                       &error)) {
        ++failed;
        break;
      }
      ScopedSpan span(tracer, "storage.fsync");
      if (!file.Sync(nullptr, "probe", &error)) ++failed;
    }
    if (!file.valid()) ++failed;
    file.Close();
    std::remove(path.c_str());
  }
  out->push_back({"storage.fsync_p50_ms",
                  PercentileSpan(*tracer, "storage.fsync", 0.5), "ms"});
  out->push_back({"storage.fsync_p99_ms",
                  PercentileSpan(*tracer, "storage.fsync", 0.99), "ms"});

  // update: the ingest batch stream through a plain (non-durable)
  // DeltaBuilder from the ingest dataset's epoch 1.
  {
    fm::update::DeltaOptions options;
    const ReplayRun replay =
        ReplayStream(in.ingest_base, options, *in.stream, {}, 0, tracer);
    failed += replay.failed;
    const double batches = static_cast<double>(in.stream->size());
    out->push_back({"update.apply_p50_ms",
                    PercentileSpan(*tracer, "update.apply", 0.5), "ms"});
    out->push_back({"update.apply_p99_ms",
                    PercentileSpan(*tracer, "update.apply", 0.99), "ms"});
    out->push_back({"update.tree_ops_per_batch",
                    static_cast<double>(replay.tree_ops) / batches, "count"});
    out->push_back({"update.compactions",
                    static_cast<double>(replay.compactions), "count"});
    out->push_back({"update.overlay_entries",
                    static_cast<double>(replay.overlay_entries), "count"});
  }

  // recover: WalWriter::Append of the same batches, and a snapshot of
  // d0.
  {
    const std::string path = in.workdir + "/probe.wal";
    fm::recover::WalWriter wal;
    if (!fm::recover::WalWriter::Create(path, nullptr, &wal).ok()) ++failed;
    const size_t appends =
        std::min(in.stream->size(), static_cast<size_t>(kWalAppends));
    for (size_t i = 0; i < appends && wal.valid(); ++i) {
      payload.clear();
      fm::recover::EncodeBatch((*in.stream)[i], p0.dims, &payload);
      ScopedSpan span(tracer, "recover.wal_append");
      if (!wal.Append(static_cast<int64_t>(i) + 2, payload, nullptr).ok()) {
        ++failed;
      }
    }
    wal = fm::recover::WalWriter();
    std::remove(path.c_str());
  }
  {
    const std::string path = in.workdir + "/probe.snap";
    for (int rep = 0; rep < kSnapshotWrites; ++rep) {
      ScopedSpan span(tracer, "recover.snapshot_write");
      if (!fm::recover::WriteSnapshot(path, d0, nullptr).ok()) ++failed;
    }
    std::remove(path.c_str());
  }
  out->push_back({"recover.wal_append_p50_ms",
                  PercentileSpan(*tracer, "recover.wal_append", 0.5), "ms"});
  out->push_back({"recover.wal_append_p99_ms",
                  PercentileSpan(*tracer, "recover.wal_append", 0.99), "ms"});
  out->push_back({"recover.snapshot_write_ms",
                  MedianSpan(*tracer, "recover.snapshot_write"), "ms"});
  return failed;
}

size_t InitialSkylineSize(const WorkloadSpec& spec, uint64_t seed, int index) {
  const fm::AssignmentProblem problem = MakeProblem(spec, seed, index);
  fm::MemNodeStore store(problem.dims);
  fm::RTree tree(&store);
  fm::BuildObjectTree(problem, &tree);
  fm::SkylineManager skyline(&tree);
  skyline.ComputeInitial();
  return skyline.skyline().size();
}

}  // namespace perfbench
