// fairmatch_perfbench: one workload, one seed, one run.
//
//   fairmatch_perfbench --workload serve_mem --seed 1 --seconds 30
//                       --trace 0 --workdir DIR [--spans FILE]
//
// Prints the reference digests ("digest ..."), a premise report
// ("premise ..."), every metric as "metric <name> <value> <unit>", and
// as the last line one JSON object {correct, attempted, failed,
// metrics}. --trace 0 measures the end-to-end metrics, with a capacity
// burst in every round; --trace 1 runs the same rounds with spans on and
// a step of the SLO search in place of the burst, adds the per-layer
// probes, and its JSON carries the per-layer metrics. Exits 1 when any
// response, epoch or recovered state fails its digest check, 2 on bad
// arguments or a setup failure. See perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "fairmatch/recover/durable_builder.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/serve/server.h"
#include "fairmatch/topk/packed_function_lists.h"
#include "ingest.h"
#include "layers.h"
#include "load.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fm = fairmatch;
namespace serve = fairmatch::serve;
namespace recover = fairmatch::recover;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = kReferenceSeconds;
  bool trace = false;
  std::string workdir;
  std::string spans;
  bool corrupt_reference = false;  // self-test hook: poisons one digest
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0.0;
}

/// Everything setup builds.
struct State {
  std::unique_ptr<serve::DatasetRegistry> registry;
  /// The queried datasets at epoch 1, d0 first.
  std::vector<serve::DatasetHandle> datasets;
  /// Epoch 1 of the dataset the writer updates: d0 on ingest_serve, a
  /// dataset of its own on the serve workloads (queries never see it).
  serve::DatasetHandle ingest_base;
  std::unique_ptr<recover::DurableBuilder> writer;
  recover::DurableOptions log;
};

serve::DatasetHandle OpenDataset(const WorkloadSpec& spec, uint64_t seed,
                                 int index, const std::string& name,
                                 const std::string& dir,
                                 serve::DatasetRegistry* registry) {
  const fm::AssignmentProblem problem = MakeProblem(spec, seed, index);
  serve::DatasetOptions options;
  if (spec.packed_mmap) {
    // The image file lives in the run's directory; Open maps it.
    options.packed_image_path = dir + "/" + name + ".pkfl";
    if (!fm::PackedFunctionStore::WriteFile(problem.functions,
                                            options.packed_image_path)) {
      return nullptr;
    }
  }
  serve::DatasetHandle handle;
  if (!registry->OpenOrError(name, problem, options, &handle).ok()) {
    return nullptr;
  }
  if (spec.packed_mmap && !handle->packed()->mapped()) return nullptr;
  return handle;
}

/// Data generation, dataset opens and the WAL bootstrap — what setup_s
/// times. Builds everything under `dir`, which must not exist.
bool Setup(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
           State* state) {
  std::error_code error;
  if (!std::filesystem::create_directory(dir, error)) return false;
  state->registry = std::make_unique<serve::DatasetRegistry>();
  for (int i = 0; i < spec.datasets; ++i) {
    serve::DatasetHandle handle = OpenDataset(
        spec, seed, i, DatasetName(i), dir, state->registry.get());
    if (handle == nullptr) return false;
    state->datasets.push_back(std::move(handle));
  }
  state->ingest_base =
      spec.ingest_beside_queries
          ? state->datasets[0]
          : OpenDataset(spec, seed, spec.datasets, "ingest", dir,
                        state->registry.get());
  if (state->ingest_base == nullptr) return false;
  state->log.dir = dir + "/log";
  state->log.snapshot_threshold = kSnapshotThreshold;
  if (!std::filesystem::create_directory(state->log.dir, error)) return false;
  return recover::DurableBuilder::Bootstrap(state->ingest_base, state->log,
                                            &state->writer)
      .ok();
}

class Output {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Add(const Report& report) {
    metrics_.insert(metrics_.end(), report.begin(), report.end());
  }

  /// Prints the report lines and the final JSON line.
  void Print(bool correct, int64_t attempted, int64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

double RepeatKeyShare(const LoadRun& run) {
  std::set<std::tuple<int, int64_t, int>> seen;
  int64_t repeats = 0;
  for (const RequestRecord& r : run.records) {
    if (!seen.insert({r.dataset, r.epoch_lo, r.kind}).second) ++repeats;
  }
  return run.records.empty()
             ? 0.0
             : static_cast<double>(repeats) / run.records.size();
}

const char* Verdict(bool ok) { return ok ? "ok" : "VIOLATED"; }

/// The queries whose latency is typical of the workload: all of them,
/// except on ingest_serve, where only those sent while the writer ran
/// count (the rest of each round's queries, after its writer slice, are
/// checked but would mix in the uncontended regime).
std::vector<RequestRecord> Typical(const WorkloadSpec& spec,
                                   const std::vector<RequestRecord>& records,
                                   const IngestRun& ingest) {
  std::vector<RequestRecord> out;
  for (const RequestRecord& r : records) {
    bool keep = !spec.ingest_beside_queries;
    for (const auto& [begin_ns, end_ns] : ingest.windows) {
      keep = keep || (r.due_ns >= begin_ns && r.due_ns < end_ns);
    }
    if (keep) out.push_back(r);
  }
  return out;
}

/// Per-round figures of the untraced run. A timing metric is the round
/// at the fast quartile (RoundQuartile): the host's speed swings by
/// 20-30% over tens of seconds, so a slow stretch covering a third of a
/// run moves a median of the run's samples by about its whole
/// slowdown, but leaves the fast quartile of the rounds alone.
struct Rounds {
  std::vector<double> query_ms;       // MeanCellMedianMs of the round
  std::vector<double> apply_ms;       // median Apply + Publish
  std::vector<double> updates_per_s;  // median snapshot cycle
  std::vector<double> burst_rps;      // the capacity burst's rate
};

/// The fast quartile of per-round values: the 25th percentile of a
/// time, the 75th of a rate.
double RoundQuartile(const std::vector<double>& values, bool lower_better) {
  return Percentile(values, lower_better ? 0.25 : 0.75);
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const double scale = args.seconds / kReferenceSeconds;
  Tracer tracer(args.trace);
  Tracer untraced(false);
  Output out;
  int64_t attempted = 0;
  int64_t failed = 0;

  // Setup runs once per round plus once up front; the up-front copy is
  // the one the run measures, the others are timed and dropped.
  std::vector<double> setup_s;
  auto timed_setup = [&](int rep, State* state) {
    const int64_t begin_ns = NowNs();
    const std::string dir = args.workdir + "/setup" + std::to_string(rep);
    if (!Setup(*spec, args.seed, dir, state)) {
      std::fprintf(stderr, "setup failed in %s\n", dir.c_str());
      return false;
    }
    setup_s.push_back(NsToMs(NowNs() - begin_ns) / 1e3);
    return true;
  };
  State state;
  if (!timed_setup(0, &state)) return 2;
  double resident_bytes = 0.0;
  for (const serve::DatasetHandle& d : state.datasets) {
    resident_bytes += static_cast<double>(d->memory_bytes());
  }
  if (state.ingest_base != state.datasets[0]) {
    resident_bytes += static_cast<double>(state.ingest_base->memory_bytes());
  }

  // Reference digests: a direct SB run per (dataset, epoch), untimed.
  std::vector<uint64_t> digests;
  std::vector<std::string> names;
  std::map<std::pair<int, int64_t>, uint64_t> reference;
  for (size_t d = 0; d < state.datasets.size(); ++d) {
    bool ok = true;
    digests.push_back(ReferenceDigest(*state.datasets[d], &ok));
    names.push_back(state.datasets[d]->name());
    if (!ok) return 2;
    std::printf("digest %s epoch 1 %016llx\n", names[d].c_str(),
                static_cast<unsigned long long>(digests[d]));
    reference[{static_cast<int>(d), 1}] = digests[d];
  }
  if (args.corrupt_reference) reference[{0, 1}] ^= 1;
  const Verifier verify = [&reference](const RequestRecord& r) {
    if (!r.status_ok) return false;
    for (int64_t e = r.epoch_lo; e <= r.epoch_hi; ++e) {
      auto it = reference.find({r.dataset, e});
      if (it != reference.end() && it->second == r.digest) return true;
    }
    return false;
  };

  const std::vector<size_t> slice_ends = WriterSliceEnds(*spec);
  const std::vector<fm::update::UpdateBatch> stream =
      MakeBatchStream(*spec, args.seed, static_cast<int>(slice_ends.back()));

  serve::ServerOptions server_options;
  server_options.lanes = spec->lanes;
  server_options.max_queue = size_t{1} << 20;  // open loop: never reject
  serve::Server server(state.registry.get(), server_options);

  LoadPlan plan;
  plan.datasets = names;
  plan.mix = spec->mix;
  plan.rate = spec->nominal_rps;
  plan.count = std::max(
      30, static_cast<int>(std::lround(spec->nominal_requests * scale)) /
              kRounds);
  plan.seed = args.seed * 0x9e3779b97f4a7c15ull + 17;

  // Warm-up, untimed: one burst over the datasets, so that the first
  // round does not pay for first-touch page faults and cold caches.
  {
    LoadPlan warm = plan;
    warm.rate = kBurstRps;
    warm.count = kBurstRequests;
    warm.seed = plan.seed ^ 0x3a3a3a3a;
    Tracer off(false);
    const LoadRun run = RunOpenLoop(&server, warm, &off);
    attempted += static_cast<int64_t>(run.records.size());
    failed += CountFailed(run, verify);
  }

  // --- the rounds.
  LoadRun load;
  IngestRun ingest;
  RecoverRun restarts;
  LogBytes log_bytes(state.log.dir);
  // Two independent searches, stepped in alternate rounds; the metric
  // is their mean, which halves the weight of any one probe's stretch.
  std::vector<SloSearch> slo(2, SloSearch(spec->slo_p99_ms,
                                          0.03 * args.seconds));
  Rounds rounds;
  size_t written = 0;
  uint64_t last_digest = 0;
  int64_t last_epoch = 1;
  for (int round = 0; round < kRounds && state.writer != nullptr; ++round) {
    {
      State scratch;
      if (!timed_setup(round + 1, &scratch)) return 2;
    }  // the copy closes its files before its directory goes
    std::error_code error;
    std::filesystem::remove_all(
        args.workdir + "/setup" + std::to_string(round + 1), error);

    LoadPlan slice = plan;
    slice.seed = plan.seed + static_cast<uint64_t>(round) * 7777;
    LoadRun part;
    const size_t end = slice_ends[static_cast<size_t>(round)];
    const size_t applies_before = ingest.apply_ms.size();
    const size_t cycles_before = ingest.cycle_updates_per_s.size();
    if (spec->ingest_beside_queries) {
      std::thread writer([&] {
        RunDurableWriter(state.writer.get(), state.registry.get(), stream,
                         written, end, &log_bytes, &tracer, &ingest);
      });
      part = RunOpenLoop(&server, slice, &tracer);
      writer.join();
    } else {
      part = RunOpenLoop(&server, slice, &tracer);
      RunDurableWriter(state.writer.get(), state.registry.get(), stream,
                       written, end, &log_bytes, &tracer, &ingest);
    }
    written = end;
    load.records.insert(load.records.end(), part.records.begin(),
                        part.records.end());
    load.span_s += part.span_s;
    const std::vector<RequestRecord> typical =
        Typical(*spec, part.records, ingest);
    if (!typical.empty()) rounds.query_ms.push_back(MeanCellMedianMs(typical));
    rounds.apply_ms.push_back(Median(std::vector<double>(
        ingest.apply_ms.begin() + static_cast<long>(applies_before),
        ingest.apply_ms.end())));
    rounds.updates_per_s.push_back(Median(std::vector<double>(
        ingest.cycle_updates_per_s.begin() + static_cast<long>(cycles_before),
        ingest.cycle_updates_per_s.end())));

    // Crash -> serving again: the writer stops, restarts recover its
    // directory, and the last recovered builder writes the next slice.
    bool ran = true;
    last_digest = ReferenceDigest(*state.writer->current(), &ran);
    last_epoch = state.writer->epoch();
    if (!ran) ++failed;
    if (spec->ingest_beside_queries) reference[{0, last_epoch}] = last_digest;
    state.writer.reset();
    state.writer = RunRecoverRounds(state.log, kRestartsPerRound, last_epoch,
                                    last_digest, &tracer, &restarts);

    if (args.trace) {
      LoadPlan probe = plan;
      probe.seed ^= static_cast<uint64_t>(round % 2) << 56;
      slo[static_cast<size_t>(round % 2)].Step(&server, probe, verify,
                                               &attempted, &failed);
    } else {
      LoadPlan burst = plan;
      burst.rate = kBurstRps;
      burst.count = kBurstRequests;
      burst.seed = plan.seed + static_cast<uint64_t>(round) * 7777 + 1;
      Tracer off(false);
      const LoadRun run = RunOpenLoop(&server, burst, &off);
      attempted += static_cast<int64_t>(run.records.size());
      failed += CountFailed(run, verify);
      rounds.burst_rps.push_back(static_cast<double>(run.records.size()) /
                                 BurstSeconds(run));
    }
  }
  attempted += static_cast<int64_t>(load.records.size() + written +
                                    restarts.total_ms.size());
  failed += ingest.failed + restarts.failed;

  if (spec->ingest_beside_queries) {
    // Reference digests of every epoch a query may have run on, from a
    // replay of the same batch stream.
    std::set<int64_t> epochs;
    for (const RequestRecord& r : load.records) {
      for (int64_t e = r.epoch_lo; e <= r.epoch_hi; ++e) {
        if (reference.count({0, e}) == 0) epochs.insert(e);
      }
    }
    const int threads = std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
    const std::vector<fm::update::UpdateBatch> applied(
        stream.begin(), stream.begin() + static_cast<long>(written));
    const ReplayRun replay = ReplayStream(state.ingest_base, state.log.delta,
                                          applied, epochs, threads, &untraced);
    failed += replay.failed;
    if (replay.final_digest != last_digest || replay.final_epoch != last_epoch) {
      ++failed;
      std::fprintf(stderr, "replayed final epoch differs from the writer's\n");
    }
    for (const auto& [epoch, digest] : replay.digests) {
      reference[{0, epoch}] = digest;
    }
  }
  std::printf("digest final epoch %lld %016llx\n",
              static_cast<long long>(last_epoch),
              static_cast<unsigned long long>(last_digest));
  const int64_t query_failed = CountFailed(load, verify);
  failed += query_failed;

  const std::vector<double> latencies = Latencies(load);
  if (!args.trace) {
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("query_p50_ms", RoundQuartile(rounds.query_ms, true), "ms");
    out.Add("query_capacity_rps", RoundQuartile(rounds.burst_rps, false),
            "1/s");
    out.Add("apply_p50_ms", RoundQuartile(rounds.apply_ms, true), "ms");
    // Per round, the median snapshot cycle: each cycle's rate counts
    // its one checkpoint, but the I/O stalls of a few checkpoints (they
    // swing 2-3x on a shared disk) do not move it as they move a mean.
    out.Add("updates_per_s", RoundQuartile(rounds.updates_per_s, false),
            "1/s");
    out.Add("recover_ms", Median(restarts.total_ms), "ms");
    out.Add("log_bytes_per_update",
            ingest.updates_acked > 0
                ? static_cast<double>(log_bytes.written()) /
                      ingest.updates_acked
                : 0.0,
            "B");
    out.Add("resident_mb", resident_bytes / (1024.0 * 1024.0), "MB");
  } else {
    std::vector<double> queue, exec, submit, lag;
    std::map<std::string, std::vector<double>> exec_by_matcher;
    for (const RequestRecord& r : load.records) {
      queue.push_back(r.queue_ms);
      exec.push_back(r.exec_ms);
      submit.push_back(r.submit_us);
      lag.push_back(r.lag_ms);
      exec_by_matcher[spec->mix[static_cast<size_t>(r.kind)].matcher]
          .push_back(r.exec_ms);
    }
    std::map<std::string, double> exec_p50_by_matcher;
    for (const auto& [matcher, values] : exec_by_matcher) {
      exec_p50_by_matcher[matcher] = Median(values);
    }
    out.Add("serve.queue_p50_ms", Percentile(queue, 0.5), "ms");
    out.Add("serve.queue_p99_ms", Percentile(queue, 0.99), "ms");
    out.Add("serve.exec_p50_ms", Percentile(exec, 0.5), "ms");
    out.Add("serve.submit_p99_us", Percentile(submit, 0.99), "us");
    out.Add("serve.publish_p99_us",
            Percentile(tracer.DurationsMs("serve.publish"), 0.99) * 1e3, "us");

    ProbeInputs probe;
    probe.spec = spec;
    probe.datasets = state.datasets;
    probe.digests = digests;
    probe.ingest_base = state.ingest_base;
    probe.stream = &stream;
    probe.workdir = args.workdir;
    Report report;
    failed += ProbeAssign(probe, &tracer, exec_p50_by_matcher, &report);
    failed += ProbeLayers(probe, &tracer, &report);
    attempted += 2;  // the two probe suites
    out.Add(report);

    std::vector<double> load_ms, replay_ms;
    for (const recover::RecoveryStats& s : restarts.stats) {
      load_ms.push_back(s.load_ms);
      replay_ms.push_back(s.replay_ms);
    }
    // The two tails are per-layer, not end-to-end: on shared hosts they
    // swing with the host's speed far more than the medians do (ten-seed
    // spreads of 0.3-0.5 against 0.05-0.15). See perfbench/README.md.
    out.Add("query_p99_ms", Percentile(latencies, 0.99), "ms");
    out.Add("apply_p99_ms", Percentile(ingest.apply_ms, 0.99), "ms");
    out.Add("recover.checkpoints", ingest.checkpoints, "count");
    out.Add("recover.load_ms", Median(load_ms), "ms");
    out.Add("recover.replay_ms", Median(replay_ms), "ms");
    out.Add("recover.records_replayed",
            restarts.stats.empty()
                ? 0.0
                : static_cast<double>(restarts.stats[0].wal_records_replayed),
            "count");
    out.Add("query_slo_rps",
            (slo[0].rate(spec->nominal_rps) + slo[1].rate(spec->nominal_rps)) /
                2,
            "1/s");
    out.Add("load.send_lag_p99_ms", Percentile(lag, 0.99), "ms");
    out.Add("load.repeat_key_share", RepeatKeyShare(load), "ratio");

    // Against query_p50_ms of the untraced run with the same seed, this
    // is the tracing overhead.
    out.Add("trace.query_p50_ms", RoundQuartile(rounds.query_ms, true), "ms");
    const std::map<std::string, double> self = tracer.SelfMsByLayer();
    for (const char* layer : {"load", "serve", "engine", "assign", "topk",
                              "skyline", "storage", "rtree", "update",
                              "recover"}) {
      auto it = self.find(layer);
      out.Add(std::string("trace.self_ms.") + layer,
              it != self.end() ? it->second : 0.0, "ms");
    }
    out.Add("trace.spans", static_cast<double>(tracer.size()), "count");
  }

  // --- premise report (both modes).
  const size_t mem_sky =
      InitialSkylineSize(*FindWorkload("serve_mem"), args.seed, 0);
  const size_t anti_sky =
      InitialSkylineSize(*FindWorkload("serve_disk_anti"), args.seed, 0);
  const double sky_ratio =
      mem_sky > 0 ? static_cast<double>(anti_sky) / mem_sky : 0.0;
  if (args.trace) out.Add("premise.skyline_size_ratio", sky_ratio, "ratio");
  double io_sum = 0.0;
  for (const RequestRecord& r : load.records) io_sum += r.io_accesses;
  const double io_per_request =
      load.records.empty() ? 0.0 : io_sum / load.records.size();
  const bool wants_io = std::string(spec->name) == "serve_disk_anti";
  std::printf("premise workload=%s seed=%llu trace=%d\n", spec->name,
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("premise storage.io_per_request %.6g (%s: expected %s)\n",
              io_per_request,
              Verdict(wants_io ? io_per_request > 0 : io_per_request == 0),
              wants_io ? "> 0" : "== 0");
  std::printf("premise skyline.size serve_mem=%zu serve_disk_anti=%zu "
              "ratio=%.3g\n",
              mem_sky, anti_sky, sky_ratio);
  std::printf("premise ingest compactions=%d checkpoints=%d "
              "final_wal_suffix=%lld (%s)\n",
              ingest.compactions, ingest.checkpoints,
              static_cast<long long>(ingest.final_suffix),
              Verdict(ingest.compactions >= 1 && ingest.checkpoints >= 1 &&
                      ingest.final_suffix > 0));
  std::printf("premise ingest writer_s=%.3g query_stream_s=%.3g\n",
              ingest.wall_s, load.span_s);
  std::printf("premise load.repeat_key_share %.6g\n", RepeatKeyShare(load));
  std::printf("premise query_error_rate %.6g (%lld of %zu)\n",
              load.records.empty()
                  ? 0.0
                  : static_cast<double>(query_failed) / load.records.size(),
              static_cast<long long>(query_failed), load.records.size());

  if (args.trace && !args.spans.empty() && !tracer.Write(args.spans)) {
    std::fprintf(stderr, "could not write spans to %s\n", args.spans.c_str());
  }
  server.Close();
  const bool correct = failed == 0;
  out.Print(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fairmatch_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> "
                 "[--spans <file>] [--corrupt-reference]\n");
    return 2;
  }
  return perfbench::Run(args);
}
