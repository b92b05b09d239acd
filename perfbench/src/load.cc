#include "load.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>
#include <utility>

#include "fairmatch/common/rng.h"

namespace perfbench {

namespace serve = fairmatch::serve;

namespace {

int64_t LiveEpoch(const serve::DatasetRegistry& registry,
                  const std::string& name) {
  const serve::DatasetHandle handle = registry.Find(name);
  return handle != nullptr ? handle->epoch() : 0;
}

}  // namespace

LoadRun RunOpenLoop(serve::Server* server, const LoadPlan& plan,
                    Tracer* tracer) {
  // The whole schedule is drawn up front, so the generator loop only
  // sleeps and submits.
  fairmatch::Rng rng(plan.seed);
  std::vector<int64_t> due_offset_ns(static_cast<size_t>(plan.count));
  std::vector<int> dataset_of(static_cast<size_t>(plan.count));
  double t = 0.0;
  for (int i = 0; i < plan.count; ++i) {
    t += rng.Exponential(plan.rate);
    due_offset_ns[static_cast<size_t>(i)] = static_cast<int64_t>(t * 1e9);
    dataset_of[static_cast<size_t>(i)] = static_cast<int>(rng.UniformInt(
        0, static_cast<int64_t>(plan.datasets.size()) - 1));
  }

  LoadRun run;
  run.records.resize(static_cast<size_t>(plan.count));
  std::vector<serve::ResponseFuture> futures(static_cast<size_t>(plan.count));
  std::vector<int64_t> due_ns(static_cast<size_t>(plan.count));
  std::vector<int64_t> submit_ns(static_cast<size_t>(plan.count));
  std::vector<int64_t> root_span(static_cast<size_t>(plan.count));
  const serve::DatasetRegistry& registry = *server->registry();

  const int64_t start_ns = NowNs();
  for (int i = 0; i < plan.count; ++i) {
    const size_t at = static_cast<size_t>(i);
    RequestRecord& record = run.records[at];
    record.dataset = dataset_of[at];
    record.kind = i % static_cast<int>(plan.mix.size());
    const RequestKind& kind = plan.mix[static_cast<size_t>(record.kind)];
    const std::string& name = plan.datasets[static_cast<size_t>(record.dataset)];

    due_ns[at] = start_ns + due_offset_ns[at];
    std::this_thread::sleep_until(Clock::time_point(
        std::chrono::nanoseconds(due_ns[at])));

    serve::Request request;
    request.dataset = name;
    request.matcher = kind.matcher;
    request.disk_resident_functions = kind.disk_resident_functions;
    request.buffer_fraction = 0.02;
    record.epoch_lo = LiveEpoch(registry, name);
    submit_ns[at] = NowNs();
    futures[at] = server->Submit(std::move(request));
    const int64_t submitted_ns = NowNs();
    record.epoch_hi = LiveEpoch(registry, name);
    record.due_ns = due_ns[at];
    record.lag_ms = NsToMs(submit_ns[at] - due_ns[at]);
    record.submit_us = static_cast<double>(submitted_ns - submit_ns[at]) / 1e3;
    if (tracer->enabled()) {
      root_span[at] = tracer->NewId();
      tracer->Add("serve.submit", submit_ns[at], submitted_ns, root_span[at], i);
    }
  }

  run.span_s = NsToMs(NowNs() - start_ns) / 1e3;

  for (int i = 0; i < plan.count; ++i) {
    const size_t at = static_cast<size_t>(i);
    RequestRecord& record = run.records[at];
    const serve::Response& response = futures[at].Wait();
    record.status_ok = response.status.ok();
    record.digest = MatchingDigest(response.matching);
    record.queue_ms = response.queue_ms;
    record.exec_ms = response.exec_ms;
    record.io_accesses = response.stats.io_accesses;
    record.latency_ms = record.lag_ms + response.total_ms;
    if (tracer->enabled()) {
      // Queue wait and execution come from the Response's own timings,
      // laid out from the Submit() call that started them.
      const int64_t queued_end =
          submit_ns[at] + static_cast<int64_t>(response.queue_ms * 1e6);
      tracer->Add("serve.queue", submit_ns[at], queued_end, root_span[at], i);
      tracer->Add("engine.exec", queued_end,
                  queued_end + static_cast<int64_t>(response.exec_ms * 1e6),
                  root_span[at], i);
      tracer->Add("load.request", due_ns[at],
                  due_ns[at] + static_cast<int64_t>(record.latency_ms * 1e6),
                  0, i, root_span[at]);
    }
    futures[at] = serve::ResponseFuture();  // release the matching
  }
  return run;
}

int64_t CountFailed(const LoadRun& run, const Verifier& verify) {
  int64_t failed = 0;
  for (const RequestRecord& record : run.records) {
    if (!verify(record)) ++failed;
  }
  return failed;
}

std::vector<double> Latencies(const LoadRun& run) {
  std::vector<double> out;
  out.reserve(run.records.size());
  for (const RequestRecord& record : run.records) {
    out.push_back(record.latency_ms);
  }
  return out;
}

double MeanCellMedianMs(const std::vector<RequestRecord>& records) {
  std::map<std::pair<int, int>, std::vector<double>> cells;
  for (const RequestRecord& record : records) {
    cells[{record.dataset, record.kind}].push_back(record.latency_ms);
  }
  double sum = 0.0;
  for (auto& [cell, latencies] : cells) sum += Median(std::move(latencies));
  return cells.empty() ? 0.0 : sum / cells.size();
}

double BurstSeconds(const LoadRun& run) {
  if (run.records.empty()) return 0.0;
  int64_t first_ns = run.records.front().due_ns;
  int64_t last_ns = first_ns;
  for (const RequestRecord& record : run.records) {
    first_ns = std::min(first_ns, record.due_ns);
    last_ns = std::max(last_ns, record.due_ns + static_cast<int64_t>(
                                                    record.latency_ms * 1e6));
  }
  return NsToMs(last_ns - first_ns) / 1e3;
}

namespace {
double Rung(double nominal_rps, int k) {
  return nominal_rps * std::pow(1.025, k);
}
}  // namespace

void SloSearch::Step(serve::Server* server, const LoadPlan& nominal,
                     const Verifier& verify, int64_t* attempted,
                     int64_t* failed) {
  if (done()) return;
  const int mid = lo_ + (hi_ - lo_) / 2;
  LoadPlan plan = nominal;
  plan.rate = Rung(nominal.rate, mid);
  plan.count = std::max(100, static_cast<int>(plan.rate * probe_seconds_));
  plan.seed = nominal.seed ^ (static_cast<uint64_t>(mid + 1000) << 40);
  Tracer untraced(false);
  const LoadRun run = RunOpenLoop(server, plan, &untraced);
  const int64_t bad = CountFailed(run, verify);
  *attempted += plan.count;
  *failed += bad;
  const std::vector<double> latencies = Latencies(run);
  // A growing backlog shows as the last fifth of requests waiting well
  // beyond the first fifth.
  const size_t fifth = latencies.size() / 5;
  const double head = Median(std::vector<double>(
      latencies.begin(), latencies.begin() + static_cast<long>(fifth)));
  const double tail = Median(std::vector<double>(
      latencies.end() - static_cast<long>(fifth), latencies.end()));
  const bool pass = bad == 0 && Percentile(latencies, 0.99) <= slo_ms_ &&
                    tail <= head + slo_ms_ / 2;
  (pass ? lo_ : hi_) = mid;
}

double SloSearch::rate(double nominal_rps) const {
  return Rung(nominal_rps, lo_);
}

}  // namespace perfbench
