#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, int64_t request, int64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = NewId();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
  return id;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(NsToMs(s.end_ns - s.start_ns));
  }
  return out;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to the parent's.
      std::vector<std::pair<int64_t, int64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t cursor = s.start_ns;
      for (const auto& [begin, end] : kids) {
        const int64_t lo = std::max(begin, cursor);
        const int64_t hi = std::min(end, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += NsToMs(s.end_ns - s.start_ns - covered);
  }
  return self;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                 "\"request\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name.c_str(), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace perfbench
