#include "fairmatch/assign/two_skyline.h"

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <vector>

#include "fairmatch/assign/best_pair.h"
#include "fairmatch/common/check.h"
#include "fairmatch/common/stats.h"
#include "fairmatch/common/timer.h"
#include "fairmatch/engine/exec_context.h"
#include "fairmatch/skyline/bbs.h"

namespace fairmatch {

namespace {

/// Deletion-only skyline over the functions' effective-coefficient
/// vectors, in full double precision (exact dominance), with
/// pruned-point parking in the style of UpdateSkyline.
class FunctionSkyline {
 public:
  explicit FunctionSkyline(const FunctionSet& fns) : fns_(&fns) {
    const int dims = fns[0].dims;
    sums_.resize(fns.size());
    removed_.assign(fns.size(), 0);
    plist_.resize(fns.size());
    std::vector<FunctionId> order(fns.size());
    std::iota(order.begin(), order.end(), 0);
    for (const PrefFunction& f : fns) {
      double s = 0.0;
      for (int d = 0; d < dims; ++d) s += f.eff(d);
      sums_[f.id] = s;
    }
    std::sort(order.begin(), order.end(), [&](FunctionId a, FunctionId b) {
      if (sums_[a] != sums_[b]) return sums_[a] > sums_[b];
      return a < b;
    });
    for (FunctionId fid : order) Park(fid);
  }

  /// Removes a function; promotes parked functions it dominated.
  void Remove(FunctionId fid) {
    FAIRMATCH_CHECK(!removed_[fid]);
    removed_[fid] = 1;
    auto it = member_order_.find(std::make_pair(-sums_[fid], fid));
    if (it == member_order_.end()) return;  // dominated: lazily skipped
    member_order_.erase(it);
    std::vector<FunctionId> pending = std::move(plist_[fid]);
    plist_[fid].clear();
    std::sort(pending.begin(), pending.end(),
              [&](FunctionId a, FunctionId b) {
                if (sums_[a] != sums_[b]) return sums_[a] > sums_[b];
                return a < b;
              });
    for (FunctionId p : pending) {
      if (removed_[p]) continue;
      Park(p);
    }
  }

  /// Live skyline member ids (descending effective-sum order).
  template <typename Fn>
  void ForEachMember(Fn&& fn) const {
    for (const auto& [key, fid] : member_order_) fn(fid);
  }

  size_t memory_bytes() const {
    size_t bytes = sums_.size() * 8 + removed_.size() +
                   member_order_.size() * 48;
    for (const auto& list : plist_) bytes += list.capacity() * 4;
    return bytes;
  }

 private:
  /// True iff a strictly dominates b in effective-coefficient space.
  bool Dominates(FunctionId a, FunctionId b) const {
    const PrefFunction& fa = (*fns_)[a];
    const PrefFunction& fb = (*fns_)[b];
    bool strict = false;
    for (int d = 0; d < fa.dims; ++d) {
      double ea = fa.eff(d);
      double eb = fb.eff(d);
      if (ea < eb) return false;
      if (ea > eb) strict = true;
    }
    return strict;
  }

  void Park(FunctionId fid) {
    // Scan members in descending sum order; a dominator has a strictly
    // larger effective sum.
    for (const auto& [key, member] : member_order_) {
      if (-key.first <= sums_[fid]) break;
      if (Dominates(member, fid)) {
        plist_[member].push_back(fid);
        return;
      }
    }
    member_order_.emplace(std::make_pair(-sums_[fid], fid), fid);
  }

  const FunctionSet* fns_;
  std::vector<double> sums_;
  std::vector<uint8_t> removed_;
  std::vector<std::vector<FunctionId>> plist_;
  std::map<std::pair<double, FunctionId>, FunctionId> member_order_;
};

}  // namespace

AssignResult TwoSkylineAssignment(const AssignmentProblem& problem,
                                  const RTree& tree, ExecContext* ctx) {
  Timer timer;
  AssignResult result;
  result.stats.algorithm = "SB-TwoSkylines";

  const FunctionSet& fns = problem.functions;
  std::vector<uint8_t> assigned(fns.size(), 0);
  std::vector<int> fcap(fns.size());
  for (const PrefFunction& f : fns) fcap[f.id] = f.capacity;
  int64_t remaining_fns = static_cast<int64_t>(fns.size());
  std::vector<int> ocap(problem.objects.size());
  for (const ObjectItem& o : problem.objects) ocap[o.id] = o.capacity;

  SkylineManager sky_mgr(&tree);
  FunctionSkyline fsky(fns);
  BestPairEngine engine(&fns);
  MemoryTracker local_memory;
  MemoryTracker& memory = ctx != nullptr ? ctx->memory() : local_memory;

  // Per-object candidate cache. A cached candidate stays the best
  // function: F only shrinks, and a function promoted into F_sky was
  // dominated by a (just removed) member, whose score on this object is
  // itself bounded by the cached candidate's.
  struct Cand {
    FunctionId fid = kInvalidFunction;
    double score = 0.0;
  };
  // Indexed by oid; cands[oid].fid == kInvalidFunction until the object
  // first joins the skyline, and again once it is fully assigned.
  std::vector<Cand> cands(problem.objects.size());
  // Per-loop buffers, reused across loops.
  std::vector<MemberCandidate> members;
  std::vector<ObjectId> added;
  std::vector<MatchPair> pairs;
  std::vector<ObjectId> odel;
  bool first = true;
  bool exhausted = false;

  while (remaining_fns > 0 && !exhausted) {
    // Cancellation point: a storage fault or an expired deadline aborts
    // this run with whatever partial matching is already in `result`.
    if (ctx != nullptr && ctx->ShouldAbort()) break;
    result.stats.loops++;
    if (first) {
      sky_mgr.ComputeInitial();
      first = false;
    } else {
      sky_mgr.RemoveAndUpdate(odel);
    }
    odel.clear();
    SkylineSet& sky = sky_mgr.skyline();
    if (sky.size() == 0) break;

    members.clear();
    added.clear();
    sky.ForEach([&](int, const SkylineObject& m) {
      if (exhausted) return;
      Cand& cand = cands[m.id];
      const bool joined = cand.fid == kInvalidFunction;
      if (joined || assigned[cand.fid]) {
        // Exhaustive scan over the function skyline (Section 6.2).
        cand.fid = kInvalidFunction;
        fsky.ForEachMember([&](FunctionId fid) {
          double s = fns[fid].Score(m.point);
          if (cand.fid == kInvalidFunction || s > cand.score ||
              (s == cand.score && fid < cand.fid)) {
            cand.fid = fid;
            cand.score = s;
          }
        });
        if (cand.fid == kInvalidFunction) {
          exhausted = true;
          return;
        }
      }
      members.push_back(MemberCandidate{m.id, &m.point, cand.fid, cand.score});
      if (joined) added.push_back(m.id);
    });
    if (exhausted || members.empty()) break;

    engine.FindMutualPairs(members, added, &pairs);
    FAIRMATCH_CHECK(!pairs.empty());
    for (const MatchPair& pair : pairs) {
      result.matching.push_back(pair);
      if (--fcap[pair.fid] == 0) {
        assigned[pair.fid] = 1;
        remaining_fns--;
        fsky.Remove(pair.fid);
        engine.OnFunctionAssigned(pair.fid);
      }
      if (--ocap[pair.oid] == 0) {
        odel.push_back(pair.oid);
        cands[pair.oid] = Cand{};
      }
    }
    engine.OnObjectsRemoved(odel);
    memory.Set(sky_mgr.memory_bytes() + fsky.memory_bytes() +
               cands.capacity() * sizeof(Cand) + engine.memory_bytes());
  }

  result.stats.cpu_ms = timer.ElapsedMs();
  result.stats.peak_memory_bytes = memory.peak();
  return result;
}

}  // namespace fairmatch
