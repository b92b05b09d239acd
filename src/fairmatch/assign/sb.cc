#include "fairmatch/assign/sb.h"

#include <algorithm>

#include "fairmatch/common/check.h"
#include "fairmatch/common/stats.h"
#include "fairmatch/common/timer.h"
#include "fairmatch/engine/exec_context.h"
#include "fairmatch/topk/packed_function_lists.h"

namespace fairmatch {

SBAssignment::SBAssignment(const AssignmentProblem* problem,
                           const RTree* tree, SBOptions options,
                           FunctionIndexBase* fn_index, ExecContext* ctx)
    : problem_(problem),
      tree_(tree),
      options_(options),
      fn_index_(fn_index),
      ctx_(ctx) {}

bool SBAssignment::RefreshCandidate(ObjectState* state, const Point& point) {
  if (options_.best_pair_mode == BestPairMode::kExhaustive) {
    // Ablation mode (Algorithm 1 without Section 5.1): no resuming of
    // any kind — every loop re-scans the remaining functions for every
    // skyline member, which is exactly the CPU cost Figure 8 isolates.
    FunctionId best = kInvalidFunction;
    double best_s = 0.0;
    for (const PrefFunction& f : problem_->functions) {
      if (assigned_[f.id]) continue;
      double s = f.Score(point);
      if (best == kInvalidFunction || s > best_s ||
          (s == best_s && f.id < best)) {
        best = f.id;
        best_s = s;
      }
    }
    if (best == kInvalidFunction) return false;
    state->cand_fid = best;
    state->cand_score = best_s;
    return true;
  }
  if (state->cand_fid != kInvalidFunction && !assigned_[state->cand_fid]) {
    return true;  // resumable candidate still valid (Section 5.1)
  }
  auto result = rt1_->Best(&state->ta, point, assigned_, remaining_fns_);
  if (!result.has_value()) return false;
  state->cand_fid = result->first;
  state->cand_score = result->second;
  return true;
}

SBAssignment::ObjectState& SBAssignment::StateOf(ObjectId oid,
                                                 bool* created) {
  int32_t& slot = state_slot_[oid];
  *created = slot < 0;
  if (slot < 0) {
    if (free_slots_.empty()) {
      slot = static_cast<int32_t>(states_.size());
      states_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
  }
  return states_[slot];
}

void SBAssignment::ReleaseState(ObjectId oid) {
  int32_t& slot = state_slot_[oid];
  if (slot < 0) return;
  ObjectState& state = states_[slot];
  state.ta.Recycle();
  state.cand_fid = kInvalidFunction;
  state.cand_score = 0.0;
  free_slots_.push_back(slot);
  slot = -1;
}

size_t SBAssignment::StateBytes() const {
  // Every slot, live or free: a free slot keeps its TA buffers for the
  // next arrival.
  size_t bytes = states_.capacity() * sizeof(ObjectState) +
                 (state_slot_.capacity() + free_slots_.capacity()) *
                     sizeof(int32_t);
  for (const ObjectState& state : states_) {
    bytes += state.ta.memory_bytes() - sizeof(ReverseTop1State);
  }
  return bytes;
}

AssignResult SBAssignment::Run() {
  Timer timer;
  AssignResult result;
  result.stats.algorithm = "SB";

  const FunctionSet& fns = problem_->functions;
  assigned_.assign(fns.size(), 0);
  fcap_.resize(fns.size());
  remaining_fns_ = static_cast<int64_t>(fns.size());
  for (const PrefFunction& f : fns) fcap_[f.id] = f.capacity;
  std::vector<int> ocap(problem_->objects.size());
  for (const ObjectItem& o : problem_->objects) ocap[o.id] = o.capacity;

  if (options_.best_pair_mode == BestPairMode::kThresholdAlgorithm) {
    if (fn_index_ == nullptr) {
      if (options_.ta.impact_ordered && !fns.empty()) {
        owned_index_ = std::make_unique<PackedFunctionStore>(fns);
      } else {
        owned_index_ = std::make_unique<FunctionLists>(&fns);
      }
      fn_index_ = owned_index_.get();
    }
    rt1_ = std::make_unique<ReverseTop1>(fn_index_, options_.ta);
  }

  SkylineManager update_sky(tree_);
  DeltaSkyManager delta_sky(tree_);
  const bool use_update =
      options_.skyline_mode == SkylineMode::kUpdateSkyline;

  BestPairEngine engine(&fns);
  MemoryTracker local_memory;
  MemoryTracker& memory = ctx_ != nullptr ? ctx_->memory() : local_memory;
  states_.clear();
  free_slots_.clear();
  state_slot_.assign(problem_->objects.size(), -1);
  // Per-loop buffers, reused across loops.
  std::vector<MemberCandidate> members;
  std::vector<ObjectId> added;
  std::vector<MatchPair> pairs;
  std::vector<ObjectId> odel;
  bool first = true;
  bool functions_exhausted = false;

  while (remaining_fns_ > 0 && !functions_exhausted) {
    // Cancellation point: a storage fault or an expired deadline aborts
    // this run with whatever partial matching is already in `result`.
    if (ctx_ != nullptr && ctx_->ShouldAbort()) break;
    result.stats.loops++;
    // --- skyline maintenance -------------------------------------------
    if (first) {
      if (use_update) {
        update_sky.ComputeInitial();
      } else {
        delta_sky.ComputeInitial();
      }
      first = false;
    } else {
      if (use_update) {
        update_sky.RemoveAndUpdate(odel);
      } else {
        for (ObjectId oid : odel) delta_sky.Remove(oid);
      }
    }
    odel.clear();
    SkylineSet& sky = use_update ? update_sky.skyline() : delta_sky.skyline();
    if (sky.size() == 0) break;  // objects exhausted

    // --- per-member candidates (o.fbest) --------------------------------
    members.clear();
    added.clear();
    sky.ForEach([&](int, const SkylineObject& m) {
      if (functions_exhausted) return;
      bool created = false;
      ObjectState& state = StateOf(m.id, &created);
      if (!RefreshCandidate(&state, m.point)) {
        functions_exhausted = true;
        return;
      }
      members.push_back(
          MemberCandidate{m.id, &m.point, state.cand_fid, state.cand_score});
      // A member is new to the engine exactly when its state is.
      if (created) added.push_back(m.id);
    });
    if (functions_exhausted || members.empty()) break;

    // --- stable pair extraction ------------------------------------------
    if (options_.multi_pair) {
      engine.FindMutualPairs(members, added, &pairs);
    } else {
      // Single pair per loop (Algorithm 1): the globally best candidate
      // pair is stable.
      const MemberCandidate* best = &members[0];
      for (const MemberCandidate& m : members) {
        if (PairBefore(m.fbest_score, m.fbest, m.oid, best->fbest_score,
                       best->fbest, best->oid)) {
          best = &m;
        }
      }
      pairs.assign(1, MatchPair{best->fbest, best->oid, best->fbest_score});
    }
    // Candidate scores come from (possibly faulted) TA reads while the
    // engine's function-side bests use in-memory scores; corruption can
    // break the mutual-best guarantee. In a faulted run that is data
    // loss, not a broken invariant — unwind instead of aborting.
    if (pairs.empty() && ctx_ != nullptr && ctx_->ShouldAbort()) break;
    FAIRMATCH_CHECK(!pairs.empty());

    for (const MatchPair& pair : pairs) {
      result.matching.push_back(pair);
      if (--fcap_[pair.fid] == 0) {
        assigned_[pair.fid] = 1;
        remaining_fns_--;
        engine.OnFunctionAssigned(pair.fid);
      }
      if (--ocap[pair.oid] == 0) {
        odel.push_back(pair.oid);
        ReleaseState(pair.oid);
      }
    }
    engine.OnObjectsRemoved(odel);

    size_t sky_bytes =
        use_update ? update_sky.memory_bytes() : delta_sky.memory_bytes();
    memory.Set(sky_bytes + StateBytes() + engine.memory_bytes());
  }

  result.stats.cpu_ms = timer.ElapsedMs();
  result.stats.peak_memory_bytes = memory.peak();
  return result;
}

}  // namespace fairmatch
