#include "fairmatch/update/stream_matcher.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "fairmatch/common/check.h"
#include "fairmatch/engine/registry.h"

namespace fairmatch::update {

AssignResult RunOnDataset(const serve::ResidentDataset& dataset,
                          const std::string& matcher,
                          double buffer_fraction) {
  const MatcherInfo* info = MatcherRegistry::Global().Find(matcher);
  FAIRMATCH_CHECK(info != nullptr && "unknown matcher");
  const serve::RequestEnv request_env(dataset, *info,
                                      /*disk_functions=*/false,
                                      buffer_fraction);
  std::unique_ptr<Matcher> m =
      MatcherRegistry::Global().Create(matcher, request_env.env());
  FAIRMATCH_CHECK(m != nullptr);
  return m->Run();
}

namespace {

/// Canonical pair value order: most valuable first.
bool MoreValuable(const MatchPair& a, const MatchPair& b) {
  return PairBefore(a.score, a.fid, a.oid, b.score, b.fid, b.oid);
}

}  // namespace

StreamMatcher::StreamMatcher(serve::DatasetHandle initial,
                             StreamOptions options)
    : options_(std::move(options)) {
  FAIRMATCH_CHECK(initial != nullptr);
  epoch_ = initial->epoch();
  AssignResult full =
      RunOnDataset(*initial, options_.matcher, options_.buffer_fraction);
  matching_ = std::move(full.matching);
  CanonicalizeMatching(&matching_);
}

StreamStats StreamMatcher::OnEpoch(const serve::DatasetHandle& epoch,
                                   const UpdateStats& update) {
  StreamStats stats;
  stats.epoch = epoch->epoch();
  epoch_ = epoch->epoch();

  // Forced drops + renames: a pair with a deleted endpoint cannot be
  // served and is dropped for free; surviving pairs are renamed through
  // the epoch's id maps, scores unchanged.
  Matching cur;
  cur.reserve(matching_.size());
  for (const MatchPair& pair : matching_) {
    const bool fid_known =
        pair.fid >= 0 &&
        pair.fid < static_cast<FunctionId>(update.function_final.size());
    const bool oid_known =
        pair.oid >= 0 &&
        pair.oid < static_cast<ObjectId>(update.object_final.size());
    const FunctionId nf = fid_known ? update.function_final[pair.fid] : -1;
    const ObjectId no = oid_known ? update.object_final[pair.oid] : -1;
    if (nf < 0 || no < 0) {
      ++stats.forced_drops;
      continue;
    }
    cur.push_back(MatchPair{nf, no, pair.score});
  }

  // The target: this epoch's full from-scratch matching.
  Matching target =
      RunOnDataset(*epoch, options_.matcher, options_.buffer_fraction)
          .matching;

  // Diff as (fid, oid) sets.
  std::set<std::pair<FunctionId, ObjectId>> target_keys;
  for (const MatchPair& pair : target) {
    target_keys.emplace(pair.fid, pair.oid);
  }
  std::set<std::pair<FunctionId, ObjectId>> cur_keys;
  for (const MatchPair& pair : cur) {
    cur_keys.emplace(pair.fid, pair.oid);
  }
  std::vector<MatchPair> adds;
  for (const MatchPair& pair : target) {
    if (cur_keys.count({pair.fid, pair.oid}) == 0) adds.push_back(pair);
  }
  std::sort(adds.begin(), adds.end(), MoreValuable);

  const AssignmentProblem& problem = epoch->problem();
  std::vector<int> fn_load(problem.functions.size(), 0);
  std::vector<int> obj_load(problem.objects.size(), 0);
  std::vector<bool> dropped(cur.size(), false);
  std::vector<bool> wrong(cur.size(), false);
  for (size_t i = 0; i < cur.size(); ++i) {
    ++fn_load[cur[i].fid];
    ++obj_load[cur[i].oid];
    wrong[i] = target_keys.count({cur[i].fid, cur[i].oid}) == 0;
  }

  int64_t remaining = options_.reassign_budget < 0
                          ? std::numeric_limits<int64_t>::max()
                          : options_.reassign_budget;

  // The least valuable live wrong pair on function `f` / object `o`
  // (the deterministic eviction choice), or -1.
  auto worst_wrong = [&](FunctionId f, ObjectId o) {
    int pick = -1;
    for (size_t i = 0; i < cur.size(); ++i) {
      if (dropped[i] || !wrong[i]) continue;
      if (f >= 0 && cur[i].fid != f) continue;
      if (o >= 0 && cur[i].oid != o) continue;
      if (pick < 0 || MoreValuable(cur[pick], cur[i])) {
        pick = static_cast<int>(i);
      }
    }
    return pick;
  };
  auto drop_index = [&](int i) {
    dropped[i] = true;
    --fn_load[cur[i].fid];
    --obj_load[cur[i].oid];
    ++stats.drops_applied;
  };

  // Most valuable adds first; each add evicts the wrong pairs holding
  // its capacity slots. Against a capacity-respecting target an
  // over-full slot always holds a wrong pair, so with an unlimited
  // budget every add lands and `cur` converges exactly to `target`.
  std::vector<MatchPair> applied_adds;
  int adds_deferred = 0;
  for (const MatchPair& add : adds) {
    std::vector<int> evict;
    bool feasible = true;
    if (fn_load[add.fid] >= problem.functions[add.fid].capacity) {
      const int pick = worst_wrong(add.fid, -1);
      if (pick < 0) {
        feasible = false;
      } else {
        evict.push_back(pick);
      }
    }
    if (feasible &&
        obj_load[add.oid] >= problem.objects[add.oid].capacity) {
      const int pick = worst_wrong(-1, add.oid);
      if (pick < 0) {
        feasible = false;
      } else if (std::find(evict.begin(), evict.end(), pick) ==
                 evict.end()) {
        // The same wrong pair can free both slots; only distinct
        // evictions cost extra.
        evict.push_back(pick);
      }
    }
    const int64_t cost = 1 + static_cast<int64_t>(evict.size());
    if (!feasible || cost > remaining) {
      ++adds_deferred;
      continue;
    }
    for (int i : evict) drop_index(i);
    applied_adds.push_back(add);
    ++fn_load[add.fid];
    ++obj_load[add.oid];
    ++stats.adds_applied;
    remaining -= cost;
  }

  // Leftover budget retires remaining wrong pairs, least valuable
  // first.
  int wrong_deferred = 0;
  while (remaining > 0) {
    const int pick = worst_wrong(-1, -1);
    if (pick < 0) break;
    drop_index(pick);
    --remaining;
  }
  for (size_t i = 0; i < cur.size(); ++i) {
    if (!dropped[i] && wrong[i]) ++wrong_deferred;
  }
  stats.deferred = adds_deferred + wrong_deferred;

  Matching next;
  next.reserve(cur.size() + applied_adds.size());
  for (size_t i = 0; i < cur.size(); ++i) {
    if (!dropped[i]) next.push_back(cur[i]);
  }
  for (const MatchPair& add : applied_adds) next.push_back(add);
  CanonicalizeMatching(&next);
  matching_ = std::move(next);

  stats.pairs = matching_.size();
  if (!matching_.empty()) {
    stats.min_score = std::numeric_limits<double>::infinity();
    for (const MatchPair& pair : matching_) {
      stats.aggregate_score += pair.score;
      stats.min_score = std::min(stats.min_score, pair.score);
    }
  }
  return stats;
}

}  // namespace fairmatch::update
