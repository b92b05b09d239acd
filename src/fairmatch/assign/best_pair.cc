#include "fairmatch/assign/best_pair.h"

#include <algorithm>

#include "fairmatch/common/check.h"

namespace fairmatch {

void BestPairEngine::FindMutualPairs(
    const std::vector<MemberCandidate>& members,
    const std::vector<ObjectId>& added, std::vector<MatchPair>* pairs) {
  ++call_;
  ObjectId max_oid = kInvalidObject;
  for (const MemberCandidate& m : members) max_oid = std::max(max_oid, m.oid);
  for (ObjectId oid : added) max_oid = std::max(max_oid, oid);
  if (max_oid >= static_cast<ObjectId>(marks_.size())) {
    marks_.resize(static_cast<size_t>(max_oid) + 1);
  }
  for (ObjectId oid : added) marks_[oid].added_call = call_;

  // Functions named as some member's best this loop (F_best), and the
  // members that joined since the previous call.
  fbest_.clear();
  newcomers_.clear();
  for (const MemberCandidate& m : members) {
    FAIRMATCH_DCHECK(m.fbest != kInvalidFunction);
    FunctionSlot& slot = slots_[m.fbest];
    if (slot.fbest_call != call_) {
      slot.fbest_call = call_;
      fbest_.push_back(m.fbest);
    }
    if (marks_[m.oid].added_call == call_) newcomers_.push_back(&m);
  }

  // Refresh f.obest for every f in F_best.
  for (FunctionId fid : fbest_) {
    const PrefFunction& f = (*fns_)[fid];
    FunctionSlot& slot = slots_[fid];
    if (!Cached(slot)) {
      // Full scan over the current members.
      slot.oid = kInvalidObject;
      for (const MemberCandidate& m : members) {
        double s = f.Score(*m.point);
        if (slot.oid == kInvalidObject ||
            PairBefore(s, fid, m.oid, slot.score, fid, slot.oid)) {
          SetBest(&slot, m.oid, s);
        }
      }
    } else {
      // Compare the cached best only against newcomers.
      for (const MemberCandidate* m : newcomers_) {
        double s = f.Score(*m->point);
        if (PairBefore(s, fid, m->oid, slot.score, fid, slot.oid)) {
          SetBest(&slot, m->oid, s);
        }
      }
    }
  }

  // Report members whose candidate function points back at them.
  pairs->clear();
  for (const MemberCandidate& m : members) {
    if (slots_[m.fbest].oid == m.oid) {
      pairs->push_back(MatchPair{m.fbest, m.oid, m.fbest_score});
    }
  }
}

void BestPairEngine::OnObjectsRemoved(const std::vector<ObjectId>& removed) {
  if (removed.empty()) return;
  ++epoch_;
  for (ObjectId oid : removed) {
    if (oid >= static_cast<ObjectId>(marks_.size())) {
      marks_.resize(static_cast<size_t>(oid) + 1);
    }
    marks_[oid].removed_epoch = epoch_;
  }
}

}  // namespace fairmatch
