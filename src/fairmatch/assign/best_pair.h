// Mutual-best pairing between the skyline members and their candidate
// functions (paper Section 5.3, Algorithm 3 lines 8-17).
//
// Each loop, every skyline member o carries its best unassigned function
// o.fbest. For every function f appearing as some member's fbest, the
// engine computes f.obest — f's best object *among the skyline members*
// — and reports the pairs with (f.obest).fbest == f, which Property 2
// proves stable. The f.obest values are cached across loops: the cache
// entry stays valid until the cached object is assigned (removed) or new
// members join the skyline (compared incrementally against the cache).
//
// All bookkeeping is flat and reused across loops: f.obest sits in an
// |F|-sized array indexed by fid, F_best is de-duplicated by a per-call
// stamp in the same array, and joined/removed objects are stamped in one
// per-oid array grown on demand. A removal does not walk the cache: an
// entry is stale when its object was removed after the entry was set.
#ifndef FAIRMATCH_ASSIGN_BEST_PAIR_H_
#define FAIRMATCH_ASSIGN_BEST_PAIR_H_

#include <cstdint>
#include <vector>

#include "fairmatch/assign/problem.h"

namespace fairmatch {

/// One skyline member with its current candidate function.
struct MemberCandidate {
  ObjectId oid = kInvalidObject;
  const Point* point = nullptr;
  FunctionId fbest = kInvalidFunction;
  double fbest_score = 0.0;
};

/// Stateful mutual-best pair finder.
class BestPairEngine {
 public:
  explicit BestPairEngine(const FunctionSet* fns)
      : fns_(fns), slots_(fns->size()) {}

  /// Replaces `*pairs` with the stable pairs among `members` under
  /// Property 2, in member order. `added` lists the member oids that
  /// joined the skyline since the previous call (pass all members on the
  /// first call). A cached f.obest is compared only against those
  /// newcomers, so a member that joins must not order before the cached
  /// best of any function: true for the skyline of a shrinking object
  /// set under monotone scores, where a newcomer is dominated by an
  /// earlier member.
  void FindMutualPairs(const std::vector<MemberCandidate>& members,
                       const std::vector<ObjectId>& added,
                       std::vector<MatchPair>* pairs);

  /// Invalidates cached entries pointing at removed (assigned) objects.
  void OnObjectsRemoved(const std::vector<ObjectId>& removed);

  /// Drops the cache entry of an exhausted function.
  void OnFunctionAssigned(FunctionId fid) {
    slots_[fid].oid = kInvalidObject;
  }

  /// Bytes held: the capacity of every flat array.
  size_t memory_bytes() const {
    return sizeof(*this) + slots_.capacity() * sizeof(FunctionSlot) +
           marks_.capacity() * sizeof(ObjectMark) +
           fbest_.capacity() * sizeof(FunctionId) +
           newcomers_.capacity() * sizeof(const MemberCandidate*);
  }

 private:
  // Per function: the cached f.obest (oid kInvalidObject = not cached),
  // the removal epoch at which it was set, and the call that last put f
  // in F_best.
  struct FunctionSlot {
    double score = 0.0;
    ObjectId oid = kInvalidObject;
    uint32_t set_epoch = 0;
    uint32_t fbest_call = 0;
  };
  // Per object: the call whose `added` named it, and the removal epoch
  // at which it was last removed (0 = never).
  struct ObjectMark {
    uint32_t added_call = 0;
    uint32_t removed_epoch = 0;
  };

  /// True iff f's cache entry is set and its object was not removed
  /// since.
  bool Cached(const FunctionSlot& slot) const {
    return slot.oid != kInvalidObject &&
           marks_[slot.oid].removed_epoch <= slot.set_epoch;
  }

  void SetBest(FunctionSlot* slot, ObjectId oid, double score) const {
    slot->oid = oid;
    slot->score = score;
    slot->set_epoch = epoch_;
  }

  const FunctionSet* fns_;
  std::vector<FunctionSlot> slots_;  // indexed by fid
  std::vector<ObjectMark> marks_;    // indexed by oid
  std::vector<FunctionId> fbest_;    // this call's F_best
  std::vector<const MemberCandidate*> newcomers_;  // this call's joiners
  uint32_t call_ = 0;   // FindMutualPairs calls so far
  uint32_t epoch_ = 0;  // non-empty OnObjectsRemoved calls so far
};

}  // namespace fairmatch

#endif  // FAIRMATCH_ASSIGN_BEST_PAIR_H_
