// SB — the paper's skyline-based stable assignment (Algorithms 1 & 3).
//
// Maintains the skyline of the unassigned objects (I/O-optimally via
// UpdateSkyline, or with DeltaSky for the Figure 8 ablation), finds each
// skyline member's best unassigned function with the resumable TA-based
// reverse top-1 search (Section 5.1), and emits every mutual-best pair
// per loop (Section 5.3). Supports capacities (Section 6.1) and
// priorities (Section 6.2); see two_skyline.h for the prioritized
// two-skyline variant and sb_alt.h for disk-resident function batches.
#ifndef FAIRMATCH_ASSIGN_SB_H_
#define FAIRMATCH_ASSIGN_SB_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "fairmatch/assign/best_pair.h"
#include "fairmatch/assign/problem.h"
#include "fairmatch/skyline/bbs.h"
#include "fairmatch/skyline/delta_sky.h"
#include "fairmatch/topk/reverse_top1.h"

namespace fairmatch {

class ExecContext;

/// Which skyline maintenance module SB uses.
enum class SkylineMode {
  kUpdateSkyline,  // the paper's Algorithm 2 (I/O-optimal)
  kDeltaSky,       // baseline for the Figure 8 ablation
};

/// Which best-pair search SB uses.
enum class BestPairMode {
  kThresholdAlgorithm,  // Section 5.1 (TA over sorted coefficient lists)
  kExhaustive,          // plain |F| scan per member (the "SB-UpdateSkyline"
                        // ablation: Algorithm 1 without Section 5.1)
};

/// SB configuration.
struct SBOptions {
  SkylineMode skyline_mode = SkylineMode::kUpdateSkyline;
  BestPairMode best_pair_mode = BestPairMode::kThresholdAlgorithm;
  /// Emit multiple stable pairs per loop (Section 5.3). The ablation
  /// variants disable this and emit one pair per loop (Algorithm 1).
  bool multi_pair = true;
  /// TA tuning (omega, biased probing, resume).
  ReverseTop1Options ta;
};

/// The SB assignment algorithm.
class SBAssignment {
 public:
  /// `tree` must contain exactly the problem's objects. If `fn_index` is
  /// null an in-memory index is built and its construction time is
  /// charged to the run, matching the paper's accounting: an anonymous
  /// PackedFunctionStore image when `options.ta.impact_ordered` is set,
  /// the paper's FunctionLists for the entry-at-a-time TA otherwise.
  /// Passing a DiskFunctionStore yields the disk-resident-F setting.
  /// When `ctx` is given, search-structure memory is reported to its
  /// shared MemoryTracker (engine/exec_context.h) instead of a private
  /// one.
  SBAssignment(const AssignmentProblem* problem, const RTree* tree,
               SBOptions options, FunctionIndexBase* fn_index = nullptr,
               ExecContext* ctx = nullptr);

  /// Runs the assignment to completion.
  AssignResult Run();

 private:
  struct ObjectState {
    ReverseTop1State ta;
    FunctionId cand_fid = kInvalidFunction;
    double cand_score = 0.0;
  };

  /// Ensures `state` holds a valid (unassigned) candidate for `point`.
  /// Returns false when every function is exhausted.
  bool RefreshCandidate(ObjectState* state, const Point& point);

  /// The state of skyline member `oid`, created on first sight (in a
  /// retired object's slot, with its recycled TA buffers, when one is
  /// free); `*created` reports whether it was.
  ObjectState& StateOf(ObjectId oid, bool* created);

  /// Retires an assigned object's state: its slot goes on free_slots_
  /// with the TA buffers recycled in place.
  void ReleaseState(ObjectId oid);

  size_t StateBytes() const;

  const AssignmentProblem* problem_;
  const RTree* tree_;
  SBOptions options_;
  FunctionIndexBase* fn_index_;
  ExecContext* ctx_;

  std::unique_ptr<FunctionIndexBase> owned_index_;
  std::unique_ptr<ReverseTop1> rt1_;
  std::vector<uint8_t> assigned_;  // function capacity exhausted
  std::vector<int> fcap_;
  // Count of functions with assigned_[fid] == 0, threaded into the TA
  // search so its exhaustion check is O(1) instead of an |F| scan.
  int64_t remaining_fns_ = 0;
  // Per-member states in a dense vector: state_slot_[oid] indexes
  // states_ (-1 = not a current skyline member); slots of assigned
  // objects go on free_slots_ and keep their TA buffers, so the next
  // arrival reuses them without re-growth through the allocator.
  std::vector<ObjectState> states_;
  std::vector<int32_t> state_slot_;
  std::vector<int32_t> free_slots_;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_ASSIGN_SB_H_
