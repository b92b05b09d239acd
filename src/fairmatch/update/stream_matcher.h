// Streaming assignment maintenance over epochs.
//
// A StreamMatcher holds a standing matching while the dataset evolves
// underneath it (update/delta_builder.h). After each epoch it revises
// the matching toward that epoch's full from-scratch matching — the
// unique canonical one every algorithm in this library produces — but
// only within a configurable re-assignment budget, modeling serving
// systems where each revision has a real cost (a reassigned user, a
// moved shard) and churn per epoch must be bounded.
//
// Revision model per epoch:
//  * forced drops — pairs whose function or object was deleted are
//    dropped unconditionally (they cannot be served) and do not count
//    against the budget; surviving pairs are renamed through the
//    epoch's id maps (scores are unchanged: renames move no points and
//    change no weights).
//  * budgeted revisions — the difference against the epoch's full
//    matching is applied as (drop, add) steps, most valuable adds
//    first, each step costing one unit of budget. An add that would
//    exceed a function's or object's capacity first drops a
//    lowest-score wrong pair occupying the slot (also budgeted).
//    Leftover budget then retires remaining wrong pairs, lowest score
//    first. What the budget cannot cover is deferred to later epochs.
//
// With an unlimited budget (the default) the revised matching is
// byte-identical (canonical order) to the epoch's full matching — the
// property the update differential suite pins; with a finite budget
// the per-epoch fairness trajectory (aggregate score, minimum pair
// score, deferred count) is reported in StreamStats.
#ifndef FAIRMATCH_UPDATE_STREAM_MATCHER_H_
#define FAIRMATCH_UPDATE_STREAM_MATCHER_H_

#include <cstdint>
#include <string>

#include "fairmatch/assign/problem.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/update/delta_builder.h"

namespace fairmatch::update {

/// Runs registered matcher `matcher` directly against a resident
/// dataset (no server queue), in the environment a server lane builds
/// (serve::RequestEnv). The *-Packed variants require dataset.packed()
/// to be non-null.
AssignResult RunOnDataset(const serve::ResidentDataset& dataset,
                          const std::string& matcher,
                          double buffer_fraction = 0.02);

/// Revision knobs.
struct StreamOptions {
  std::string matcher = "SB";
  double buffer_fraction = 0.02;
  /// Maximum budgeted revisions (adds + drops) per epoch, beyond the
  /// forced drops of deleted ids. -1 = unlimited: the matching
  /// converges exactly to each epoch's full matching.
  int reassign_budget = -1;
};

/// One epoch's revision outcome and fairness snapshot.
struct StreamStats {
  int64_t epoch = 0;
  int forced_drops = 0;
  int drops_applied = 0;
  int adds_applied = 0;
  /// Revisions wanted but not covered by the budget this epoch.
  int deferred = 0;
  size_t pairs = 0;
  /// Fairness over the stream: total and minimum pair score of the
  /// standing matching after revision (0 when empty).
  double aggregate_score = 0.0;
  double min_score = 0.0;
};

/// Maintains a standing matching across epochs under a re-assignment
/// budget. Single-threaded, like the DeltaBuilder feeding it.
class StreamMatcher {
 public:
  /// Computes the initial matching with a full run on `initial`.
  StreamMatcher(serve::DatasetHandle initial, StreamOptions options = {});

  StreamMatcher(const StreamMatcher&) = delete;
  StreamMatcher& operator=(const StreamMatcher&) = delete;

  /// Revises the standing matching for `epoch`, produced by a
  /// DeltaBuilder::Apply whose UpdateStats is `update` (the id maps
  /// drive the forced drops and renames).
  StreamStats OnEpoch(const serve::DatasetHandle& epoch,
                      const UpdateStats& update);

  /// The standing matching, canonical (fid, oid) order.
  const Matching& matching() const { return matching_; }

 private:
  StreamOptions options_;
  Matching matching_;
  int64_t epoch_ = 0;
};

}  // namespace fairmatch::update

#endif  // FAIRMATCH_UPDATE_STREAM_MATCHER_H_
