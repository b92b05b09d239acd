#include "fairmatch/topk/reverse_top1.h"

#include <algorithm>
#include <cmath>

#include "fairmatch/common/check.h"

namespace fairmatch {

namespace {
// The knapsack threshold accumulates products in a different order than
// PrefFunction::Score, so the two can disagree by a few ulps. The bound
// must stay an upper bound of every unseen score, so termination demands
// strictly exceeding it by this slack (far above accumulated rounding,
// far below any genuine score gap); ties keep scanning, which also makes
// the smallest-id tie winner reachable.
constexpr double kBoundSlack = 1e-9;

// Argmax over the cached gains of non-exhausted lists; the exact scan
// PickList used to run per call (strict >, so ties pick the smallest
// dimension). -1 when every list is exhausted.
int BestGainDim(const std::vector<int>& positions,
                const std::vector<double>& gains, int n) {
  int best = -1;
  double best_gain = -1.0;
  for (int d = 0; d < static_cast<int>(gains.size()); ++d) {
    if (positions[d] >= n) continue;
    if (gains[d] > best_gain) {
      best_gain = gains[d];
      best = d;
    }
  }
  return best;
}
}  // namespace

ReverseTop1::ReverseTop1(FunctionIndexBase* index, ReverseTop1Options options)
    : index_(index), options_(options) {
  omega_cap_ = std::max(
      1, static_cast<int>(std::llround(options_.omega * index_->size())));
  raw_lists_.resize(index_->dims());
  bool all_raw = true;
  for (int d = 0; d < index_->dims(); ++d) {
    raw_lists_[d] = index_->RawList(d);
    if (raw_lists_[d] == nullptr) all_raw = false;
  }
  packed_ = index_->packed();
  use_impact_ = options_.impact_ordered && packed_ != nullptr;
  // Scan cursors advance in blocks under the impact-ordered traversal,
  // in entries otherwise.
  scan_limit_ = use_impact_ ? packed_->num_blocks() : index_->size();
  if (use_impact_) scratch_fids_.resize(packed_->block_entries());
  // The incremental frontier/gains/threshold caches pay for themselves
  // only when biased probing consults the gains every iteration;
  // round-robin invalidates the threshold on almost every probe and
  // never reads the gains, so it keeps the seed's direct scans. The
  // packed store is memory-resident too (zero counted I/O), so it takes
  // the same cached path as FunctionLists.
  use_caches_ = (all_raw || packed_ != nullptr) && options_.biased_probing;
  use_seen_epoch_ = !options_.resume;
}

void ReverseTop1::Reset(ReverseTop1State* state, const Point& o) const {
  const int dims = index_->dims();
  const int n = index_->size();
  state->positions_.assign(dims, 0);
  state->queue_.Reset(omega_cap_);
  if (use_seen_epoch_) {
    // Generation bump instead of clearing: the byte map is wiped only
    // on first use, size change, or 8-bit generation wrap-around.
    if (state->seen_gen_.size() != static_cast<size_t>(n)) {
      state->seen_gen_.assign(n, 0);
      state->gen_ = 0;
    }
    if (++state->gen_ == 0) {
      std::fill(state->seen_gen_.begin(), state->seen_gen_.end(), 0);
      state->gen_ = 1;
    }
  } else {
    state->seen_bits_.assign((n + 63) / 64, 0);
  }
  state->omega_left_ = omega_cap_;
  state->round_robin_next_ = 0;
  state->dim_order_.resize(dims);
  for (int d = 0; d < dims; ++d) state->dim_order_[d] = d;
  std::sort(state->dim_order_.begin(), state->dim_order_.end(),
            [&](int a, int b) {
              if (o[a] != o[b]) return o[a] > o[b];
              return a < b;
            });
  if (use_caches_) {
    state->frontier_.assign(dims, 0.0);
    state->gains_.assign(dims, -1.0);
    for (int d = 0; d < dims; ++d) {
      if (scan_limit_ == 0) continue;
      state->frontier_[d] = FrontierValue(d, 0);
      state->gains_[d] = state->frontier_[d] * o[d];
    }
    state->best_gain_dim_ =
        BestGainDim(state->positions_, state->gains_, scan_limit_);
    state->threshold_valid_ = false;
  }
  state->initialized = true;
}

void ReverseTop1::RefreshFrontier(ReverseTop1State* state, const Point& o,
                                  int d) const {
  const int pos = state->positions_[d];
  if (pos >= scan_limit_) {
    // List exhausted: drop it from the gains and force a threshold
    // recomputation (the knapsack result flips to "no unseen function").
    state->gains_[d] = -1.0;
    state->threshold_valid_ = false;
    if (state->best_gain_dim_ == d) {
      state->best_gain_dim_ =
          BestGainDim(state->positions_, state->gains_, scan_limit_);
    }
    return;
  }
  const double l = FrontierValue(d, pos);
  if (l == state->frontier_[d]) return;  // duplicate coefficient: no-op
  state->frontier_[d] = l;
  state->gains_[d] = l * o[d];
  state->threshold_valid_ = false;
  // Gains only decrease as the scan descends, so the argmax can change
  // only when the probed dimension was the argmax (ties resolve to the
  // smallest dimension, which a decrease elsewhere cannot disturb).
  if (state->best_gain_dim_ == d) {
    state->best_gain_dim_ =
        BestGainDim(state->positions_, state->gains_, scan_limit_);
  }
}

double ReverseTop1::TightThreshold(ReverseTop1State* state, const Point& o) {
  // An unseen function must appear at or below the current position in
  // every list, so its coefficient in dim d is bounded by the next
  // unread value l_d. Maximize sum beta_d * o_d subject to beta_d <= l_d
  // and sum beta_d = B (fractional knapsack, Section 5.1).
  if (use_caches_ && state->threshold_valid_) return state->cached_threshold_;
  double budget = index_->max_gamma();
  double threshold = 0.0;
  for (int d : state->dim_order_) {
    if (budget <= 0.0) break;
    int pos = state->positions_[d];
    // Exhausted list: every function was seen there; no unseen function
    // exists, so the threshold over unseen functions is -infinity.
    if (pos >= scan_limit_) {
      threshold = -1.0;
      break;
    }
    // Cached frontier on the memory-resident path; a counted list read
    // on the disk path (whose access sequence must stay as-is).
    double l = use_caches_ ? state->frontier_[d] : FrontierValue(d, pos);
    double beta = std::min(budget, l);
    threshold += beta * o[d];
    budget -= beta;
  }
  if (use_caches_) {
    state->cached_threshold_ = threshold;
    state->threshold_valid_ = true;
  }
  return threshold;
}

int ReverseTop1::PickList(const ReverseTop1State& state, const Point& o) {
  const int dims = index_->dims();
  if (!options_.biased_probing) {
    // Round-robin over non-exhausted lists.
    for (int step = 0; step < dims; ++step) {
      int d = (state.round_robin_next_ + step) % dims;
      if (state.positions_[d] < scan_limit_) return d;
    }
    return -1;
  }
  // Memory-resident: the argmax is maintained incrementally on probe.
  if (use_caches_) return state.best_gain_dim_;
  int best = -1;
  double best_gain = -1.0;
  for (int d = 0; d < dims; ++d) {
    int pos = state.positions_[d];
    if (pos >= scan_limit_) continue;
    double gain = FrontierValue(d, pos) * o[d];
    if (gain > best_gain) {
      best_gain = gain;
      best = d;
    }
  }
  return best;
}

void ReverseTop1::ScoreBlock(ReverseTop1State* state, const Point& o,
                             const std::vector<uint8_t>& assigned,
                             int count) {
  const int dims = packed_->dims();
  CandidateQueue& queue = state->queue_;
  const size_t capacity = static_cast<size_t>(state->omega_left_);
  for (int i = 0; i < count; ++i) {
    const FunctionId fid = scratch_fids_[i];
    if (Seen(*state, fid)) continue;
    MarkSeen(state, fid);
    if (assigned[fid]) continue;
    // PackedFunctionStore::ScoreOf without the virtual call: the same
    // ascending-dimension double accumulation, so bit-identical scores.
    const double* eff = packed_->EffRow(fid);
    double score = 0.0;
    for (int k = 0; k < dims; ++k) score += eff[k] * o[k];
    const ScoredCandidate candidate{score, fid};
    if (queue.size() < capacity) {
      queue.Push(candidate);
    } else if (candidate < queue.worst()) {
      // A full queue keeps the candidate only if it orders before the
      // worst entry: the outcome of push-then-evict-worst without
      // inserting the candidates that would be evicted at once.
      queue.PopWorst();
      queue.Push(candidate);
    }
  }
}

std::optional<std::pair<FunctionId, double>> ReverseTop1::Best(
    ReverseTop1State* state, const Point& o,
    const std::vector<uint8_t>& assigned, int64_t num_unassigned) {
  if (!state->initialized || !options_.resume) Reset(state, o);

  while (true) {
    // Drop candidates that were assigned to other objects since the last
    // call; each pop reduces the queue's remaining guarantee (Omega).
    while (!state->queue_.empty() &&
           assigned[state->queue_.best().fid]) {
      state->queue_.PopBest();
      state->omega_left_--;
    }
    if (state->omega_left_ <= 0) {
      // The capped queue can no longer guarantee the maximum: restart.
      restarts_++;
      Reset(state, o);
      continue;
    }

    // Terminate if the best candidate already beats the tight threshold
    // for every unseen function.
    if (!state->queue_.empty()) {
      double threshold = TightThreshold(state, o);
      const auto& top = state->queue_.best();
      if (top.score > threshold + kBoundSlack) {
        return std::make_pair(top.fid, top.score);
      }
    }

    int d = PickList(*state, o);
    if (d < 0) {
      // All lists exhausted: every function has been seen. The queue
      // holds the best unassigned candidates unless eviction lost them.
      if (!state->queue_.empty()) {
        const auto& top = state->queue_.best();
        return std::make_pair(top.fid, top.score);
      }
      // Queue starved by eviction: restart unless F is fully assigned.
      // SB passes its unassigned-function count; without it, fall back
      // to the scan (cold callers on this rare path).
      bool any_unassigned =
          num_unassigned >= 0
              ? num_unassigned > 0
              : std::any_of(assigned.begin(), assigned.end(),
                            [](uint8_t a) { return a == 0; });
      if (!any_unassigned) return std::nullopt;
      restarts_++;
      Reset(state, o);
      continue;
    }

    // Probe list d: one whole packed block under the impact-ordered
    // traversal, one entry otherwise.
    int pos = state->positions_[d]++;
    state->round_robin_next_ = (d + 1) % index_->dims();
    if (use_impact_) {
      const int count = packed_->DecodeBlock(d, pos, scratch_fids_.data());
      probes_ += count;
      if (use_caches_) RefreshFrontier(state, o, d);
      ScoreBlock(state, o, assigned, count);
      continue;
    }
    probes_++;
    FunctionId fid = EntryAt(d, pos).second;
    if (use_caches_) RefreshFrontier(state, o, d);
    if (Seen(*state, fid)) continue;
    MarkSeen(state, fid);
    if (assigned[fid]) continue;
    // "Random accesses" to the other lists: fetch the function's
    // remaining coefficients and compute its aggregate score.
    double score = index_->ScoreOf(fid, o);
    // Keep only the top-Omega candidates (Section 5.1 memory bound):
    // push, then evict the queue's worst end on overflow.
    state->queue_.Push(ScoredCandidate{score, fid});
    if (static_cast<int>(state->queue_.size()) > state->omega_left_) {
      state->queue_.PopWorst();
    }
  }
}

}  // namespace fairmatch
