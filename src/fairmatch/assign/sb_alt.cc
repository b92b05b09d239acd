#include "fairmatch/assign/sb_alt.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <vector>

#include "fairmatch/assign/best_pair.h"
#include "fairmatch/common/check.h"
#include "fairmatch/common/simd.h"
#include "fairmatch/common/stats.h"
#include "fairmatch/common/timer.h"
#include "fairmatch/engine/exec_context.h"
#include "fairmatch/skyline/bbs.h"
#include "fairmatch/topk/packed_function_lists.h"

namespace fairmatch {

namespace {

// See reverse_top1.cc: the threshold bound needs rounding slack, and at
// exact ties scanning must continue so the smallest-id winner is found.
constexpr double kBoundSlack = 1e-9;

/// Knapsack-tight threshold (Section 5.1) given per-list frontier
/// values. `o` and `dim_order` are one member's rows of the flat SoA
/// blocks (length `dims` each).
double TightThreshold(const float* o, const int* dim_order, int dims,
                      const std::vector<double>& frontier, double budget) {
  double threshold = 0.0;
  for (int j = 0; j < dims; ++j) {
    if (budget <= 0.0) break;
    const int d = dim_order[j];
    double beta = std::min(budget, frontier[d]);
    threshold += beta * o[d];
    budget -= beta;
  }
  return threshold;
}

/// Member state in flat SoA blocks, shared by the disk and packed batch
/// scans and hoisted so loop iterations reuse capacity: coordinates and
/// per-member dim orders are `dims`-strided rows, best scores/functions
/// are parallel arrays. `active` compacts the not-yet-done members so
/// the per-page loops cost O(active) instead of O(members); `by_dim[d]`
/// orders members by descending o[d] so the fetch-worthiness probe
/// (whose dominant term is coef * o[d]) hits its early-exit on the
/// likeliest member first. `act_cols` mirrors the active set as
/// dim-major float columns (column j = member active[j]) so the
/// per-fetch scoring loop runs through the vectorized block kernel
/// (common/simd.h); `act_scores` receives one block of scores per
/// fetched function.
struct BatchMemberBlocks {
  std::vector<ObjectId> oid;
  std::vector<float> pts;    // members x dims
  std::vector<int> order;    // members x dims, o desc per member
  std::vector<FunctionId> best_f;
  std::vector<double> best_s;
  std::vector<uint8_t> done;
  std::vector<int> active;
  std::vector<float> act_cols;  // dims x m_count, column j = active[j]
  std::vector<double> act_scores;
  std::vector<std::vector<int>> by_dim;
  int m_count = 0;

  /// (Re)fills every block from the current skyline members; best
  /// functions are recomputed from scratch each loop.
  void Gather(SkylineSet& sky, int dims) {
    m_count = static_cast<int>(sky.size());
    oid.clear();
    pts.clear();
    order.resize(static_cast<size_t>(m_count) * dims);
    sky.ForEach([&](int, const SkylineObject& m) {
      const int idx = static_cast<int>(oid.size());
      oid.push_back(m.id);
      for (int d = 0; d < dims; ++d) pts.push_back(m.point[d]);
      int* ord = &order[static_cast<size_t>(idx) * dims];
      std::iota(ord, ord + dims, 0);
      const float* pt = &pts[static_cast<size_t>(idx) * dims];
      std::sort(ord, ord + dims, [pt](int a, int b) {
        if (pt[a] != pt[b]) return pt[a] > pt[b];
        return a < b;
      });
    });
    best_f.assign(m_count, kInvalidFunction);
    best_s.assign(m_count, 0.0);
    done.assign(m_count, 0);
    active.resize(m_count);
    std::iota(active.begin(), active.end(), 0);
    act_cols.resize(static_cast<size_t>(dims) * m_count);
    for (int d = 0; d < dims; ++d) {
      float* col = &act_cols[static_cast<size_t>(d) * m_count];
      for (int j = 0; j < m_count; ++j) {
        col[j] = pts[static_cast<size_t>(j) * dims + d];
      }
    }
    act_scores.resize(m_count);
    by_dim.resize(dims);
    for (int d = 0; d < dims; ++d) {
      std::vector<int>& ord = by_dim[d];
      ord.resize(m_count);
      std::iota(ord.begin(), ord.end(), 0);
      std::sort(ord.begin(), ord.end(), [&](int a, int b) {
        const float oa = pts[static_cast<size_t>(a) * dims + d];
        const float ob = pts[static_cast<size_t>(b) * dims + d];
        if (oa != ob) return oa > ob;
        return a < b;
      });
    }
  }

  /// One vectorized scoring pass of function `fid` (coefficients `eff`,
  /// `dims` doubles) over the active member columns (per member:
  /// eff[k] * o[k] accumulated in ascending k, the exact scalar
  /// sequence), then the best-function updates with the smallest-id tie
  /// rule.
  void ScoreAgainst(FunctionId fid, const double* eff, int dims) {
    const int act_n = static_cast<int>(active.size());
    simd::ScoreColumns(act_cols.data(), m_count, dims, eff, act_n,
                       act_scores.data());
    for (int j = 0; j < act_n; ++j) {
      const int m = active[j];
      const double s = act_scores[j];
      if (best_f[m] == kInvalidFunction || s > best_s[m] ||
          (s == best_s[m] && fid < best_f[m])) {
        best_f[m] = fid;
        best_s[m] = s;
      }
    }
  }

  /// Threshold test (strict: ties keep scanning so the smallest-id tie
  /// winner is found). A member whose best provably beats every unseen
  /// function's knapsack bound leaves the active set for the rest of
  /// this loop iteration; returns how many retired.
  int RetireProvablyDone(int dims, const std::vector<double>& frontier,
                         double max_gamma) {
    int retired = 0;
    for (size_t i = 0; i < active.size();) {
      const int m = active[i];
      if (best_f[m] != kInvalidFunction) {
        const double t = TightThreshold(
            &pts[static_cast<size_t>(m) * dims],
            &order[static_cast<size_t>(m) * dims], dims, frontier, max_gamma);
        if (best_s[m] > t + kBoundSlack) {
          done[m] = 1;
          retired++;
          active[i] = active.back();
          active.pop_back();
          // Mirror the swap-remove into the column block.
          const size_t last = active.size();
          for (int d2 = 0; d2 < dims; ++d2) {
            float* col = &act_cols[static_cast<size_t>(d2) * m_count];
            col[i] = col[last];
          }
          continue;
        }
      }
      ++i;
    }
    return retired;
  }

  /// Search-structure bytes for the shared MemoryTracker.
  size_t memory_bytes(int dims) const {
    return static_cast<size_t>(m_count) *
           (sizeof(ObjectId) + sizeof(FunctionId) + sizeof(double) + 1 +
            (dims + 1) * (sizeof(float) + sizeof(int)));
  }
};

/// Fetch-worthiness probe: before paying the random accesses for a
/// newly encountered function (list `d`, effective coefficient `coef`),
/// bound its score against every undone member — the function was
/// unseen until now, so in every other list its entry is at or below
/// the scan frontier (alpha'_k <= frontier[k]) and its coefficients sum
/// to at most max gamma. Returns true as soon as one member's bound
/// reaches its current best (members walked in by_dim[d] order, the
/// likeliest first). Bounds go through the vectorized lane kernel in
/// batches of up to 8 members; its scalar backend reproduces the
/// original per-member loop bit-for-bit (zero-beta lanes add an exact
/// +0.0), so the boolean outcome — and with it every golden I/O
/// count — is unchanged.
bool WorthFetching(const BatchMemberBlocks& mb, int dims, int d, double coef,
                   double max_gamma, const std::vector<double>& frontier) {
  const double budget0 = max_gamma - coef;
  int lanes[8];
  double bounds[8];
  int n_lanes = 0;
  const auto any_reaches_best = [&](int count) {
    for (int i = 0; i < count; ++i) {
      if (bounds[i] >= mb.best_s[lanes[i]] - kBoundSlack) return true;
    }
    return false;
  };
  for (int m : mb.by_dim[d]) {
    if (mb.done[m]) continue;
    if (mb.best_f[m] == kInvalidFunction) return true;
    lanes[n_lanes++] = m;
    if (n_lanes == 8) {
      simd::KnapsackBounds(mb.pts.data(), mb.order.data(),
                           static_cast<size_t>(dims), dims, d, coef, budget0,
                           frontier.data(), lanes, n_lanes, bounds);
      if (any_reaches_best(n_lanes)) return true;
      n_lanes = 0;
    }
  }
  if (n_lanes > 0) {
    simd::KnapsackBounds(mb.pts.data(), mb.order.data(),
                         static_cast<size_t>(dims), dims, d, coef, budget0,
                         frontier.data(), lanes, n_lanes, bounds);
    if (any_reaches_best(n_lanes)) return true;
  }
  return false;
}

/// Mutual-best pairing (Property 2, the same engine as SB) and the
/// capacity bookkeeping of the pairs, shared by both batch drivers.
/// Every buffer is reused across loops.
struct BatchPairing {
  explicit BatchPairing(const AssignmentProblem& problem)
      : engine(&problem.functions),
        assigned(problem.functions.size(), 0),
        remaining_fns(static_cast<int64_t>(problem.functions.size())),
        fcap(problem.functions.size()),
        ocap(problem.objects.size()),
        known(problem.objects.size(), 0) {
    for (const PrefFunction& f : problem.functions) fcap[f.id] = f.capacity;
    for (const ObjectItem& o : problem.objects) ocap[o.id] = o.capacity;
  }

  /// Pairs the members of `mb` (after the loop's batch scan), appends
  /// the pairs to `matching` and leaves the objects they fully assign
  /// in `odel`. Returns false when the run ends: no member has an
  /// unassigned function left, or a faulted run lost its pairs.
  bool Step(const BatchMemberBlocks& mb, SkylineSet& sky, ExecContext* ctx,
            Matching* matching) {
    candidates.clear();
    added.clear();
    bool exhausted = false;
    for (int m = 0; m < mb.m_count; ++m) {
      if (mb.best_f[m] == kInvalidFunction) {
        exhausted = true;  // no unassigned function reachable
        continue;
      }
      const SkylineObject& member = sky.at(sky.SlotOf(mb.oid[m]));
      candidates.push_back(MemberCandidate{mb.oid[m], &member.point,
                                           mb.best_f[m], mb.best_s[m]});
      if (!known[mb.oid[m]]) {
        known[mb.oid[m]] = 1;
        added.push_back(mb.oid[m]);
      }
    }
    if (candidates.empty()) {
      FAIRMATCH_CHECK(exhausted);
      return false;
    }

    engine.FindMutualPairs(candidates, added, &pairs);
    // Candidate scores come from (possibly faulted) store reads while the
    // engine's function-side bests use in-memory scores; corruption can
    // break the mutual-best guarantee. In a faulted run that is data
    // loss, not a broken invariant — unwind instead of aborting.
    if (pairs.empty() && ctx != nullptr && ctx->ShouldAbort()) return false;
    FAIRMATCH_CHECK(!pairs.empty());
    for (const MatchPair& pair : pairs) {
      matching->push_back(pair);
      if (--fcap[pair.fid] == 0) {
        assigned[pair.fid] = 1;
        remaining_fns--;
        engine.OnFunctionAssigned(pair.fid);
      }
      if (--ocap[pair.oid] == 0) {
        odel.push_back(pair.oid);
        known[pair.oid] = 0;
      }
    }
    engine.OnObjectsRemoved(odel);
    return true;
  }

  size_t memory_bytes() const {
    return engine.memory_bytes() + known.capacity();
  }

  BestPairEngine engine;
  std::vector<uint8_t> assigned;  // function capacity exhausted
  int64_t remaining_fns;
  std::vector<ObjectId> odel;  // objects fully assigned this loop
  std::vector<int> fcap;
  std::vector<int> ocap;
  // Members already reported to the engine as joined (indexed by oid).
  std::vector<uint8_t> known;
  std::vector<MemberCandidate> candidates;
  std::vector<ObjectId> added;
  std::vector<MatchPair> pairs;
};

}  // namespace

AssignResult SBAltAssignment(const AssignmentProblem& problem,
                             const RTree& tree, DiskFunctionStore* store,
                             ExecContext* ctx) {
  Timer timer;
  AssignResult result;
  result.stats.algorithm = "SB-alt";

  const int dims = problem.dims;
  const int num_fns = static_cast<int>(problem.functions.size());

  SkylineManager sky_mgr(&tree);
  BatchPairing pairing(problem);
  const std::vector<uint8_t>& assigned = pairing.assigned;
  MemoryTracker local_memory;
  MemoryTracker& memory = ctx != nullptr ? ctx->memory() : local_memory;
  bool first = true;

  BatchMemberBlocks mb;
  // Generation-stamped seen set: cleared by bumping `gen`, not O(|F|).
  std::vector<uint32_t> seen_gen(num_fns, 0);
  uint32_t gen = 0;
  std::vector<int64_t> next_page(dims, 0);
  std::vector<double> frontier(dims, 0.0);
  std::vector<ListRecord> page;
  std::array<double, kMaxDims> eff{};
  const double max_gamma = store->max_gamma();
  const int64_t pages = store->pages_per_list();

  while (pairing.remaining_fns > 0) {
    // Cancellation point: a storage fault or an expired deadline aborts
    // this run with whatever partial matching is already in `result`.
    if (ctx != nullptr && ctx->ShouldAbort()) break;
    result.stats.loops++;
    if (first) {
      sky_mgr.ComputeInitial();
      first = false;
    } else {
      sky_mgr.RemoveAndUpdate(pairing.odel);
    }
    pairing.odel.clear();
    SkylineSet& sky = sky_mgr.skyline();
    if (sky.size() == 0) break;

    mb.Gather(sky, dims);

    // Batch TA over the disk lists: round-robin, one page at a time.
    std::fill(next_page.begin(), next_page.end(), 0);
    std::fill(frontier.begin(), frontier.end(), max_gamma);
    ++gen;
    int undone = mb.m_count;

    while (undone > 0) {
      bool progressed = false;
      for (int d = 0; d < dims && undone > 0; ++d) {
        if (next_page[d] >= pages) continue;
        int count = store->ReadListPage(d, next_page[d]++, &page);
        progressed = true;
        for (int r = 0; r < count; ++r) {
          FunctionId fid = page[r].fid;
          if (seen_gen[fid] == gen) continue;
          seen_gen[fid] = gen;
          if (assigned[fid]) continue;
          // Skipping an unworthy fetch is what keeps the batch search's
          // I/O low once the early list prefixes are consumed.
          if (!WorthFetching(mb, dims, d, page[r].coef, max_gamma,
                             frontier)) {
            continue;
          }
          // Random accesses for the remaining coefficients, then the
          // vectorized scoring pass over the active member columns.
          store->FetchEff(fid, d, page[r].coef, eff.data());
          mb.ScoreAgainst(fid, eff.data(), dims);
        }
        if (count > 0) frontier[d] = page[count - 1].coef;
        undone -= mb.RetireProvablyDone(dims, frontier, max_gamma);
      }
      if (!progressed) break;  // all lists exhausted
    }
    memory.Set(sky_mgr.memory_bytes() + seen_gen.size() * sizeof(uint32_t) +
               mb.memory_bytes(dims) + pairing.memory_bytes());

    if (!pairing.Step(mb, sky, ctx, &result.matching)) break;
  }

  result.stats.cpu_ms = timer.ElapsedMs();
  result.stats.peak_memory_bytes = memory.peak();
  return result;
}

AssignResult SBAltPackedAssignment(const AssignmentProblem& problem,
                                   const RTree& tree,
                                   PackedFunctionStore* store,
                                   ExecContext* ctx) {
  Timer timer;
  AssignResult result;
  result.stats.algorithm = "SB-alt-Packed";

  const int dims = problem.dims;
  const int num_fns = static_cast<int>(problem.functions.size());

  SkylineManager sky_mgr(&tree);
  BatchPairing pairing(problem);
  const std::vector<uint8_t>& assigned = pairing.assigned;
  MemoryTracker local_memory;
  MemoryTracker& memory = ctx != nullptr ? ctx->memory() : local_memory;
  bool first = true;

  BatchMemberBlocks mb;
  std::vector<uint32_t> seen_gen(num_fns, 0);
  uint32_t gen = 0;
  std::vector<int> next_block(dims, 0);
  std::vector<double> frontier(dims, 0.0);
  std::vector<int32_t> blk_fids(store->block_entries());
  const double max_gamma = store->max_gamma();
  const int num_blocks = store->num_blocks();

  while (pairing.remaining_fns > 0) {
    // Cancellation point (see SBAltAssignment above).
    if (ctx != nullptr && ctx->ShouldAbort()) break;
    result.stats.loops++;
    if (first) {
      sky_mgr.ComputeInitial();
      first = false;
    } else {
      sky_mgr.RemoveAndUpdate(pairing.odel);
    }
    pairing.odel.clear();
    SkylineSet& sky = sky_mgr.skyline();
    if (sky.size() == 0) break;

    mb.Gather(sky, dims);

    // Batch scan over the packed blocks, globally impact-ordered: every
    // step consumes the unconsumed block with the highest max impact
    // across all lists (ties: smallest dim), so the per-list frontiers
    // drop as fast as possible and members retire after the fewest
    // blocks. Zero counted I/O: blocks are decoded from the packed
    // image in place. The first block's max impact (the list's largest
    // coefficient) is a tighter initial frontier than max gamma.
    std::fill(next_block.begin(), next_block.end(), 0);
    for (int d = 0; d < dims; ++d) frontier[d] = store->BlockMaxImpact(d, 0);
    ++gen;
    int undone = mb.m_count;

    while (undone > 0) {
      int d = -1;
      double best_impact = -1.0;
      for (int k = 0; k < dims; ++k) {
        if (next_block[k] >= num_blocks) continue;
        const double impact = store->BlockMaxImpact(k, next_block[k]);
        if (impact > best_impact) {
          best_impact = impact;
          d = k;
        }
      }
      if (d < 0) break;  // all lists exhausted
      const int count = store->DecodeBlock(d, next_block[d]++,
                                           blk_fids.data());
      for (int r = 0; r < count; ++r) {
        const FunctionId fid = blk_fids[r];
        if (seen_gen[fid] == gen) continue;
        seen_gen[fid] = gen;
        if (assigned[fid]) continue;
        const double coef = store->eff_of(fid, d);
        if (!WorthFetching(mb, dims, d, coef, max_gamma, frontier)) continue;
        mb.ScoreAgainst(fid, store->EffRow(fid), dims);
      }
      // Unseen functions now sit at or after the next block; a fully
      // consumed list has no unseen functions left at all.
      frontier[d] = next_block[d] < num_blocks
                        ? store->BlockMaxImpact(d, next_block[d])
                        : 0.0;
      undone -= mb.RetireProvablyDone(dims, frontier, max_gamma);
    }
    memory.Set(sky_mgr.memory_bytes() + seen_gen.size() * sizeof(uint32_t) +
               mb.memory_bytes(dims) + blk_fids.size() * sizeof(int32_t) +
               pairing.memory_bytes());

    if (!pairing.Step(mb, sky, ctx, &result.matching)) break;
  }

  result.stats.cpu_ms = timer.ElapsedMs();
  result.stats.peak_memory_bytes = memory.peak();
  return result;
}

}  // namespace fairmatch
