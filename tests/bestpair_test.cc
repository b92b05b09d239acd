// Unit tests for the mutual-best pair engine and for the rounded-up
// function R-tree scoring used by Chain.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "fairmatch/assign/best_pair.h"
#include "fairmatch/common/float_util.h"
#include "fairmatch/common/rng.h"
#include "fairmatch/data/synthetic.h"
#include "fairmatch/rtree/node_store.h"
#include "fairmatch/rtree/rtree.h"
#include "fairmatch/topk/ranked_search.h"

namespace fairmatch {
namespace {

Point P2(float x, float y) {
  Point p(2);
  p[0] = x;
  p[1] = y;
  return p;
}

std::vector<MatchPair> FindPairs(BestPairEngine* engine,
                                 const std::vector<MemberCandidate>& members,
                                 const std::vector<ObjectId>& added) {
  std::vector<MatchPair> pairs;
  engine->FindMutualPairs(members, added, &pairs);
  return pairs;
}

FunctionSet TwoFunctions() {
  FunctionSet fns(2);
  fns[0] = PrefFunction{0, 2, {0.9, 0.1}, 1.0, 1};
  fns[1] = PrefFunction{1, 2, {0.1, 0.9}, 1.0, 1};
  return fns;
}

TEST(BestPairEngineTest, MutualPairDetected) {
  FunctionSet fns = TwoFunctions();
  BestPairEngine engine(&fns);
  Point a = P2(0.9f, 0.1f);  // best for f0
  Point b = P2(0.1f, 0.9f);  // best for f1
  std::vector<MemberCandidate> members{
      {0, &a, 0, fns[0].Score(a)},
      {1, &b, 1, fns[1].Score(b)},
  };
  auto pairs = FindPairs(&engine, members, {0, 1});
  ASSERT_EQ(pairs.size(), 2u);
}

TEST(BestPairEngineTest, NonMutualCandidateNotEmitted) {
  FunctionSet fns = TwoFunctions();
  BestPairEngine engine(&fns);
  Point a = P2(0.9f, 0.2f);
  Point b = P2(0.8f, 0.1f);  // also names f0 but scores lower
  std::vector<MemberCandidate> members{
      {0, &a, 0, fns[0].Score(a)},
      {1, &b, 0, fns[0].Score(b)},
  };
  auto pairs = FindPairs(&engine, members, {0, 1});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].oid, 0);
  EXPECT_EQ(pairs[0].fid, 0);
}

TEST(BestPairEngineTest, CacheUpdatesWithNewMembers) {
  FunctionSet fns = TwoFunctions();
  BestPairEngine engine(&fns);
  Point a = P2(0.7f, 0.1f);
  std::vector<MemberCandidate> members{{0, &a, 0, fns[0].Score(a)}};
  auto pairs = FindPairs(&engine, members, {0});
  ASSERT_EQ(pairs.size(), 1u);

  // A better object for f0 joins the skyline: the cached obest must be
  // displaced, so the old member no longer forms a mutual pair.
  Point better = P2(0.95f, 0.2f);
  std::vector<MemberCandidate> members2{
      {0, &a, 0, fns[0].Score(a)},
      {7, &better, 0, fns[0].Score(better)},
  };
  auto pairs2 = FindPairs(&engine, members2, {7});
  ASSERT_EQ(pairs2.size(), 1u);
  EXPECT_EQ(pairs2[0].oid, 7);
}

TEST(BestPairEngineTest, RemovedObjectInvalidatesCache) {
  FunctionSet fns = TwoFunctions();
  BestPairEngine engine(&fns);
  Point a = P2(0.9f, 0.1f);
  Point b = P2(0.7f, 0.1f);
  std::vector<MemberCandidate> members{
      {0, &a, 0, fns[0].Score(a)},
      {1, &b, 0, fns[0].Score(b)},
  };
  auto pairs = FindPairs(&engine, members, {0, 1});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].oid, 0);

  engine.OnObjectsRemoved({0});
  std::vector<MemberCandidate> members2{{1, &b, 0, fns[0].Score(b)}};
  auto pairs2 = FindPairs(&engine, members2, {});
  ASSERT_EQ(pairs2.size(), 1u);
  EXPECT_EQ(pairs2[0].oid, 1);  // full rescan found the survivor
}

// Differential check of the cached engine against a reference that
// recomputes every f.obest over all current members on every call.
// Members are the skyline of a live object set. It loses assigned and
// deleted objects, and it gains objects under fresh oids far above any
// seen before or under removed oids joining again. Most arrivals are
// strictly dominated by a live object, so they never beat a cached best
// (the engine's contract). The others are unconstrained, and the call
// that first sees them names every open function as some member's
// candidate, so the engine must compare them against every cached best.
// Functions and objects carry capacities above one; some calls repeat
// with an empty `added`; candidates are otherwise mostly each member's
// best open function, sometimes a random one.
TEST(BestPairEngineTest, MatchesFullRecomputeOverRandomSequences) {
  constexpr int kDims = 3;
  int rejoins = 0;
  int fresh = 0;
  int empty_added = 0;
  int multi_cap_pairs = 0;
  int covered_calls = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 7919);
    const int num_fns = static_cast<int>(rng.UniformInt(4, 30));
    FunctionSet fns(num_fns);
    for (int f = 0; f < num_fns; ++f) {
      fns[f].id = f;
      fns[f].dims = kDims;
      double sum = 0.0;
      for (int d = 0; d < kDims; ++d) {
        fns[f].alpha[d] = rng.Uniform(0.05, 1.0);
        sum += fns[f].alpha[d];
      }
      for (int d = 0; d < kDims; ++d) fns[f].alpha[d] /= sum;
      fns[f].capacity = static_cast<int>(rng.UniformInt(1, 3));
    }
    struct Obj {
      Point point;
      int cap = 0;
      bool live = false;
    };
    std::map<ObjectId, Obj> objs;
    const int num_objs = static_cast<int>(rng.UniformInt(5, 60));
    for (ObjectId oid = 0; oid < num_objs; ++oid) {
      Obj& o = objs[oid];
      o.point = Point(kDims);
      for (int d = 0; d < kDims; ++d) {
        o.point[d] = static_cast<float>(rng.Uniform(0.01, 1.0));
      }
      o.cap = static_cast<int>(rng.UniformInt(1, 2));
      o.live = true;
    }
    ObjectId max_oid = num_objs - 1;
    std::vector<int> fcap(num_fns);
    for (const PrefFunction& f : fns) fcap[f.id] = f.capacity;
    std::set<ObjectId> known;  // members reported to the engine
    ObjectId unconstrained = kInvalidObject;  // last arrival, if free

    BestPairEngine engine(&fns);
    std::vector<MatchPair> got;
    for (int step = 0; step < 400; ++step) {
      std::vector<FunctionId> open_fns;
      for (FunctionId f = 0; f < num_fns; ++f) {
        if (fcap[f] > 0) open_fns.push_back(f);
      }
      // Skyline of the live objects, in a shuffled member order.
      auto skyline = [&] {
        std::vector<ObjectId> sky;
        for (const auto& [oid, o] : objs) {
          if (!o.live) continue;
          bool dominated = false;
          for (const auto& [other_id, other] : objs) {
            if (!other.live || other_id == oid) continue;
            bool all_ge = true;
            bool some_gt = false;
            for (int d = 0; d < kDims; ++d) {
              all_ge = all_ge && other.point[d] >= o.point[d];
              some_gt = some_gt || other.point[d] > o.point[d];
            }
            if (all_ge && some_gt) {
              dominated = true;
              break;
            }
          }
          if (!dominated) sky.push_back(oid);
        }
        return sky;
      };
      std::vector<ObjectId> sky = skyline();
      if (unconstrained != kInvalidObject &&
          sky.size() < open_fns.size()) {
        // Too few members to name every open function: withdraw the
        // unconstrained arrival before the engine sees it.
        objs[unconstrained].live = false;
        sky = skyline();
      }
      const bool cover = unconstrained != kInvalidObject &&
                         objs[unconstrained].live;
      unconstrained = kInvalidObject;
      if (open_fns.empty() || sky.empty()) break;
      for (size_t i = sky.size(); i > 1; --i) {
        std::swap(sky[i - 1], sky[rng.UniformInt(0, i - 1)]);
      }

      std::vector<MemberCandidate> members;
      std::vector<ObjectId> added;
      for (ObjectId oid : sky) {
        const Point& p = objs[oid].point;
        FunctionId fbest = kInvalidFunction;
        double best_s = 0.0;
        if (cover && members.size() < open_fns.size()) {
          fbest = open_fns[members.size()];
          best_s = fns[fbest].Score(p);
          ++covered_calls;
        } else if (rng.UniformInt(0, 4) == 0) {
          fbest = open_fns[rng.UniformInt(0, open_fns.size() - 1)];
          best_s = fns[fbest].Score(p);
        } else {
          for (FunctionId f : open_fns) {
            double s = fns[f].Score(p);
            if (fbest == kInvalidFunction || s > best_s) {
              fbest = f;
              best_s = s;
            }
          }
        }
        members.push_back(MemberCandidate{oid, &p, fbest, best_s});
        if (known.insert(oid).second) added.push_back(oid);
      }

      // Reference: f.obest over all members, then the mutual pairs.
      std::vector<MatchPair> want;
      for (const MemberCandidate& m : members) {
        const PrefFunction& f = fns[m.fbest];
        const MemberCandidate* best = nullptr;
        double best_s = 0.0;
        for (const MemberCandidate& c : members) {
          double s = f.Score(*c.point);
          if (best == nullptr ||
              PairBefore(s, f.id, c.oid, best_s, f.id, best->oid)) {
            best = &c;
            best_s = s;
          }
        }
        if (best->oid == m.oid) {
          want.push_back(MatchPair{m.fbest, m.oid, m.fbest_score});
        }
      }

      const int repeats = rng.UniformInt(0, 4) == 0 ? 2 : 1;
      for (int r = 0; r < repeats; ++r) {
        if (r > 0) {
          added.clear();
          ++empty_added;
        }
        engine.FindMutualPairs(members, added, &got);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " step "
                                           << step;
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i].fid, want[i].fid) << "seed " << seed;
          ASSERT_EQ(got[i].oid, want[i].oid) << "seed " << seed;
          ASSERT_EQ(got[i].score, want[i].score) << "seed " << seed;
        }
      }

      // Apply the pairs, then delete a random member now and then.
      std::vector<ObjectId> removed;
      for (const MatchPair& pair : got) {
        if (--fcap[pair.fid] == 0) {
          engine.OnFunctionAssigned(pair.fid);
        } else {
          ++multi_cap_pairs;
        }
        if (--objs[pair.oid].cap == 0) removed.push_back(pair.oid);
      }
      if (rng.UniformInt(0, 5) == 0) {
        const ObjectId victim = sky[rng.UniformInt(0, sky.size() - 1)];
        if (objs[victim].cap > 0) {
          objs[victim].cap = 0;
          removed.push_back(victim);
        }
      }
      for (ObjectId oid : removed) {
        objs[oid].live = false;
        known.erase(oid);
      }
      engine.OnObjectsRemoved(removed);

      // An arrival: a removed oid joining again, or a fresh oid above
      // every oid seen so far; dominated by a live object, or free.
      std::vector<ObjectId> live;
      std::vector<ObjectId> dead;
      for (const auto& [oid, o] : objs) (o.live ? live : dead).push_back(oid);
      if (!live.empty() && rng.UniformInt(0, 2) == 0) {
        const Point& host = objs[live[rng.UniformInt(0, live.size() - 1)]].point;
        const bool free = rng.UniformInt(0, 2) == 0;
        ObjectId oid;
        if (!dead.empty() && rng.UniformInt(0, 1) == 0) {
          oid = dead[rng.UniformInt(0, dead.size() - 1)];
          ++rejoins;
        } else {
          oid = max_oid + static_cast<ObjectId>(rng.UniformInt(1, 500));
          max_oid = oid;
          ++fresh;
        }
        Obj& o = objs[oid];
        o.point = Point(kDims);
        for (int d = 0; d < kDims; ++d) {
          o.point[d] =
              free ? static_cast<float>(rng.Uniform(0.3, 1.0))
                   : host[d] * static_cast<float>(rng.Uniform(0.3, 0.95));
        }
        o.cap = static_cast<int>(rng.UniformInt(1, 2));
        o.live = true;
        if (free) unconstrained = oid;
      }
    }
  }
  // Every case the sequences are meant to reach was reached.
  EXPECT_GT(rejoins, 0);
  EXPECT_GT(fresh, 0);
  EXPECT_GT(empty_added, 0);
  EXPECT_GT(multi_cap_pairs, 0);
  EXPECT_GT(covered_calls, 0);
}

// Chain's function R-tree stores FloatUp-rounded effective coefficients
// as coordinates. Property: with exact leaf rescoring the search still
// returns the exact argmax function, for random objects and priorities.
TEST(FunctionTreeSearchTest, FloatUpCoordinatesPreserveExactOrder) {
  Rng rng(99);
  FunctionSet fns = GenerateFunctions(600, 4, &rng);
  AssignPriorities(&fns, 8, &rng);
  MemNodeStore store(4);
  RTree ftree(&store);
  std::vector<ObjectRecord> records;
  for (const PrefFunction& f : fns) {
    Point w(4);
    for (int d = 0; d < 4; ++d) w[d] = FloatUp(f.eff(d));
    records.push_back({w, f.id});
  }
  ftree.BulkLoad(records);

  auto points = GeneratePoints(Distribution::kIndependent, 200, 4, &rng);
  for (const Point& o : points) {
    // Exhaustive argmax (score desc, fid asc).
    FunctionId best = kInvalidFunction;
    double best_s = 0.0;
    for (const PrefFunction& f : fns) {
      double s = f.Score(o);
      if (best == kInvalidFunction || s > best_s ||
          (s == best_s && f.id < best)) {
        best = f.id;
        best_s = s;
      }
    }
    PrefFunction pseudo;
    pseudo.id = 0;
    pseudo.dims = 4;
    for (int d = 0; d < 4; ++d) pseudo.alpha[d] = o[d];
    RankedSearch search(&ftree, &pseudo);
    search.set_leaf_scorer(
        [&](ObjectId fid, const Point&) { return fns[fid].Score(o); });
    auto hit = search.Next();
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->id, best);
    EXPECT_DOUBLE_EQ(hit->score, best_s);
  }
}

}  // namespace
}  // namespace fairmatch
