// Randomized differential sweep at the engine layer: for N seeded
// instances x every registered matcher, the result produced through
// MatcherRegistry/Matcher::Run must (a) pass the Definition-1 verifier
// (assign/verifier.h) and (b) agree with the naive by-definition oracle
// — same (fid, oid) matching and same objective value — both with
// in-memory function lists and with the disk-resident-F layout forced.
//
// This differs from stress_test.cc (which drives the algorithm entry
// points directly) by exercising the exact surface production callers
// and the batch layer use, and by checking stability rather than only
// cross-implementation agreement.
//
// A second sweep pins registry SB across every function index it can
// run on — a resident in-memory image, an mmap'd image, a DeltaBuilder
// patch overlay, the anonymous image SB builds itself — against the
// paper's entry-at-a-time TA over FunctionLists: identical pair
// sequences, and on small instances the oracle's matching (under ties,
// a matching the Definition-1 verifier accepts).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "fairmatch/assign/naive_matcher.h"
#include "fairmatch/assign/sb.h"
#include "fairmatch/assign/verifier.h"
#include "fairmatch/data/synthetic.h"
#include "fairmatch/engine/registry.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/update/delta_builder.h"
#include "fairmatch/update/stream_matcher.h"
#include "test_util.h"

namespace fairmatch {
namespace {

using fairmatch::testing::ProblemSpec;
using fairmatch::testing::RandomProblem;
using fairmatch::testing::RunRegisteredMatcher;

/// Objective value in canonical pair order, so the floating-point sum
/// is comparable across algorithms that discover pairs in different
/// orders.
double CanonicalObjective(Matching matching) {
  CanonicalizeMatching(&matching);
  double sum = 0.0;
  for (const MatchPair& pair : matching) sum += pair.score;
  return sum;
}

/// A randomized shape drawn from the sweep seed, mirroring the
/// stress-test methodology (small enough for the O(P*|F|*|O|) oracle).
ProblemSpec SpecForSeed(int seed) {
  Rng shape_rng(static_cast<uint64_t>(seed) * 6271 + 29);
  ProblemSpec spec;
  spec.num_functions = 5 + static_cast<int>(shape_rng.UniformInt(0, 35));
  spec.num_objects = 20 + static_cast<int>(shape_rng.UniformInt(0, 100));
  spec.dims = 2 + static_cast<int>(shape_rng.UniformInt(0, 3));
  spec.distribution = static_cast<Distribution>(shape_rng.UniformInt(0, 2));
  spec.seed = static_cast<uint64_t>(seed) * 70001 + 17;
  spec.function_capacity = 1 + static_cast<int>(shape_rng.UniformInt(0, 1));
  spec.object_capacity = 1 + static_cast<int>(shape_rng.UniformInt(0, 1));
  spec.max_gamma = 1 + static_cast<int>(shape_rng.UniformInt(0, 3));
  return spec;
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, EngineResultsMatchOracleAndVerify) {
  const int seed = GetParam();
  const AssignmentProblem problem = RandomProblem(SpecForSeed(seed));
  const Matching want = NaiveStableMatching(problem);
  const double want_objective = CanonicalObjective(want);

  // The oracle itself must pass its own definition.
  ASSERT_TRUE(VerifyStableMatching(problem, want).ok) << "seed " << seed;

  for (const std::string& name : MatcherRegistry::Global().Names()) {
    // Both storage layouts: in-memory function lists, and the Section
    // 7.6 disk-resident-F setting forced onto every matcher (variants
    // without a disk-F code path ignore the store and must still agree).
    for (const bool disk_f : {false, true}) {
      const AssignResult got = RunRegisteredMatcher(
          name, problem, /*ctx=*/nullptr, /*force_disk_functions=*/disk_f);
      const std::string label =
          name + (disk_f ? " (disk-F)" : " (in-memory)") + ", seed " +
          std::to_string(seed);

      const VerifyResult verdict =
          VerifyStableMatching(problem, got.matching);
      EXPECT_TRUE(verdict.ok) << label << ": " << verdict.message;

      EXPECT_TRUE(SameMatching(got.matching, want))
          << label << " diverges from the oracle (|want|=" << want.size()
          << ", |got|=" << got.matching.size() << ")";
      EXPECT_DOUBLE_EQ(CanonicalObjective(got.matching), want_objective)
          << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(0, 12));

// --- SB across function-index backends --------------------------------

using fairmatch::testing::GridFunctions;
using fairmatch::testing::MemTree;

/// Seeds cover every (dims, distribution) pair, each with and without
/// ties; every third seed is a multi-block instance too big for the
/// oracle.
constexpr int kBackendSeeds = 24;
bool TieHeavy(int seed) { return seed >= kBackendSeeds / 2; }
bool Large(int seed) { return seed % 3 == 2; }

/// The base instance of a backend seed: dims 2..5 and the distribution
/// from the seed, random capacities and priorities. Tie-heavy seeds
/// snap points to a coarse grid and draw grid functions, so duplicated
/// coefficients straddle block boundaries.
AssignmentProblem BackendProblem(int seed) {
  Rng rng(static_cast<uint64_t>(seed) * 4099 + 7);
  const int dims = 2 + seed % 4;
  const auto distribution = static_cast<Distribution>((seed / 4) % 3);
  const bool large = Large(seed);
  const int num_functions =
      large ? 260 + static_cast<int>(rng.UniformInt(0, 80))
            : 12 + static_cast<int>(rng.UniformInt(0, 28));
  const int num_objects =
      large ? 400 : 40 + static_cast<int>(rng.UniformInt(0, 80));
  std::vector<Point> points =
      GeneratePoints(distribution, num_objects, dims, &rng);
  FunctionSet fns;
  if (TieHeavy(seed)) {
    for (Point& p : points) {
      for (int d = 0; d < dims; ++d) p[d] = std::round(p[d] * 4.0f) / 4.0f;
    }
    fns = GridFunctions(num_functions, dims, /*levels=*/3,
                        static_cast<uint64_t>(seed) + 101);
  } else {
    fns = GenerateFunctions(num_functions, dims, &rng);
  }
  if (rng.UniformInt(0, 1) == 1) AssignPriorities(&fns, 3, &rng);
  if (rng.UniformInt(0, 1) == 1) SetFunctionCapacities(&fns, 2);
  return MakeProblem(std::move(points), std::move(fns),
                     1 + static_cast<int>(rng.UniformInt(0, 1)));
}

/// Exact pair-sequence equality: ids and scores, in emission order.
void ExpectSameSequence(const Matching& got, const Matching& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].fid, want[i].fid) << label << " pair " << i;
    EXPECT_EQ(got[i].oid, want[i].oid) << label << " pair " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " pair " << i;
  }
}

class IndexBackendDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexBackendDifferentialTest, SbMatchesAcrossFunctionIndexes) {
  const int seed = GetParam();
  const bool large = Large(seed);

  // The patch-overlay epoch comes first: its live problem (functions
  // tombstoned, renamed and appended) is the instance every backend
  // then runs on. Small blocks give even small lists several blocks.
  serve::DatasetOptions block_opts;
  block_opts.packed_block_entries = large ? 32 : 4;
  serve::DatasetRegistry registry;
  const serve::DatasetHandle base =
      registry.Open("base", BackendProblem(seed), block_opts);
  update::DeltaOptions delta_opts;
  delta_opts.dataset = block_opts;
  delta_opts.compaction_threshold = 1e9;  // keep the overlay
  update::DeltaBuilder builder(base, delta_opts);
  update::UpdateBatch batch;
  batch.delete_functions = {0, 3};
  batch.delete_objects = {1, 2};
  const AssignmentProblem& base_problem = base->problem();
  batch.insert_functions = {base_problem.functions[5],
                            base_problem.functions[6],
                            base_problem.functions[1]};
  ObjectItem arrival;
  arrival.point = base_problem.objects[4].point;  // a duplicate point
  batch.insert_objects = {arrival};
  ASSERT_TRUE(builder.Apply(batch).ok());
  const serve::DatasetHandle patched = builder.current();
  ASSERT_TRUE(patched->packed()->patched());
  const AssignmentProblem& problem = patched->problem();

  // Reference: the paper's TA (default SBOptions) over FunctionLists.
  MemTree mem(problem);
  SBAssignment paper(&problem, &mem.tree, SBOptions{});
  const Matching want = paper.Run().matching;
  // The SB family is stable but not oracle-identical under ties
  // (MatcherInfo::exact_under_ties), so tie-heavy instances check
  // stability by Definition 1 instead of equality with the oracle.
  if (!large && TieHeavy(seed)) {
    const VerifyResult verdict = VerifyStableMatching(problem, want);
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.message;
  } else if (!large) {
    EXPECT_TRUE(SameMatching(want, NaiveStableMatching(problem)))
        << "seed " << seed << ": entry-at-a-time SB diverges from the oracle";
  }

  serve::DatasetOptions mmap_opts = block_opts;
  mmap_opts.packed_mmap = true;
  const serve::DatasetHandle resident =
      registry.Open("resident", problem, block_opts);
  const serve::DatasetHandle mapped =
      registry.Open("mapped", problem, mmap_opts);
  ASSERT_FALSE(resident->packed()->mapped());
  ASSERT_TRUE(mapped->packed()->mapped());

  const std::string tag = "seed " + std::to_string(seed);
  ExpectSameSequence(update::RunOnDataset(*resident, "SB").matching, want,
                     tag + " resident image");
  ExpectSameSequence(update::RunOnDataset(*mapped, "SB").matching, want,
                     tag + " mmap'd image");
  ExpectSameSequence(update::RunOnDataset(*patched, "SB").matching, want,
                     tag + " patched epoch");
  ExpectSameSequence(RunRegisteredMatcher("SB", problem).matching, want,
                     tag + " anonymous image");
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexBackendDifferentialTest,
                         ::testing::Range(0, kBackendSeeds));

}  // namespace
}  // namespace fairmatch
