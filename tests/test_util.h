// Shared helpers for the fairmatch test suite.
#ifndef FAIRMATCH_TESTS_TEST_UTIL_H_
#define FAIRMATCH_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "fairmatch/assign/problem.h"
#include "fairmatch/common/check.h"
#include "fairmatch/common/rng.h"
#include "fairmatch/data/synthetic.h"
#include "fairmatch/engine/registry.h"
#include "fairmatch/geom/point.h"
#include "fairmatch/rtree/node_store.h"
#include "fairmatch/rtree/rtree.h"
#include "fairmatch/topk/disk_function_lists.h"
#include "fairmatch/topk/packed_function_lists.h"

namespace fairmatch::testing {

/// Parameters for random problem construction.
struct ProblemSpec {
  int num_functions = 20;
  int num_objects = 100;
  int dims = 3;
  Distribution distribution = Distribution::kIndependent;
  uint64_t seed = 42;
  int function_capacity = 1;
  int object_capacity = 1;
  int max_gamma = 1;  // > 1 enables priorities
};

inline AssignmentProblem RandomProblem(const ProblemSpec& spec) {
  Rng rng(spec.seed);
  std::vector<Point> points =
      GeneratePoints(spec.distribution, spec.num_objects, spec.dims, &rng);
  FunctionSet fns = GenerateFunctions(spec.num_functions, spec.dims, &rng);
  if (spec.max_gamma > 1) AssignPriorities(&fns, spec.max_gamma, &rng);
  if (spec.function_capacity != 1) {
    SetFunctionCapacities(&fns, spec.function_capacity);
  }
  return MakeProblem(std::move(points), std::move(fns),
                     spec.object_capacity);
}

/// Points snapped to a coarse grid: guarantees heavy score ties and
/// duplicate points.
inline std::vector<Point> GridPoints(int n, int dims, int levels,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  for (int i = 0; i < n; ++i) {
    Point p(dims);
    for (int d = 0; d < dims; ++d) {
      p[d] = static_cast<float>(rng.UniformInt(0, levels)) / levels;
    }
    points.push_back(p);
  }
  return points;
}

/// Functions with grid weights (ties across functions are common).
inline FunctionSet GridFunctions(int n, int dims, int levels,
                                 uint64_t seed) {
  Rng rng(seed);
  FunctionSet fns;
  fns.reserve(n);
  for (int i = 0; i < n; ++i) {
    PrefFunction f;
    f.id = i;
    f.dims = dims;
    double total = 0.0;
    double w[kMaxDims];
    for (int d = 0; d < dims; ++d) {
      w[d] = static_cast<double>(rng.UniformInt(0, levels));
      total += w[d];
    }
    for (int d = 0; d < dims; ++d) {
      f.alpha[d] = total > 0 ? w[d] / total : 1.0 / dims;
    }
    fns.push_back(f);
  }
  return fns;
}

/// An object R-tree in memory for a problem.
struct MemTree {
  explicit MemTree(const AssignmentProblem& problem)
      : store(problem.dims), tree(&store) {
    BuildObjectTree(problem, &tree);
  }
  MemNodeStore store;
  RTree tree;
};

/// Runs the registered matcher `name` on a fresh in-memory tree (safe
/// for tree-mutating matchers). A disk-resident function store is built
/// where the variant requires one, or for any variant when
/// `force_disk_functions` is set (the Section 7.6 test setting); a
/// packed store (in-memory, or file-backed when `packed_mmap` is set)
/// is built for variants that require that. Instrumentation goes
/// through `ctx` when given.
inline AssignResult RunRegisteredMatcher(const std::string& name,
                                         const AssignmentProblem& problem,
                                         ExecContext* ctx = nullptr,
                                         bool force_disk_functions = false,
                                         double buffer_fraction = 0.02,
                                         bool packed_mmap = false) {
  const MatcherInfo* info = MatcherRegistry::Global().Find(name);
  FAIRMATCH_CHECK(info != nullptr);
  MemTree mem(problem);
  std::unique_ptr<DiskFunctionStore> fstore;
  std::unique_ptr<PackedFunctionStore> pstore;
  MatcherEnv env;
  env.problem = &problem;
  env.tree = &mem.tree;
  env.buffer_fraction = buffer_fraction;
  env.ctx = ctx;
  if (info->needs_disk_functions || force_disk_functions) {
    fstore = std::make_unique<DiskFunctionStore>(
        problem.functions, buffer_fraction,
        ctx != nullptr ? &ctx->counters() : nullptr);
    env.fn_store = fstore.get();
  }
  if (info->needs_packed_functions) {
    PackedStoreOptions popts;
    popts.use_mmap = packed_mmap;
    pstore = std::make_unique<PackedFunctionStore>(problem.functions, popts);
    env.packed_fns = pstore.get();
  }
  std::unique_ptr<Matcher> matcher =
      MatcherRegistry::Global().Create(name, env);
  FAIRMATCH_CHECK(matcher != nullptr);
  return matcher->Run();
}

/// Brute-force skyline of a point set (paper dominance: >= everywhere,
/// not coincident).
inline std::vector<int> NaiveSkyline(const std::vector<Point>& points,
                                     const std::vector<bool>* alive =
                                         nullptr) {
  std::vector<int> result;
  for (size_t i = 0; i < points.size(); ++i) {
    if (alive != nullptr && !(*alive)[i]) continue;
    bool dominated = false;
    for (size_t j = 0; j < points.size() && !dominated; ++j) {
      if (i == j) continue;
      if (alive != nullptr && !(*alive)[j]) continue;
      dominated = points[j].Dominates(points[i]);
    }
    if (!dominated) result.push_back(static_cast<int>(i));
  }
  return result;
}

}  // namespace fairmatch::testing

#endif  // FAIRMATCH_TESTS_TEST_UTIL_H_
