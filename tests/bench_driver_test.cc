// The fairmatch_bench driver: figure registry completeness, up-front
// validation (clean errors instead of abort()), and golden checks of
// the CSV/JSON report shapes a smoke-scale figure produces.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "driver/figure_registry.h"
#include "driver/report.h"

namespace fairmatch::bench {
namespace {

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

/// Parses a non-negative decimal number (integer or fixed-point).
bool NonNegativeNumber(const std::string& field) {
  if (field.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  return end == field.c_str() + field.size() && value >= 0.0;
}

class BenchDriverTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(SetScale("smoke")); }

  std::vector<ReportRow> RunFigure(const std::string& name, int repeat,
                                   std::vector<ReportSink*> sinks) {
    std::string error;
    std::vector<FigurePlan> plan = PlanFigures({name}, &error);
    EXPECT_EQ(error, "");
    // A collector on top of the caller's sinks.
    class Collector : public ReportSink {
     public:
      void AddRow(const ReportRow& row) override { rows.push_back(row); }
      std::vector<ReportRow> rows;
    } collector;
    sinks.push_back(&collector);
    RunPlan(plan, repeat, sinks, nullptr);
    return collector.rows;
  }
};

TEST_F(BenchDriverTest, RegistryHasAllBuiltinFigures) {
  const std::vector<std::string> expected = {
      "ablation_sb",
      "batch_throughput",
      "fig08_optimizations",
      "fig09_dimensionality",
      "fig10_function_cardinality",
      "fig11_object_cardinality",
      "fig12_function_distribution",
      "fig13_buffer_size",
      "fig14_function_capacity",
      "fig14_object_capacity",
      "fig15_priority",
      "fig16_nba",
      "fig16_zillow",
      "fig17_disk_functions",
      "micro_bbs",
      "micro_buffer_pool",
      "micro_candidate_queue",
      "micro_packed_probe",
      "micro_ranked_search",
      "micro_reverse_top1",
      "micro_rtree",
      "micro_simd_score",
      "scale_sweep",
  };
  EXPECT_EQ(FigureRegistry::Global().Names(), expected);
  for (const std::string& name : expected) {
    const FigureSpec* spec = FigureRegistry::Global().Find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_FALSE(spec->description.empty()) << name;
    ASSERT_NE(spec->sections, nullptr) << name;
  }
}

TEST_F(BenchDriverTest, PlanRejectsUnknownFigureWithListing) {
  std::string error;
  EXPECT_TRUE(PlanFigures({"fig99_nope"}, &error).empty());
  EXPECT_NE(error.find("unknown figure 'fig99_nope'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("fig08_optimizations"), std::string::npos) << error;
}

TEST_F(BenchDriverTest, CheckRunnableReportsCleanDiagnostics) {
  BenchConfig config;
  EXPECT_EQ(CheckRunnable("SB", config), "");
  const std::string unknown = CheckRunnable("NoSuchMatcher", config);
  EXPECT_NE(unknown.find("unknown matcher"), std::string::npos);
  EXPECT_NE(unknown.find("SB"), std::string::npos);  // registry listing
  EXPECT_NE(CheckRunnable("SB-alt", config).find("disk-resident"),
            std::string::npos);
  EXPECT_NE(CheckRunnable("Naive", config).find("reference oracle"),
            std::string::npos);
}

TEST_F(BenchDriverTest, PlanExpandsEveryFigure) {
  std::string error;
  const std::vector<FigurePlan> plan = PlanFigures({"all"}, &error);
  ASSERT_EQ(error, "");
  EXPECT_EQ(plan.size(), FigureRegistry::Global().size());
  for (const FigurePlan& figure : plan) {
    EXPECT_FALSE(figure.sections.empty()) << figure.name;
    for (const FigureSection& section : figure.sections) {
      EXPECT_FALSE(section.cells.empty()) << figure.name;
      for (const FigureCell& cell : section.cells) {
        EXPECT_FALSE(cell.x.empty()) << figure.name;
        EXPECT_FALSE(cell.runs.empty()) << figure.name;
      }
    }
  }
}

TEST_F(BenchDriverTest, CsvGolden) {
  std::ostringstream csv;
  ReportMeta meta{ScaleName(), "testsha", 1};
  CsvSink sink(&csv, meta);
  RunFigure("fig08_optimizations", 1, {&sink});

  const std::vector<std::string> lines = SplitLines(csv.str());
  ASSERT_EQ(lines.size(),
            1u + 3 * 3);  // header + 3 dims x {SB, UpdateSkyline, DeltaSky}
  EXPECT_EQ(lines[0],
            "figure,section,x,algorithm,io_accesses,cpu_ms,cpu_ms_min,"
            "cpu_ms_stddev,mem_mb,pairs,loops,seed,scale,git_sha");
  EXPECT_EQ(lines[0], CsvHeader());

  const std::set<std::string> algos = {"SB", "SB-UpdateSkyline",
                                       "SB-DeltaSky"};
  const std::set<std::string> xs = {"3", "4", "5"};
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> f = SplitFields(lines[i]);
    ASSERT_EQ(f.size(), 14u) << lines[i];
    EXPECT_EQ(f[0], "fig08_optimizations");
    EXPECT_EQ(f[1], "");  // single-section figure
    EXPECT_EQ(xs.count(f[2]), 1u) << f[2];
    EXPECT_EQ(algos.count(f[3]), 1u) << f[3];
    for (int n = 4; n <= 11; ++n) {
      EXPECT_TRUE(NonNegativeNumber(f[n])) << lines[i];
    }
    EXPECT_EQ(f[12], "smoke");
    EXPECT_EQ(f[13], "testsha");
  }
}

TEST_F(BenchDriverTest, JsonSchema) {
  std::ostringstream json;
  ReportMeta meta{ScaleName(), "testsha", 2};
  JsonSink sink(&json, meta);
  const std::vector<ReportRow> rows =
      RunFigure("fig08_optimizations", 1, {&sink});
  const std::string doc = json.str();

  EXPECT_NE(doc.find("\"schema\": \"fairmatch-bench/v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"scale\": \"smoke\""), std::string::npos);
  EXPECT_NE(doc.find("\"git_sha\": \"testsha\""), std::string::npos);
  EXPECT_NE(doc.find("\"repeat\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"figures\": {"), std::string::npos);
  EXPECT_NE(doc.find("\"fig08_optimizations\": ["), std::string::npos);
  for (const char* key :
       {"\"section\"", "\"x\"", "\"algorithm\"", "\"io_accesses\"",
        "\"cpu_ms\"", "\"cpu_ms_min\"", "\"cpu_ms_stddev\"", "\"mem_mb\"",
        "\"pairs\"", "\"loops\"", "\"seed\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
  // One row object per measurement (plus the document and "figures"
  // objects), balanced braces, no NaN/negatives.
  EXPECT_EQ(static_cast<size_t>(std::count(doc.begin(), doc.end(), '{')),
            2u + rows.size());
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(doc.find("nan"), std::string::npos);
  EXPECT_EQ(doc.find(": -"), std::string::npos);
}

// The repeat-spread columns: cpu_ms_min is the fastest sample (never
// above the median), the stddev is non-negative, and with repeat=1
// both collapse (min == median, stddev == 0) so single-run reports
// stay self-consistent.
TEST_F(BenchDriverTest, RepeatRowsCarryMinAndStddev) {
  const std::vector<ReportRow> once = RunFigure("fig08_optimizations", 1, {});
  for (const ReportRow& row : once) {
    EXPECT_EQ(row.cpu_ms_min, row.cpu_ms) << row.algorithm;
    EXPECT_EQ(row.cpu_ms_stddev, 0.0) << row.algorithm;
  }
  const std::vector<ReportRow> thrice =
      RunFigure("fig08_optimizations", 3, {});
  for (const ReportRow& row : thrice) {
    EXPECT_LE(row.cpu_ms_min, row.cpu_ms) << row.algorithm;
    EXPECT_GE(row.cpu_ms_stddev, 0.0) << row.algorithm;
  }
}

TEST_F(BenchDriverTest, RowsCarryDeterministicFieldsAcrossRepeats) {
  const std::vector<ReportRow> once = RunFigure("fig08_optimizations", 1, {});
  const std::vector<ReportRow> thrice =
      RunFigure("fig08_optimizations", 3, {});
  ASSERT_EQ(once.size(), thrice.size());
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(once[i].figure, thrice[i].figure);
    EXPECT_EQ(once[i].x, thrice[i].x);
    EXPECT_EQ(once[i].algorithm, thrice[i].algorithm);
    // Everything but the clock is deterministic, so the median-of-3
    // must reproduce the single run exactly.
    EXPECT_EQ(once[i].io_accesses, thrice[i].io_accesses);
    EXPECT_EQ(once[i].pairs, thrice[i].pairs);
    EXPECT_EQ(once[i].loops, thrice[i].loops);
    EXPECT_EQ(once[i].seed, thrice[i].seed);
    EXPECT_GT(once[i].pairs, 0u);
  }
}

// The batch figure: one row per (lane count, algorithm), with the
// deterministic columns (io/pairs/loops — batch totals) identical at
// every lane count. This is the same cross-thread invariant
// tests/batch_test.cc proves at the engine layer, asserted here on the
// report surface CI gates on.
/// Restores the default batch-figure params on scope exit, so a failed
/// ASSERT inside a test cannot leak overrides into later tests.
struct BatchParamsGuard {
  ~BatchParamsGuard() { SetBatchBenchParams(BatchBenchParams{}); }
};

TEST_F(BenchDriverTest, BatchThroughputRowsAreThreadCountInvariant) {
  BatchParamsGuard guard;
  BatchBenchParams params;
  params.threads = {1, 2};
  params.batch_items = 4;
  SetBatchBenchParams(params);
  const std::vector<ReportRow> rows = RunFigure("batch_throughput", 1, {});

  const std::set<std::string> algos = {"SB", "BruteForce", "SB-alt"};
  ASSERT_EQ(rows.size(), params.threads.size() * algos.size());
  std::map<std::string, std::vector<ReportRow>> by_algo;
  for (const ReportRow& row : rows) {
    EXPECT_EQ(row.figure, "batch_throughput");
    EXPECT_TRUE(row.x == "1" || row.x == "2") << row.x;
    EXPECT_EQ(algos.count(row.algorithm), 1u) << row.algorithm;
    EXPECT_GT(row.pairs, 0u) << row.algorithm;
    by_algo[row.algorithm].push_back(row);
  }
  for (const auto& [algo, algo_rows] : by_algo) {
    ASSERT_EQ(algo_rows.size(), 2u) << algo;
    EXPECT_EQ(algo_rows[0].io_accesses, algo_rows[1].io_accesses) << algo;
    EXPECT_EQ(algo_rows[0].pairs, algo_rows[1].pairs) << algo;
    EXPECT_EQ(algo_rows[0].loops, algo_rows[1].loops) << algo;
  }
}

// End-to-end plumbing of the --threads/--batch flags: DriverOptions ->
// SetBatchBenchParams -> figure expansion -> CSV rows.
TEST_F(BenchDriverTest, BatchFlagsPlumbThroughRunDriver) {
  BatchParamsGuard guard;
  const std::string out_path =
      ::testing::TempDir() + "/fairmatch_batch_flags.csv";
  DriverOptions options;
  options.figures = {"batch_throughput"};
  options.scale = "smoke";
  options.format = "csv";
  options.out_path = out_path;
  options.batch_threads = {1, 3};
  options.batch_items = 4;
  ASSERT_EQ(RunDriver(options), 0);

  std::ifstream in(out_path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::vector<std::string> lines = SplitLines(buffer.str());
  ASSERT_EQ(lines.size(), 1u + 2 * 3);  // header + {1,3} x three algos
  EXPECT_EQ(lines[0], CsvHeader());
  std::set<std::string> xs;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> f = SplitFields(lines[i]);
    ASSERT_EQ(f.size(), 14u) << lines[i];
    EXPECT_EQ(f[0], "batch_throughput");
    xs.insert(f[2]);
    for (int n = 4; n <= 11; ++n) {
      EXPECT_TRUE(NonNegativeNumber(f[n])) << lines[i];
    }
  }
  EXPECT_EQ(xs, (std::set<std::string>{"1", "3"}));
  std::remove(out_path.c_str());
}

TEST_F(BenchDriverTest, AblationRunsThroughCustomRunners) {
  const std::vector<ReportRow> rows = RunFigure("ablation_sb", 1, {});
  ASSERT_EQ(rows.size(), 10u);  // 5 omega + 3 probing + 2 multi-pair
  std::set<std::string> sections;
  for (const ReportRow& row : rows) {
    sections.insert(row.section);
    EXPECT_EQ(row.algorithm, "SB");
    EXPECT_GT(row.pairs, 0u);
  }
  EXPECT_EQ(sections,
            (std::set<std::string>{"omega", "probing", "multi-pair"}));
}

}  // namespace
}  // namespace fairmatch::bench
