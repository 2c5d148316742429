// Diogenes: the FFM driver (paper §4).
//
// Orchestrates the four collection runs and the analysis stage with no
// user interaction between stages, mirroring the real tool's automated
// multi-run flow. The stages communicate through one evstore::TraceRun
// (optionally saved as a .dgtrace file); the analysis reads that run
// through cursors and nothing else.
#pragma once

#include <string>
#include <vector>

#include "core/benefit.h"
#include "core/graph.h"
#include "core/groupings.h"
#include "core/model.h"
#include "core/tool_config.h"
#include "core/workload.h"

namespace diog::ffm {

struct AnalysisResult {
  std::string workload_name;

  // The run the analysis consumed: every observed event in the columnar
  // store plus run-level metadata. Kept by shared_ptr inside TraceRun,
  // so copying the result does not copy columns. The result holds no
  // per-stage copy of it; a consumer that wants the legacy stage shapes
  // builds them on demand with stageN_view(run) (run_convert.h).
  evstore::TraceRun run;

  // Analysis-stage products.
  ExecutionGraph graph;
  BenefitReport benefit;  // one ExpectedBenefit pass over all problems
  std::vector<Group> single_points;
  std::vector<Group> folds;
  std::vector<Group> sequences;

  // Overhead accounting (§5.3): total collection time across the four
  // runs, relative to the baseline-stage execution time.
  Duration collection_time{0};
  double overhead_factor = 0.0;

  // The denominator for "% of execution time" displays: the baseline
  // (stage 1) measurement, which is designed to run near-native.
  [[nodiscard]] Duration exec_time() const { return run.meta.s1_exec; }
  [[nodiscard]] double fraction_of_exec(Duration d) const {
    return exec_time().count() > 0
               ? static_cast<double>(d.count()) /
                     static_cast<double>(exec_time().count())
               : 0.0;
  }

  // Per-API estimated savings (the Diogenes column of Table 2), sorted
  // by descending savings.
  struct ApiSavings {
    hooks::Fn api;
    Duration savings{0};
    std::size_t problem_count = 0;
  };
  [[nodiscard]] std::vector<ApiSavings> api_savings() const;
};

// Stage 5 in isolation: build the graph, run the expected-benefit pass,
// compute the groupings, and fill the overhead bookkeeping. This is the
// single analysis implementation; it consumes the run through cursors,
// so a run reopened from disk (eventstore/run_io.h) produces the
// byte-identical result of the in-memory pipeline.
AnalysisResult run_analysis(const evstore::TraceRun& run,
                            const ToolConfig& cfg);

class Diogenes {
 public:
  explicit Diogenes(Workload workload, ToolConfig cfg = {});

  // Run all five stages and return the complete analysis.
  AnalysisResult analyze();

 private:
  Workload workload_;
  ToolConfig cfg_;
};

}  // namespace diog::ffm
