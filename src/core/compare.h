// Differential analysis: did the fix deliver what the estimate promised?
//
// Table 1's methodology as a library: analyze the application before and
// after a change, match problem groups across the two runs by source
// identity (API + folded stack), and report — per group and overall —
// the estimated benefit, the realized change in execution time, and
// which problems disappeared, shrank, or appeared. This closes the loop
// the paper closes manually ("we were able to improve the performance of
// these applications by as much as 17%"), and doubles as a regression
// guard: a "fix" that makes new problems appear is flagged.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/diogenes.h"

namespace diog::ffm {

struct GroupDelta {
  std::string title;  // the fold's title ("Fold on cudaFree")
  Duration before{0};
  Duration after{0};
  [[nodiscard]] Duration resolved() const {
    return before > after ? before - after : Duration{0};
  }
  [[nodiscard]] bool disappeared() const { return after == Duration{0}; }
  [[nodiscard]] bool appeared() const { return before == Duration{0}; }
};

struct FixOutcome {
  Duration exec_before{0};
  Duration exec_after{0};
  // Positive = the change made the application faster.
  [[nodiscard]] Duration realized() const {
    return exec_before - exec_after;
  }

  // Benefit the 'before' analysis estimated for the groups that are now
  // gone or smaller.
  Duration estimated_for_resolved{0};
  // min/max accuracy of that estimate against the realized change, the
  // Table-1 statistic.
  [[nodiscard]] double accuracy() const;

  std::vector<GroupDelta> deltas;  // sorted by resolved benefit
  // Problem groups present only in the 'after' run: regressions the fix
  // introduced.
  std::vector<std::string> new_problems;
};

// Match by fold identity (API function), the stable cross-run key.
FixOutcome compare_analyses(const AnalysisResult& before,
                            const AnalysisResult& after);

// Convenience: run the full pipeline on both variants and compare.
FixOutcome evaluate_fix(const Workload& before, const Workload& after,
                        const ToolConfig& cfg = {});

// Differential analysis over two runs (live or reopened from .dgtrace
// files): both sides go through the single cursor-based stage-5
// implementation, so `diogenes trace diff before.dgtrace after.dgtrace`
// matches what the live pipeline would report.
FixOutcome compare_runs(const evstore::TraceRun& before,
                        const evstore::TraceRun& after,
                        const ToolConfig& cfg = {});

std::string render_fix_outcome(const FixOutcome& o);

// Accuracy as the paper's Table 1 reports it: min/max of (estimated,
// actual); 0 when either is not positive.
double estimate_accuracy(Duration estimated, Duration actual);

// Selects the problem nodes a fix addresses.
using FixScope = std::function<bool(const Node&)>;

// One Table 1 row: the estimate for the problems `in_scope` selects in
// `before`, evaluated with one subset pass (the way the paper scopes
// Table 1's "Diogenes Estimated Benefit" to the issues actually
// corrected), against the execution time `after` actually saves (both
// variants run uninstrumented).
struct ScopedFixOutcome {
  Duration native{0};  // `before`, uninstrumented
  Duration estimated{0};
  Duration actual{0};  // native minus `after`, uninstrumented
  double estimated_fraction = 0;  // of the analyzed run's execution time
  [[nodiscard]] double accuracy() const {
    return estimate_accuracy(estimated, actual);
  }
};
ScopedFixOutcome evaluate_scoped_fix(const Workload& before,
                                     const Workload& after,
                                     const FixScope& in_scope);

}  // namespace diog::ffm
