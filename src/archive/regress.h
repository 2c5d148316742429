// Cross-run regression sentinel: did this workload drift?
//
// The archive's digests make the question cheap: compare the newest
// digest of a workload against a baseline summarized from the last N
// prior digests of the same workload. The baseline for each metric is
// the lower median (the element at (n-1)/2 after sorting), which a
// single outlier run cannot move — the usual reason fleet alerting on
// means pages people at 3am.
//
// Findings come out in the diagnosis's narrative shape (pattern id,
// one-line headline, a short "why" narrative, and the numbers as
// machine-readable evidence) so CLI and API consumers read one style
// for both within-run diagnoses and cross-run drift. Only the shape is
// shared: drift is classified from index digests, which hold no
// stage-5 groups for core/diagnosis to read.
//
// Determinism: a report is a pure function of the index contents and
// the options — byte-identical JSON and text at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "archive/digest.h"
#include "json/json.h"

namespace diog::archive {

struct RegressOptions {
  // Prior same-workload digests summarized into the baseline.
  std::size_t baseline_window = 5;
  // Relative drift thresholds (percent of the baseline value).
  double benefit_drift_pct = 10.0;
  double sync_drift_pct = 10.0;
  double overhead_drift_pct = 25.0;
  // Drop-rate drift threshold, in percentage points (absolute).
  double drop_rate_pct_pts = 1.0;
  // Benefit drift below this absolute floor is noise even when the
  // relative threshold trips (a 2x jump of 10us is not a regression).
  std::int64_t min_benefit_drift_ns = 1'000'000;
};

struct DriftFinding {
  // Taxonomy id: "benefit-drift", "finding-appeared",
  // "finding-disappeared", "sync-drift", "drop-rate", "overhead-drift".
  std::string kind;
  std::string headline;   // one-line summary for listings
  std::string narrative;  // the why, 1-3 sentences
  json::Object evidence;  // the numbers the narrative was built from
  // Relative magnitude of the drift, for ordering (larger = worse).
  double severity = 0.0;

  [[nodiscard]] json::Value to_json() const;
};

struct RegressReport {
  std::string workload;
  std::string newest_run_id;
  std::int64_t newest_ingest_wall_ms = 0;
  std::vector<std::string> baseline_run_ids;  // ingest order
  std::vector<DriftFinding> findings;         // severity desc

  [[nodiscard]] bool drifted() const { return !findings.empty(); }
  // Schema: "diogenes.regress.v1".
  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] std::string render() const;
};

// Compares the newest digest of `workload` against the lower-median
// baseline of up to `opts.baseline_window` prior digests. With fewer
// than two digests there is nothing to compare: the report comes back
// with no findings (and no baseline ids).
RegressReport check_workload(const std::vector<RunDigest>& index,
                             const std::string& workload,
                             const RegressOptions& opts = {});

// One report per workload with at least two digests, workloads in
// lexicographic order.
std::vector<RegressReport> check_all(const std::vector<RunDigest>& index,
                                     const RegressOptions& opts = {});

}  // namespace diog::archive
