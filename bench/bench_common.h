// Shared helpers for the experiment-reproduction benches.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation (SC'19, §5). Absolute times differ from the paper — the
// substrate is a virtual-clock simulator, not LLNL's Ray cluster and the
// workloads are scaled — but the rows/series have the same shape:
// who is flagged, in what order, and at roughly what fraction of
// execution time.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/compare.h"
#include "core/diogenes.h"
#include "core/report.h"
#include "support/strings.h"

namespace diog::bench {

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

// "0.343s (6.87%)" in a fixed-width cell.
inline std::string cell(const ffm::AnalysisResult& r, Duration d) {
  return format_seconds(d) + " (" + format_percent(r.fraction_of_exec(d)) +
         ")";
}

}  // namespace diog::bench
