// Stage 3 — Memory Tracing and Data Hashing (paper §3.3).
//
// Re-runs the workload with the heavy instrumentation: page-protection
// memory tracing of GPU-written host ranges (identifying which
// synchronizations protect data the CPU actually touches, and the
// instruction/stack of the first touch) plus content hashing of every
// transfer for duplicate detection. The hashing cost deliberately
// perturbs timing — which is why FirstUseTime is re-measured in stage 4.
#pragma once

#include "core/tool_config.h"
#include "core/workload.h"
#include "eventstore/run.h"

namespace diog::ffm {

// Reads stage 1 back out of the run (kSyncSite cursor), collects, and
// appends the kSyncClassification events, then the kDuplicateTransfer
// events, in the engine's order; the exec time and hashing totals go
// into run.meta.
void collect_stage3(const Workload& w, const ToolConfig& cfg,
                    evstore::TraceRun& run);

}  // namespace diog::ffm
