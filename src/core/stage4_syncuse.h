// Stage 4 — Sync-Use Analysis (paper §3.4).
//
// Re-runs the workload with memory tracing only (no hashing): for every
// synchronization stage 3 classified as required, measures the time
// between the synchronization's completion and the first instruction
// accessing the data it protects. Large gaps mean the synchronization is
// misplaced — it could be moved later, recovering CPU/GPU overlap.
#pragma once

#include "core/tool_config.h"
#include "core/workload.h"
#include "eventstore/run.h"

namespace diog::ffm {

// Reads stage 1 back out of the run, collects, and appends one kSyncUse
// event per required sync in the engine's order; the exec time goes
// into run.meta.
void collect_stage4(const Workload& w, const ToolConfig& cfg,
                    evstore::TraceRun& run);

}  // namespace diog::ffm
