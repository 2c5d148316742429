// Stage 2 — Detailed Tracing (paper §3.2).
//
// Re-runs the workload with entry/exit tracing on three classes of
// functions: the synchronizing functions stage 1 discovered, the
// documented transfer functions, and the internal wait function. Every
// top-level traced call produces a kOp event with its stack trace, call
// interval, and — via the nested wait-funnel probe — the portion of the
// call spent blocked on the GPU.
//
// Op indices are the join key of the whole pipeline: because the
// workload is deterministic and stages 2-4 trace the same function set,
// "the k-th traced call" denotes the same application operation in every
// run.
#pragma once

#include "core/model.h"
#include "core/tool_config.h"
#include "core/workload.h"
#include "eventstore/run.h"

namespace diog::ffm {

// Appends one kOp event per traced top-level
// call directly into run.store from the exit hook — an allocation-free
// append (stack capture into a fixed buffer, dictionary probe,
// fixed-width column writes) — and records exec time into
// run.meta.s2_exec. The run must not already contain kOp events.
void collect_stage2(const Workload& w, const ToolConfig& cfg,
                    const Stage1Result& s1, evstore::TraceRun& run);

}  // namespace diog::ffm
