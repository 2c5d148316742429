// Bridges between the unified event store (eventstore/) and the
// per-stage value types (model.h).
//
// The pipeline's only carrier is evstore::TraceRun. append_stage1
// records stage 1's product; stages 2-4 append their own events as they
// collect (collect_stageN). The stageN_view functions materialize the
// stage structs from the run's cursors in append order. Stage 3 and 4
// read stage 1 back with stage1_view; nothing in the pipeline calls
// stage2/3/4_view, which stay as read-only views for tests and
// perfbench. perfbench calls append_stage1 and all four stageN_view
// (its stage5.views probe), so their signatures are fixed.
#pragma once

#include "core/model.h"
#include "eventstore/cursor.h"
#include "eventstore/run.h"

namespace diog::ffm {

// Records stage 1's product: the wait function and exec time in the
// meta, one kSyncSite event per site.
void append_stage1(evstore::TraceRun& run, const Stage1Result& s1);

// Copies the tool's own spans (obs::SpanCollector snapshot) into the run
// as kInternalSpan events, so saved runs carry the self-telemetry track.
void append_internal_spans(evstore::TraceRun& run);

// --- Event -> record (views) -------------------------------------------------

Stage1Result stage1_view(const evstore::TraceRun& run);
Stage2Result stage2_view(const evstore::TraceRun& run);
Stage3Result stage3_view(const evstore::TraceRun& run);
Stage4Result stage4_view(const evstore::TraceRun& run);

}  // namespace diog::ffm
