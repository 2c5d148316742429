// Bridges between the unified event store (eventstore/) and the legacy
// per-stage value types (model.h).
//
// The pipeline's canonical carrier is evstore::TraceRun; the StageNResult
// structs survive as *views* — materialized from the store's cursors in
// append order — for export_json's stage sections and the consumers
// that want per-stage shapes. append_stageN / stageN_view are inverses:
// a result appended into a run and viewed back compares field-for-field
// equal, which is what makes a run saved to disk and reopened
// indistinguishable from the in-memory pipeline.
#pragma once

#include "core/model.h"
#include "eventstore/cursor.h"
#include "eventstore/run.h"

namespace diog::ffm {

// --- Record -> event (append) ----------------------------------------------

void append_stage1(evstore::TraceRun& run, const Stage1Result& s1);
void append_stage2(evstore::TraceRun& run, const Stage2Result& s2);
void append_stage3(evstore::TraceRun& run, const Stage3Result& s3);
void append_stage4(evstore::TraceRun& run, const Stage4Result& s4);

// Builds a complete run from four stage results (benches and tests use
// this; the live driver appends incrementally).
evstore::TraceRun build_run(const std::string& workload,
                            const Stage1Result& s1, const Stage2Result& s2,
                            const Stage3Result& s3, const Stage4Result& s4);

// Copies the tool's own spans (obs::SpanCollector snapshot) into the run
// as kInternalSpan events, so saved runs carry the self-telemetry track.
void append_internal_spans(evstore::TraceRun& run);

// --- Event -> record (views) -------------------------------------------------

// Materializes one kOp event as an OpRecord (shared by the stage-2 view
// and cursor-driven consumers that need the legacy field names).
OpRecord op_from_event(const evstore::EventStore& store,
                       const evstore::Event& e);

Stage1Result stage1_view(const evstore::TraceRun& run);
Stage2Result stage2_view(const evstore::TraceRun& run);
Stage3Result stage3_view(const evstore::TraceRun& run);
Stage4Result stage4_view(const evstore::TraceRun& run);

}  // namespace diog::ffm
