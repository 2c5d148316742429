// Chrome-trace export: visualize a run in chrome://tracing / Perfetto.
//
// The paper stores Diogenes data "in a standard format (JSON) that can
// be read by other tools"; this module takes that one step further and
// emits the de-facto standard trace-viewer format, with one track for
// the CPU-side driver calls (from a stage-2 trace) and one per GPU
// stream (from the simulator's ground-truth timeline). Problematic
// operations carry their classification as event arguments, so the
// viewer shows at a glance where the recoverable time sits.
// The tool's own spans (obs/span.h) are emitted on a dedicated
// "diogenes-internal" track, so a Perfetto view of a run shows the
// application timeline and the tool's internal phases side by side.
// Internal spans are host (steady-clock) time while app events are
// virtual time; they share the x-axis but not a common epoch.
#pragma once

#include <string>

#include "eventstore/run.h"
#include "json/json.h"
#include "obs/span.h"

namespace gpusim {
class Runtime;
}

namespace diog::ffm {

struct ChromeTraceOptions {
  // Track names shown in the viewer.
  std::string process_name = "diogenes";
  bool include_gpu_timeline = true;
  bool include_cpu_ops = true;
  // The tool's own spans as a "diogenes-internal" track.
  bool include_internal_track = true;
  // Span source for the internal track; nullptr means the global
  // telemetry session's collector.
  const obs::SpanCollector* internal_spans = nullptr;
};

// Build the trace document from a run: kOp events become the CPU track
// (annotated from the run's kSyncClassification / kDuplicateTransfer
// events), kInternalSpan events become the internal track when present
// (falling back to the live span collector otherwise), and the runtime
// — when non-null — supplies the GPU timeline. Works identically on a
// live run and one reopened from disk (minus the GPU timeline, which
// only exists in-process).
json::Value chrome_trace(const evstore::TraceRun& run,
                         const gpusim::Runtime* rt,
                         const ChromeTraceOptions& opts = {});

// Convenience: serialize straight to a .json file loadable by
// chrome://tracing or ui.perfetto.dev.
void save_chrome_trace(const std::string& path, const evstore::TraceRun& run,
                       const gpusim::Runtime* rt,
                       const ChromeTraceOptions& opts = {});

}  // namespace diog::ffm
