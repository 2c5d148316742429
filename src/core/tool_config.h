// Tool-wide configuration: instrumentation cost model and analysis
// thresholds.
//
// Probe costs are virtual time charged to the application per fired
// probe; they are why the stages exist — heavyweight collection (stage 3
// hashing) perturbs the run so badly that timing-sensitive measurements
// (stage 4's FirstUseTime) must be collected in a separate, lightly
// instrumented run. They also drive the §5.3 overhead reproduction
// (8x-20x total collection cost).
#pragma once

#include <cstdint>
#include <string>

#include "support/clock.h"

namespace diog::ffm {

struct ToolConfig {
  // --- Instrumentation cost model (virtual time per fired probe) ---------
  Duration stage1_probe_cost = us(1);   // lightweight: counters + stack
  Duration stage2_probe_cost = us(3);   // trace record with timestamps
  Duration stage3_probe_cost = us(4);   // record + range bookkeeping
  Duration stage4_probe_cost = us(2);   // timing-only record
  // Cost of one mprotect arm/disarm transition per protected range.
  Duration memprotect_cost = us(2);
  // Stage-3 content hashing throughput (virtual).
  double hash_bandwidth_bytes_per_s = 1.5e9;
  // Application-code dilation per stage: binary instrumentation slows
  // every CPU instruction, not just driver calls. Stage 3's load/store
  // instrumentation is the heavy one — the reason its timings are
  // unusable and stage 4 re-measures under light instrumentation.
  double stage2_cpu_dilation = 1.4;
  double stage3_cpu_dilation = 9.0;
  double stage4_cpu_dilation = 1.3;

  // --- Analysis thresholds ------------------------------------------------
  // A required synchronization whose first-use gap exceeds this is
  // classified misplaced.
  Duration misplaced_threshold = us(50);

  // --- Output -------------------------------------------------------------
  // When non-empty, the complete run (every event the pipeline observed,
  // in the binary format of eventstore/run_io.h) is saved here as
  // <dir>/<workload>.dgtrace after collection finishes.
  std::string trace_dir;

  // --- Flight recorder (live monitoring) ----------------------------------
  // Ring retention bounds on the in-memory event store; 0 = unbounded.
  // When either is set the store evicts whole 64K-row segments FIFO
  // (event_store.h RetentionPolicy).
  std::uint64_t retain_mb = 0;
  std::uint64_t retain_events = 0;
  // Live mode: checkpoint the run file incrementally during collection
  // (readable by `trace tail` / `trace watch` from another process) and
  // stream heartbeats to <trace_dir>/<workload>.heartbeat.jsonl.
  // Requires trace_dir for the run file; heartbeats-only otherwise.
  bool live = false;
  std::uint32_t heartbeat_interval_ms = 1000;
  std::uint32_t checkpoint_interval_ms = 500;
  // Streaming checkpoint target (`--sink tcp://host:port`): every
  // checkpoint also ships to a CheckpointSink resolved through
  // eventstore/sink.h (the trace hub registers the tcp:// factory).
  std::string sink;
};

}  // namespace diog::ffm
