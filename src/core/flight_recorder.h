// The flight recorder: live persistence + heartbeats for one run.
//
// Ties the three live-monitoring pieces to the pipeline: (1) the event
// store's ring retention (configured by the driver, observed here only
// through drop counters), (2) checkpoint sinks — a LiveRunWriter that
// checkpoints the in-progress run file so a crash or SIGKILL leaves a
// readable prefix, and/or a --sink stream — and (3) a HeartbeatReporter
// streaming one JSON line per interval with event rates, drop counts,
// the current stage, and the overhead summary.
//
// Threading contract: tick(), on_stage_*, and finish() run on the
// appending (pipeline) thread — checkpoints read column data, which is
// single-writer. The heartbeat thread never touches the store's columns;
// its provider reads only the store's atomic accounting and the
// thread-safe telemetry registries. SIGUSR1 lands as an atomic sequence
// bump (obs/heartbeat.h); tick() notices it and forces a checkpoint at
// the next cold-path opportunity, the reporter notices it and emits.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tool_config.h"
#include "eventstore/run.h"
#include "eventstore/sink.h"
#include "json/json.h"
#include "obs/heartbeat.h"

namespace diog::ffm {

class FlightRecorder {
 public:
  // Starts the heartbeat stream and, when cfg.trace_dir is set, the
  // live run file; when cfg.sink is set, a streaming checkpoint sink
  // (eventstore/sink.h — resolved through the registered factory, e.g.
  // the hub's tcp://). Installs itself as the store's segment-seal
  // callback.
  FlightRecorder(evstore::TraceRun& run, const ToolConfig& cfg,
                 const std::string& workload);
  // Stops the heartbeat and detaches from the store WITHOUT finalizing
  // the run file — an error-path exit must look like a crash (readable
  // prefix), not like a clean end.
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Cold-path hook (segment seal, stage boundaries): checkpoints when
  // the configured interval elapsed or a SIGUSR1 request is pending.
  void tick();

  void on_stage_begin(const char* stage);
  void on_stage_end();

  // Final checkpoint, finalized footer, and a last heartbeat.
  void finish();

 private:
  json::Object heartbeat_body();
  void checkpoint(bool forced);

  evstore::TraceRun& run_;
  // The live run file (a LiveRunWriter) and/or the --sink stream.
  std::vector<std::unique_ptr<evstore::CheckpointSink>> sinks_;
  std::unique_ptr<obs::HeartbeatReporter> heartbeat_;
  std::chrono::milliseconds ckpt_interval_;
  std::chrono::steady_clock::time_point last_ckpt_;
  std::uint64_t seen_request_seq_ = 0;
  bool finished_ = false;

  // Heartbeat rate state. Touched only under the reporter's lock (the
  // provider is serialized by HeartbeatReporter).
  std::chrono::steady_clock::time_point hb_last_;
  std::uint64_t hb_last_total_ = 0;
  std::uint64_t hb_last_by_kind_[evstore::kEventKindCount] = {};
};

}  // namespace diog::ffm
