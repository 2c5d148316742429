#include "core/flight_recorder.h"

#include "eventstore/live_writer.h"
#include "eventstore/run_io.h"
#include "obs/telemetry.h"

namespace diog::ffm {

FlightRecorder::FlightRecorder(evstore::TraceRun& run, const ToolConfig& cfg,
                               const std::string& workload)
    : run_(run),
      ckpt_interval_(cfg.checkpoint_interval_ms),
      last_ckpt_(std::chrono::steady_clock::now()),
      hb_last_(std::chrono::steady_clock::now()) {
  seen_request_seq_ = obs::checkpoint_request_seq();
  // First checkpoint immediately: followers get a valid (if empty)
  // file before the first segment seals, and the streamed chunk layout
  // tracks the live file's chunk for chunk.
  if (!cfg.trace_dir.empty()) {
    sinks_.push_back(std::make_unique<evstore::LiveRunWriter>(
        evstore::run_file_path(cfg.trace_dir, workload)));
    sinks_.back()->checkpoint(run_, /*force=*/true);
  }
  if (!cfg.sink.empty()) {
    // A bad URL or an unreachable hub throws here, before any events
    // are collected — failing to stream is an error, not a silent drop.
    sinks_.push_back(evstore::make_sink(cfg.sink, workload));
    sinks_.back()->checkpoint(run_, /*force=*/true);
  }
  const std::string hb_dir =
      cfg.trace_dir.empty() ? std::string(".") : cfg.trace_dir;
  obs::HeartbeatReporter::Options hopts;
  hopts.path = evstore::heartbeat_file_path(hb_dir, workload);
  hopts.interval = std::chrono::milliseconds(cfg.heartbeat_interval_ms);
  heartbeat_ = std::make_unique<obs::HeartbeatReporter>(
      std::move(hopts), [this] { return heartbeat_body(); });
  run_.store->set_segment_seal_callback([this] { tick(); });
}

FlightRecorder::~FlightRecorder() {
  run_.store->set_segment_seal_callback(nullptr);
  if (heartbeat_) heartbeat_->stop();
  // The sinks close without finalizing: an error-path exit leaves the
  // same readable prefix a crash would.
}

void FlightRecorder::tick() {
  if (finished_) return;
  const std::uint64_t seq = obs::checkpoint_request_seq();
  const bool forced = seq != seen_request_seq_;
  const auto now = std::chrono::steady_clock::now();
  if (!forced && now - last_ckpt_ < ckpt_interval_) return;
  seen_request_seq_ = seq;
  last_ckpt_ = now;
  checkpoint(forced);
}

void FlightRecorder::checkpoint(bool forced) {
  for (const auto& sink : sinks_) sink->checkpoint(run_, forced);
  // A SIGUSR1-forced checkpoint also wants an immediate heartbeat, so
  // "signal, then read the last line" is a complete snapshot recipe.
  if (forced && heartbeat_) heartbeat_->emit_now();
}

void FlightRecorder::on_stage_begin(const char* stage) {
  obs::set_current_stage(stage);
  tick();
}

void FlightRecorder::on_stage_end() {
  // Stage boundaries are natural checkpoint opportunities for stages
  // that append less than a segment's worth of events.
  tick();
  obs::set_current_stage("");
}

void FlightRecorder::finish() {
  if (finished_) return;
  finished_ = true;
  run_.store->set_segment_seal_callback(nullptr);
  for (const auto& sink : sinks_) sink->finish(run_);
  if (heartbeat_) heartbeat_->stop();
}

json::Object FlightRecorder::heartbeat_body() {
  const evstore::EventStore& store = *run_.store;
  const auto now = std::chrono::steady_clock::now();
  const double dt = std::chrono::duration<double>(now - hb_last_).count();
  const std::uint64_t total = store.total_appended();

  json::Object o;
  o["events"] = store.size();
  o["events_total"] = total;
  o["dropped_events"] = store.dropped_events();
  if (dt > 0) {
    o["events_per_s"] =
        static_cast<double>(total - hb_last_total_) / dt;
  }
  json::Object by_kind;
  json::Object by_kind_per_s;
  for (std::size_t i = 0; i < evstore::kEventKindCount; ++i) {
    const auto k = static_cast<evstore::EventKind>(i);
    // count_of() counts appends (eviction does not decrement), which is
    // exactly the monotonic series a rate needs.
    const std::uint64_t c = store.count_of(k);
    if (c != 0) {
      by_kind[std::string(evstore::to_string(k))] = c;
      if (dt > 0 && c > hb_last_by_kind_[i]) {
        by_kind_per_s[std::string(evstore::to_string(k))] =
            static_cast<double>(c - hb_last_by_kind_[i]) / dt;
      }
    }
    hb_last_by_kind_[i] = c;
  }
  o["by_kind"] = std::move(by_kind);
  o["by_kind_per_s"] = std::move(by_kind_per_s);
  json::Object dropped;
  for (std::size_t i = 0; i < evstore::kEventKindCount; ++i) {
    const auto k = static_cast<evstore::EventKind>(i);
    if (store.dropped_of(k) != 0) {
      dropped[std::string(evstore::to_string(k))] = store.dropped_of(k);
    }
  }
  o["dropped_by_kind"] = std::move(dropped);

  auto& tel = obs::Telemetry::global();
  // Pool utilization rides along in the same fixed shape the metrics
  // document uses, so a fleet consumer reads one schema for both.
  o["parallel"] = obs::parallel_pool_summary(tel.metrics());
  o["syncs"] = tel.metrics().counter("stage2.syncs").value();
  o["transfer_bytes"] =
      tel.metrics().counter("stage2.transfer_bytes").value();
  o["checkpoints"] =
      tel.metrics().counter("evstore.live.checkpoints").value();
  o["overhead_factor"] = tel.accountant().total_collection_factor();

  hb_last_ = now;
  hb_last_total_ = total;
  return o;
}

}  // namespace diog::ffm
