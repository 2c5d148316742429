#include "core/stage3_memhash.h"

#include "core/memsync_engine.h"
#include "core/run_convert.h"
#include "core/stage_obs.h"
#include "obs/span.h"

namespace diog::ffm {

Stage3Result run_stage3(const Workload& w, const ToolConfig& cfg,
                        const Stage1Result& s1) {
  DIOG_SPAN("stage3.run");
  const StageObs stage_obs("stage3");
  Stage3Result result;
  gpusim::Runtime rt(w.device);
  rt.set_cpu_dilation(cfg.stage3_cpu_dilation);
  MemSyncEngine engine(rt, cfg, s1, /*hash_transfers=*/true);
  {
    DIOG_SPAN("stage3.app_run");
    gpusim::RuntimeScope scope(rt);
    w.body();
    engine.finish();
    result.exec_time = rt.clock().now();
  }

  for (const MemSyncEngine::SyncObservation& obs : engine.syncs()) {
    SyncClassification c;
    c.op_index = obs.op_index;
    c.required = obs.required;
    c.access_stack = obs.access_stack;
    c.access_ip = obs.access_ip;
    result.syncs.push_back(std::move(c));
  }
  result.duplicate_transfers = engine.duplicates();
  result.transfers_hashed = engine.transfers_hashed();
  result.bytes_hashed = engine.bytes_hashed();

  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("stage3.runs").inc();
    m.counter("stage3.transfers_hashed").inc(result.transfers_hashed);
    m.counter("stage3.bytes_hashed").inc(result.bytes_hashed);
    const memtrace::TracerStats& tracer = engine.tracer_stats();
    m.counter("stage3.protect_calls").inc(tracer.protect_calls);
    m.counter("stage3.driver_lifts").inc(tracer.driver_lifts);
    m.counter("memtrace.ranges_unmapped").inc(tracer.ranges_unmapped);
    m.counter("stage3.duplicate_transfers")
        .inc(result.duplicate_transfers.size());
    std::size_t required = 0;
    for (const SyncClassification& c : result.syncs) {
      if (c.required) ++required;
    }
    m.counter("stage3.syncs_required").inc(required);
    m.counter("stage3.syncs_unnecessary").inc(result.syncs.size() - required);
    stage_obs.finish(rt, result.exec_time, s1.exec_time);
  }
  return result;
}

void collect_stage3(const Workload& w, const ToolConfig& cfg,
                    evstore::TraceRun& run) {
  append_stage3(run, run_stage3(w, cfg, stage1_view(run)));
}

}  // namespace diog::ffm
