#include "core/stage4_syncuse.h"

#include "core/memsync_engine.h"
#include "core/run_convert.h"
#include "core/stage_obs.h"
#include "obs/span.h"

namespace diog::ffm {

Stage4Result run_stage4(const Workload& w, const ToolConfig& cfg,
                        const Stage1Result& s1) {
  DIOG_SPAN("stage4.run");
  const StageObs stage_obs("stage4");
  Stage4Result result;
  gpusim::Runtime rt(w.device);
  rt.set_cpu_dilation(cfg.stage4_cpu_dilation);
  MemSyncEngine engine(rt, cfg, s1, /*hash_transfers=*/false);
  {
    DIOG_SPAN("stage4.app_run");
    gpusim::RuntimeScope scope(rt);
    w.body();
    engine.finish();
    result.exec_time = rt.clock().now();
  }

  for (const MemSyncEngine::SyncObservation& obs : engine.syncs()) {
    if (!obs.required) continue;
    SyncUse u;
    u.op_index = obs.op_index;
    u.first_use_time = obs.first_use_time;
    result.uses.push_back(u);
  }

  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("stage4.runs").inc();
    m.counter("stage4.sync_uses").inc(result.uses.size());
    const memtrace::TracerStats& tracer = engine.tracer_stats();
    m.counter("stage4.protect_calls").inc(tracer.protect_calls);
    m.counter("stage4.driver_lifts").inc(tracer.driver_lifts);
    m.counter("memtrace.ranges_unmapped").inc(tracer.ranges_unmapped);
    auto& gap = m.histogram("stage4.first_use_gap");
    for (const SyncUse& u : result.uses) gap.record(u.first_use_time);
    stage_obs.finish(rt, result.exec_time, s1.exec_time);
  }
  return result;
}

void collect_stage4(const Workload& w, const ToolConfig& cfg,
                    evstore::TraceRun& run) {
  append_stage4(run, run_stage4(w, cfg, stage1_view(run)));
}

}  // namespace diog::ffm
