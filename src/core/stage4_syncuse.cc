#include "core/stage4_syncuse.h"

#include "core/memsync_engine.h"
#include "core/run_convert.h"
#include "core/stage_obs.h"
#include "obs/span.h"

namespace diog::ffm {

namespace ev = evstore;

void collect_stage4(const Workload& w, const ToolConfig& cfg,
                    ev::TraceRun& run) {
  const Stage1Result s1 = stage1_view(run);
  DIOG_SPAN("stage4.run");
  const StageObs stage_obs("stage4");
  gpusim::Runtime rt(w.device);
  rt.set_cpu_dilation(cfg.stage4_cpu_dilation);
  MemSyncEngine engine(rt, cfg, s1, /*hash_transfers=*/false);
  {
    DIOG_SPAN("stage4.app_run");
    gpusim::RuntimeScope scope(rt);
    w.body();
    engine.finish();
    run.meta.s4_exec = rt.clock().now();
  }

  ev::EventStore& store = *run.store;
  std::size_t uses = 0;
  for (const MemSyncEngine::SyncObservation& obs : engine.syncs()) {
    if (!obs.required) continue;
    ev::Event e;
    e.kind = ev::EventKind::kSyncUse;
    e.op_index = obs.op_index;
    e.aux_time = obs.first_use_time.count();
    store.append(e);
    ++uses;
  }

  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("stage4.runs").inc();
    m.counter("stage4.sync_uses").inc(uses);
    const memtrace::TracerStats& tracer = engine.tracer_stats();
    m.counter("stage4.protect_calls").inc(tracer.protect_calls);
    m.counter("stage4.driver_lifts").inc(tracer.driver_lifts);
    m.counter("memtrace.ranges_unmapped").inc(tracer.ranges_unmapped);
    auto& gap = m.histogram("stage4.first_use_gap");
    for (const MemSyncEngine::SyncObservation& obs : engine.syncs()) {
      if (obs.required) gap.record(obs.first_use_time);
    }
    stage_obs.finish(rt, run.meta.s4_exec, s1.exec_time);
  }
}

}  // namespace diog::ffm
