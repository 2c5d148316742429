#include "core/stage3_memhash.h"

#include "core/memsync_engine.h"
#include "core/run_convert.h"
#include "core/stage_obs.h"
#include "obs/span.h"

namespace diog::ffm {

namespace ev = evstore;

void collect_stage3(const Workload& w, const ToolConfig& cfg,
                    ev::TraceRun& run) {
  const Stage1Result s1 = stage1_view(run);
  DIOG_SPAN("stage3.run");
  const StageObs stage_obs("stage3");
  gpusim::Runtime rt(w.device);
  rt.set_cpu_dilation(cfg.stage3_cpu_dilation);
  MemSyncEngine engine(rt, cfg, s1, /*hash_transfers=*/true);
  {
    DIOG_SPAN("stage3.app_run");
    gpusim::RuntimeScope scope(rt);
    w.body();
    engine.finish();
    run.meta.s3_exec = rt.clock().now();
  }
  run.meta.transfers_hashed = engine.transfers_hashed();
  run.meta.bytes_hashed = engine.bytes_hashed();

  ev::EventStore& store = *run.store;
  std::size_t required = 0;
  for (const MemSyncEngine::SyncObservation& obs : engine.syncs()) {
    ev::Event e;
    e.kind = ev::EventKind::kSyncClassification;
    e.op_index = obs.op_index;
    e.set(ev::flag::kSyncRequired, obs.required);
    e.aux_stack = store.intern_stack(obs.access_stack);
    e.value = obs.access_ip;
    store.append(e);
    if (obs.required) ++required;
  }
  for (const DuplicateTransfer& dt : engine.duplicates()) {
    ev::Event e;
    e.kind = ev::EventKind::kDuplicateTransfer;
    e.op_index = dt.op_index;
    e.link = dt.first_op_index;
    e.value = dt.digest;
    e.bytes = dt.bytes;
    store.append(e);
  }

  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("stage3.runs").inc();
    m.counter("stage3.transfers_hashed").inc(run.meta.transfers_hashed);
    m.counter("stage3.bytes_hashed").inc(run.meta.bytes_hashed);
    const memtrace::TracerStats& tracer = engine.tracer_stats();
    m.counter("stage3.protect_calls").inc(tracer.protect_calls);
    m.counter("stage3.driver_lifts").inc(tracer.driver_lifts);
    m.counter("memtrace.ranges_unmapped").inc(tracer.ranges_unmapped);
    m.counter("stage3.duplicate_transfers").inc(engine.duplicates().size());
    m.counter("stage3.syncs_required").inc(required);
    m.counter("stage3.syncs_unnecessary")
        .inc(engine.syncs().size() - required);
    stage_obs.finish(rt, run.meta.s3_exec, s1.exec_time);
  }
}

}  // namespace diog::ffm
