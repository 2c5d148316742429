#include "core/run_convert.h"

#include "obs/telemetry.h"

namespace diog::ffm {

namespace ev = evstore;

// --- Record -> event ---------------------------------------------------------

void append_stage1(ev::TraceRun& run, const Stage1Result& s1) {
  run.meta.wait_fn = s1.wait_fn;
  run.meta.s1_exec = s1.exec_time;
  for (const SyncSite& site : s1.sync_sites) {
    ev::Event e;
    e.kind = ev::EventKind::kSyncSite;
    e.set_fn(site.api);
    e.stack = run.store->intern_stack(site.stack);
    e.value = site.hits;
    run.store->append(e);
  }
}

void append_internal_spans(ev::TraceRun& run) {
  if (!obs::Telemetry::enabled()) return;
  for (const obs::SpanRecord& sp :
       obs::Telemetry::global().spans().snapshot()) {
    ev::Event e;
    e.kind = ev::EventKind::kInternalSpan;
    e.name = run.store->intern_name(sp.name);
    e.t_start = sp.start_ns;
    e.t_end = sp.end_ns;
    e.value = static_cast<std::uint64_t>(sp.depth);
    // parent is -1 for roots; stored shifted so 0 stays "no link".
    e.link = static_cast<std::uint64_t>(sp.parent + 1);
    run.store->append(e);
  }
}

// --- Event -> record ---------------------------------------------------------

Stage1Result stage1_view(const ev::TraceRun& run) {
  Stage1Result s1;
  s1.wait_fn = run.meta.wait_fn;
  s1.exec_time = run.meta.s1_exec;
  ev::sync_sites(*run.store).for_each([&](const ev::Event& e) {
    SyncSite site;
    site.api = e.fn();
    site.stack = run.store->stack_trace(e.stack);
    site.hits = e.value;
    s1.sync_sites.push_back(std::move(site));
  });
  return s1;
}

Stage2Result stage2_view(const ev::TraceRun& run) {
  Stage2Result s2;
  s2.exec_time = run.meta.s2_exec;
  ev::ops(*run.store).for_each([&](const ev::Event& e) {
    OpRecord op;
    op.index = e.op_index;
    op.api = e.fn();
    op.stack = run.store->stack_trace(e.stack);
    op.t_enter = TimePoint{e.t_start};
    op.t_exit = TimePoint{e.t_end};
    op.sync_wait = Duration{e.aux_time};
    op.performed_sync = e.has(ev::flag::kPerformedSync);
    op.performed_transfer = e.has(ev::flag::kPerformedTransfer);
    op.bytes = e.bytes;
    op.direction = e.direction();
    op.async_requested = e.has(ev::flag::kAsyncRequested);
    op.dst_mem = e.dst_mem();
    op.src_mem = e.src_mem();
    op.stream = e.stream;
    op.gpu_op_duration = Duration{e.gpu_time};
    s2.ops.push_back(std::move(op));
  });
  return s2;
}

Stage3Result stage3_view(const ev::TraceRun& run) {
  Stage3Result s3;
  s3.exec_time = run.meta.s3_exec;
  s3.transfers_hashed = run.meta.transfers_hashed;
  s3.bytes_hashed = run.meta.bytes_hashed;
  ev::sync_classifications(*run.store).for_each([&](const ev::Event& e) {
    SyncClassification sc;
    sc.op_index = e.op_index;
    sc.required = e.has(ev::flag::kSyncRequired);
    sc.access_stack = run.store->stack_trace(e.aux_stack);
    sc.access_ip = e.value;
    s3.syncs.push_back(std::move(sc));
  });
  ev::duplicate_transfers(*run.store).for_each([&](const ev::Event& e) {
    DuplicateTransfer dt;
    dt.op_index = e.op_index;
    dt.first_op_index = e.link;
    dt.digest = e.value;
    dt.bytes = e.bytes;
    s3.duplicate_transfers.push_back(dt);
  });
  return s3;
}

Stage4Result stage4_view(const ev::TraceRun& run) {
  Stage4Result s4;
  s4.exec_time = run.meta.s4_exec;
  ev::sync_uses(*run.store).for_each([&](const ev::Event& e) {
    SyncUse u;
    u.op_index = e.op_index;
    u.first_use_time = Duration{e.aux_time};
    s4.uses.push_back(u);
  });
  return s4;
}

}  // namespace diog::ffm
