#include "core/chrome_trace.h"

#include <unordered_map>

#include "eventstore/cursor.h"
#include "gpusim/runtime.h"
#include "obs/telemetry.h"

namespace diog::ffm {

namespace {

constexpr int kCpuTid = 1;
constexpr int kInternalTid = 50;  // the tool's own spans
constexpr int kGpuTidBase = 100;  // + stream id

// TimePoint and Duration share one representation (ns since run start).
double to_us(Duration d) { return static_cast<double>(d.count()) / 1e3; }

json::Value meta_event(const char* name, int tid, const std::string& label) {
  json::Object e;
  e["ph"] = "M";
  e["pid"] = 1;
  e["tid"] = tid;
  e["name"] = name;
  json::Object args;
  args["name"] = label;
  e["args"] = std::move(args);
  return json::Value(std::move(e));
}

json::Value complete_event(const std::string& name, int tid, TimePoint start,
                           Duration dur, json::Object args) {
  json::Object e;
  e["ph"] = "X";
  e["pid"] = 1;
  e["tid"] = tid;
  e["name"] = name;
  e["ts"] = to_us(start);
  e["dur"] = to_us(dur);
  if (!args.empty()) e["args"] = std::move(args);
  return json::Value(std::move(e));
}

}  // namespace

json::Value chrome_trace(const evstore::TraceRun& run,
                         const gpusim::Runtime* rt,
                         const ChromeTraceOptions& opts) {
  namespace ev = evstore;
  const ev::EventStore& store = *run.store;

  json::Array events;
  events.push_back(meta_event("process_name", kCpuTid, opts.process_name));
  events.push_back(meta_event("thread_name", kCpuTid, "CPU driver calls"));

  // Index stage-3 annotations off the kind-filtered cursors.
  std::unordered_map<std::uint64_t, bool> sync_required;
  std::unordered_map<std::uint64_t, bool> duplicate;
  ev::sync_classifications(store).for_each([&](const ev::Event& e) {
    sync_required[e.op_index] = e.has(ev::flag::kSyncRequired);
  });
  ev::duplicate_transfers(store).for_each(
      [&](const ev::Event& e) { duplicate[e.op_index] = true; });

  if (opts.include_cpu_ops) {
    ev::ops(store).for_each([&](const ev::Event& op) {
      json::Object args;
      args["sync_wait_us"] = to_us(Duration{op.aux_time});
      if (op.has(ev::flag::kPerformedTransfer)) {
        args["bytes"] = op.bytes;
        args["direction"] =
            std::string(hooks::to_string(op.direction()));
      }
      if (const trace::Frame* leaf = store.stacks().leaf(op.stack)) {
        args["source"] = leaf->file + ":" + std::to_string(leaf->line);
      }
      if (const auto it = sync_required.find(op.op_index);
          it != sync_required.end()) {
        args["sync"] = it->second ? "required" : "unnecessary";
      }
      if (duplicate.contains(op.op_index)) args["duplicate_transfer"] = true;
      events.push_back(complete_event(
          std::string(hooks::fn_name(op.fn())), kCpuTid,
          TimePoint{op.t_start}, op.duration(), std::move(args)));
    });
  }

  if (opts.include_gpu_timeline && rt != nullptr) {
    std::unordered_map<gpusim::StreamId, bool> named;
    for (const gpusim::GpuOp& op : rt->device().timeline()) {
      const int tid = kGpuTidBase + static_cast<int>(op.stream);
      if (!named[op.stream]) {
        named[op.stream] = true;
        events.push_back(meta_event(
            "thread_name", tid,
            "GPU stream " + std::to_string(op.stream)));
      }
      json::Object args;
      if (op.bytes > 0) args["bytes"] = op.bytes;
      args["kind"] = op.kind == gpusim::GpuOp::Kind::kKernel ? "kernel"
                     : op.kind == gpusim::GpuOp::Kind::kTransfer
                         ? "transfer"
                         : "memset";
      events.push_back(
          complete_event(op.name, tid, op.start, op.end - op.start,
                         std::move(args)));
    }
  }

  if (opts.include_internal_track) {
    // Prefer spans carried inside the run (a reopened trace has no live
    // collector to consult); fall back to the in-process collector.
    if (store.count_of(ev::EventKind::kInternalSpan) > 0) {
      events.push_back(
          meta_event("thread_name", kInternalTid, "diogenes-internal"));
      ev::internal_spans(store).for_each([&](const ev::Event& e) {
        json::Object args;
        args["depth"] = static_cast<std::int64_t>(e.value);
        if (e.link > 0) {
          args["parent"] = static_cast<std::int64_t>(e.link - 1);
        }
        const std::int64_t dur =
            e.t_end < e.t_start ? 0 : e.t_end - e.t_start;
        events.push_back(complete_event(
            std::string(store.name(e.name)), kInternalTid,
            TimePoint{e.t_start}, Duration{dur}, std::move(args)));
      });
    } else {
      const obs::SpanCollector* spans =
          opts.internal_spans != nullptr ? opts.internal_spans
                                         : &obs::Telemetry::global().spans();
      const std::vector<obs::SpanRecord> records = spans->snapshot();
      if (!records.empty()) {
        events.push_back(
            meta_event("thread_name", kInternalTid, "diogenes-internal"));
        for (const obs::SpanRecord& s : records) {
          json::Object args;
          args["depth"] = s.depth;
          if (s.parent >= 0) args["parent"] = s.parent;
          // Open spans (end_ns < 0) render as zero-duration markers.
          const std::int64_t dur = s.end_ns < 0 ? 0 : s.duration_ns();
          events.push_back(complete_event(s.name, kInternalTid,
                                          TimePoint{s.start_ns},
                                          Duration{dur}, std::move(args)));
        }
      }
    }
  }

  json::Object root;
  root["traceEvents"] = std::move(events);
  root["displayTimeUnit"] = "ms";
  return json::Value(std::move(root));
}

void save_chrome_trace(const std::string& path, const evstore::TraceRun& run,
                       const gpusim::Runtime* rt,
                       const ChromeTraceOptions& opts) {
  json::save_file(path, chrome_trace(run, rt, opts));
}

}  // namespace diog::ffm
