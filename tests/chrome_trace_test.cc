#include <gtest/gtest.h>

#include <filesystem>

#include "core/chrome_trace.h"
#include "core/run_convert.h"
#include "core/stage1_baseline.h"
#include "core/stage2_tracing.h"
#include "core/stage3_memhash.h"
#include "eventstore/cursor.h"
#include "eventstore/run_io.h"
#include "gpusim/api.h"
#include "gpusim/host_buffer.h"
#include "trace/callstack.h"

namespace diog::ffm {
namespace {

using gpusim::KernelDesc;
using hooks::MemcpyKind;

// Collect stages 1-3 of a small workload into one run, the way
// Diogenes::analyze does, plus a runtime with a populated GPU timeline.
struct Dataset {
  evstore::TraceRun run;
  std::unique_ptr<gpusim::Runtime> rt;
};

Dataset make_dataset() {
  auto out = std::make_shared<gpusim::HostBuffer<float>>(1024);
  Workload w;
  w.name = "tracee";
  w.device = gpusim::DeviceConfig{};
  w.body = [out] {
    DIOG_APP_FRAME("trace_main", "tracee.cu", 7);
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, out->size_bytes());
    KernelDesc k;
    k.name = "trace_kernel";
    k.duration = ms(3);
    (void)gpusim::cudaLaunchKernel(k);
    (void)gpusim::cudaMemcpy(out->data(), dev, out->size_bytes(),
                             MemcpyKind::kDeviceToHost);
    volatile float v = (*out)[0];
    (void)v;
    (void)gpusim::cudaFree(dev);
  };

  Dataset d;
  d.run.meta.workload = w.name;
  const ToolConfig cfg;
  const Stage1Result s1 = run_stage1(w, cfg);
  append_stage1(d.run, s1);
  collect_stage2(w, cfg, s1, d.run);
  collect_stage3(w, cfg, d.run);

  // A separate plain run provides the GPU ground-truth timeline.
  d.rt = std::make_unique<gpusim::Runtime>(w.device);
  {
    gpusim::RuntimeScope scope(*d.rt);
    w.body();
  }
  return d;
}

const json::Array& events_of(const json::Value& v) {
  return v.at("traceEvents").as_array();
}

TEST(ChromeTrace, EmitsCpuAndGpuTracks) {
  const Dataset d = make_dataset();
  const json::Value v = chrome_trace(d.run, d.rt.get());

  bool cpu_meta = false, gpu_meta = false, kernel_event = false,
       memcpy_event = false;
  for (const json::Value& e : events_of(v)) {
    if (e.at("ph").as_string() == "M") {
      const std::string label = e.at("args").at("name").as_string();
      if (label == "CPU driver calls") cpu_meta = true;
      if (label.find("GPU stream") != std::string::npos) gpu_meta = true;
    } else {
      const std::string name = e.at("name").as_string();
      if (name == "trace_kernel") kernel_event = true;
      if (name == "cudaMemcpy") memcpy_event = true;
    }
  }
  EXPECT_TRUE(cpu_meta);
  EXPECT_TRUE(gpu_meta);
  EXPECT_TRUE(kernel_event);
  EXPECT_TRUE(memcpy_event);
}

TEST(ChromeTrace, EventsCarryTimesAndDurations) {
  const Dataset d = make_dataset();
  const json::Value v = chrome_trace(d.run, d.rt.get());
  for (const json::Value& e : events_of(v)) {
    if (e.at("ph").as_string() != "X") continue;
    EXPECT_GE(e.at("ts").as_double(), 0.0);
    EXPECT_GE(e.at("dur").as_double(), 0.0);
    EXPECT_EQ(e.at("pid").as_int(), 1);
  }
}

TEST(ChromeTrace, ProblemAnnotationsAttached) {
  const Dataset d = make_dataset();
  const json::Value v = chrome_trace(d.run, d.rt.get());
  bool required_seen = false, unnecessary_seen = false;
  for (const json::Value& e : events_of(v)) {
    if (e.at("ph").as_string() != "X" || !e.contains("args")) continue;
    const json::Value& args = e.at("args");
    if (!args.contains("sync")) continue;
    if (args.at("sync").as_string() == "required") required_seen = true;
    if (args.at("sync").as_string() == "unnecessary") {
      unnecessary_seen = true;
    }
  }
  EXPECT_TRUE(required_seen);    // the readback memcpy's sync
  EXPECT_TRUE(unnecessary_seen); // the free's hidden sync
}

TEST(ChromeTrace, SourceAttributionIncluded) {
  const Dataset d = make_dataset();
  const json::Value v = chrome_trace(d.run, d.rt.get());
  bool any_source = false;
  for (const json::Value& e : events_of(v)) {
    if (e.at("ph").as_string() == "X" && e.contains("args") &&
        e.at("args").contains("source")) {
      any_source = true;
    }
  }
  EXPECT_TRUE(any_source);
}

TEST(ChromeTrace, OptionsDisableTracks) {
  const Dataset d = make_dataset();
  ChromeTraceOptions no_gpu;
  no_gpu.include_gpu_timeline = false;
  no_gpu.include_internal_track = false;
  const json::Value v = chrome_trace(d.run, d.rt.get(), no_gpu);
  for (const json::Value& e : events_of(v)) {
    if (e.at("ph").as_string() == "X") {
      EXPECT_EQ(e.at("tid").as_int(), 1);  // only the CPU track
    }
  }

  ChromeTraceOptions no_cpu;
  no_cpu.include_cpu_ops = false;
  no_cpu.include_internal_track = false;
  const json::Value v2 = chrome_trace(d.run, d.rt.get(), no_cpu);
  for (const json::Value& e : events_of(v2)) {
    if (e.at("ph").as_string() == "X") {
      EXPECT_GE(e.at("tid").as_int(), 100);  // only GPU tracks
    }
  }
}

TEST(ChromeTrace, InternalTrackEmitsNamedNestedSpans) {
  const Dataset d = make_dataset();
  obs::SpanCollector spans;
  const std::int64_t outer = spans.open("stage2.run");
  const std::int64_t inner = spans.open("stage2.trace_sync");
  spans.close(inner);
  spans.close(outer);

  ChromeTraceOptions opts;
  opts.internal_spans = &spans;
  const json::Value v = chrome_trace(d.run, d.rt.get(), opts);

  bool internal_meta = false;
  const json::Value* outer_ev = nullptr;
  const json::Value* inner_ev = nullptr;
  for (const json::Value& e : events_of(v)) {
    if (e.at("ph").as_string() == "M" &&
        e.at("args").at("name").as_string() == "diogenes-internal") {
      internal_meta = true;
      EXPECT_EQ(e.at("tid").as_int(), 50);
    }
    if (e.at("ph").as_string() != "X" || e.at("tid").as_int() != 50) continue;
    if (e.at("name").as_string() == "stage2.run") outer_ev = &e;
    if (e.at("name").as_string() == "stage2.trace_sync") inner_ev = &e;
  }
  EXPECT_TRUE(internal_meta);
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);

  // Nesting is visible both structurally (depth/parent args) and
  // temporally (the child is contained in the parent's interval).
  EXPECT_EQ(outer_ev->at("args").at("depth").as_int(), 0);
  EXPECT_FALSE(outer_ev->at("args").contains("parent"));
  EXPECT_EQ(inner_ev->at("args").at("depth").as_int(), 1);
  EXPECT_EQ(inner_ev->at("args").at("parent").as_int(), outer);
  const double o_ts = outer_ev->at("ts").as_double();
  const double o_end = o_ts + outer_ev->at("dur").as_double();
  const double i_ts = inner_ev->at("ts").as_double();
  const double i_end = i_ts + inner_ev->at("dur").as_double();
  EXPECT_GE(i_ts, o_ts);
  EXPECT_LE(i_end, o_end);
}

TEST(ChromeTrace, InternalTrackOpenSpansRenderZeroDuration) {
  const Dataset d = make_dataset();
  obs::SpanCollector spans;
  (void)spans.open("ffm.analyze");  // never closed

  ChromeTraceOptions opts;
  opts.internal_spans = &spans;
  const json::Value v = chrome_trace(d.run, d.rt.get(), opts);
  bool seen = false;
  for (const json::Value& e : events_of(v)) {
    if (e.at("ph").as_string() == "X" && e.at("tid").as_int() == 50 &&
        e.at("name").as_string() == "ffm.analyze") {
      seen = true;
      EXPECT_EQ(e.at("dur").as_double(), 0.0);
    }
  }
  EXPECT_TRUE(seen);
}

TEST(ChromeTrace, InternalTrackAbsentWhenDisabledOrEmpty) {
  const Dataset d = make_dataset();
  obs::SpanCollector spans;
  spans.close(spans.open("stage1.run"));

  ChromeTraceOptions off;
  off.include_internal_track = false;
  off.internal_spans = &spans;
  const json::Value disabled = chrome_trace(d.run, d.rt.get(), off);
  for (const json::Value& e : events_of(disabled)) {
    EXPECT_NE(e.at("tid").as_int(), 50);
  }

  // An empty collector contributes nothing — not even the meta event.
  obs::SpanCollector empty;
  ChromeTraceOptions on;
  on.internal_spans = &empty;
  const json::Value no_spans = chrome_trace(d.run, d.rt.get(), on);
  for (const json::Value& e : events_of(no_spans)) {
    EXPECT_NE(e.at("tid").as_int(), 50);
  }
}

TEST(ChromeTrace, ProblemAnnotationsSurviveAlongsideInternalSpans) {
  const Dataset d = make_dataset();
  obs::SpanCollector spans;
  spans.close(spans.open("stage3.run"));

  ChromeTraceOptions opts;
  opts.internal_spans = &spans;
  const json::Value v = chrome_trace(d.run, d.rt.get(), opts);
  bool sync_annotation = false, internal_span = false;
  for (const json::Value& e : events_of(v)) {
    if (e.at("ph").as_string() != "X") continue;
    if (e.contains("args") && e.at("args").contains("sync")) {
      sync_annotation = true;
    }
    if (e.at("tid").as_int() == 50) internal_span = true;
  }
  EXPECT_TRUE(sync_annotation);
  EXPECT_TRUE(internal_span);
}

TEST(ChromeTrace, NullRuntimeAndProblemsTolerated) {
  const Dataset d = make_dataset();
  // The same ops with no stage-3 classification events.
  evstore::TraceRun ops_only;
  ops_only.meta.s2_exec = d.run.meta.s2_exec;
  evstore::ops(*d.run.store).for_each([&](const evstore::Event& e) {
    evstore::Event op = e;
    op.stack = ops_only.store->intern_stack(d.run.store->stack_trace(e.stack));
    ops_only.store->append(op);
  });
  const json::Value v = chrome_trace(ops_only, nullptr);
  EXPECT_GT(events_of(v).size(), 0u);
}

TEST(ChromeTrace, ReopenedRunRendersIdentically) {
  const Dataset d = make_dataset();
  const auto path = std::filesystem::temp_directory_path() /
                    "diog_chrome_trace_reopen.dgtrace";
  evstore::save_run(path.string(), d.run);
  const evstore::TraceRun reopened = evstore::open_run(path.string());
  std::filesystem::remove(path);

  // Without the in-process sources (GPU timeline, live span collector)
  // a reopened run renders exactly like the one that was saved.
  ChromeTraceOptions opts;
  opts.include_internal_track = false;
  const json::Value live = chrome_trace(d.run, nullptr, opts);
  const json::Value disk = chrome_trace(reopened, nullptr, opts);
  ASSERT_GT(events_of(live).size(), 2u);  // more than the two meta events
  EXPECT_EQ(disk.dump(), live.dump());
}

TEST(ChromeTrace, SavesParseableFile) {
  const Dataset d = make_dataset();
  const auto path =
      std::filesystem::temp_directory_path() / "diog_chrome_trace.json";
  save_chrome_trace(path.string(), d.run, d.rt.get());
  const json::Value loaded = json::load_file(path.string());
  EXPECT_EQ(loaded.at("displayTimeUnit").as_string(), "ms");
  EXPECT_GT(loaded.at("traceEvents").size(), 0u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace diog::ffm
