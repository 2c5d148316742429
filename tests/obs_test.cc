// Tests for the self-telemetry subsystem (src/obs/): metrics registry,
// span collector, structured logger, overhead accountant, the heartbeat
// reporter, and the Telemetry facade's JSONL export. Every test also has
// defined behavior in a -DDIOG_OBS=OFF build, where recording is
// compiled out — the obs::kCompiledIn branches below assert the no-op
// contract instead.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "core/diogenes.h"
#include "core/report.h"
#include "core/stage1_baseline.h"
#include "core/stage2_tracing.h"
#include "core/stage3_memhash.h"
#include "core/stage4_syncuse.h"
#include "eventstore/run_io.h"
#include "gpusim/api.h"
#include "gpusim/host_buffer.h"
#include "obs/heartbeat.h"
#include "obs/prometheus.h"
#include "obs/telemetry.h"
#include "support/error.h"
#include "testkit/synth_run.h"
#include "trace/callstack.h"

namespace diog::obs {
namespace {

TEST(ObsCounter, IncrementsOrNoOps) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  if (kCompiledIn) {
    EXPECT_EQ(c.value(), 42u);
  } else {
    EXPECT_EQ(c.value(), 0u);
  }
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, SetAndAdd) {
  Gauge g;
  g.set(-7);
  g.add(10);
  if (kCompiledIn) {
    EXPECT_EQ(g.value(), 3);
  } else {
    EXPECT_EQ(g.value(), 0);
  }
}

TEST(ObsRegistry, HandlesAreStableAndNamed) {
  MetricsRegistry reg;
  Counter& a = reg.counter("stage2.ops");
  Counter& a_again = reg.counter("stage2.ops");
  EXPECT_EQ(&a, &a_again);  // resolve once, record many times

  reg.gauge("stage1.sync_sites").set(4);
  reg.histogram("stage2.sync_wait").record_ns(1000);
  if (!kCompiledIn) {
    EXPECT_EQ(reg.size(), 0u);
    return;
  }
  EXPECT_EQ(reg.size(), 3u);

  a.inc(5);
  const auto cs = reg.counters();
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].name, "stage2.ops");
  EXPECT_EQ(cs[0].value, 5u);

  reg.reset();
  EXPECT_EQ(reg.size(), 0u);
}

TEST(ObsHistogram, ExactAggregatesAndClampedPercentiles) {
  Histogram h;
  EXPECT_EQ(h.percentile(50).count(), 0);  // empty
  for (int i = 0; i < 4; ++i) h.record(Duration{1000});
  if (!kCompiledIn) {
    EXPECT_EQ(h.count(), 0u);
    return;
  }
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum().count(), 4000);
  EXPECT_EQ(h.min().count(), 1000);
  EXPECT_EQ(h.max().count(), 1000);
  // 1000 ns lands in bucket [512, 1024); the geometric midpoint (768)
  // is clamped into the observed [min, max] range, so a degenerate
  // distribution reports itself exactly.
  EXPECT_EQ(h.percentile(50).count(), 1000);
  EXPECT_EQ(h.percentile(99).count(), 1000);
}

TEST(ObsHistogram, PercentilesSeparateBimodalTail) {
  if (!kCompiledIn) GTEST_SKIP() << "recording compiled out";
  Histogram h;
  // 95 fast ops at ~1 us and 5 slow ones at ~1 ms: the median must
  // stay in the fast mode and p99 must reach the slow mode, both
  // within the documented ~±50% bucket resolution.
  for (int i = 0; i < 95; ++i) h.record_ns(1'000);
  for (int i = 0; i < 5; ++i) h.record_ns(1'000'000);
  const auto p50 = static_cast<double>(h.percentile(50).count());
  const auto p99 = static_cast<double>(h.percentile(99).count());
  EXPECT_GE(p50, 500.0);
  EXPECT_LE(p50, 2'000.0);
  EXPECT_GE(p99, 500'000.0);
  EXPECT_LE(p99, 2'000'000.0);
  EXPECT_LE(h.percentile(100).count(), h.max().count());
}

TEST(ObsHistogram, NegativeSamplesClampToZero) {
  if (!kCompiledIn) GTEST_SKIP() << "recording compiled out";
  Histogram h;
  h.record_ns(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min().count(), 0);
  EXPECT_EQ(h.sum().count(), 0);
}

TEST(ObsRegistry, RenderGroupsByStage) {
  MetricsRegistry reg;
  reg.counter("stage2.ops").inc(7);
  reg.histogram("stage2.sync_wait").record_ns(4096);
  reg.counter("cli.commands").inc();
  const std::string out = reg.render();
  if (!kCompiledIn) {
    EXPECT_NE(out.find("compiled out"), std::string::npos);
    return;
  }
  EXPECT_NE(out.find("[stage2]"), std::string::npos);
  EXPECT_NE(out.find("[cli]"), std::string::npos);
  EXPECT_NE(out.find("ops"), std::string::npos);
  // Histograms render as aligned percentile columns under a header row.
  EXPECT_NE(out.find("p50"), std::string::npos);
  EXPECT_NE(out.find("p95"), std::string::npos);
  EXPECT_NE(out.find("p99"), std::string::npos);

  const json::Value v = reg.to_json();
  EXPECT_EQ(v.at("counters").at("stage2.ops").as_int(), 7);
  EXPECT_EQ(v.at("histograms").at("stage2.sync_wait").at("count").as_int(), 1);
}

TEST(ObsRegistry, SnapshotsShareOneSerializationPath) {
  if (!kCompiledIn) GTEST_SKIP() << "recording compiled out";
  MetricsRegistry reg;
  reg.counter("x.a").inc(3);
  reg.gauge("x.g").set(-2);
  reg.histogram("x.h").record_ns(1000);

  // Snapshot to_json() is the single serialization path: the registry's
  // aggregate JSON embeds exactly the same fields.
  const auto cs = reg.counters();
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].to_json().at("type").as_string(), "counter");
  EXPECT_EQ(cs[0].to_json().at("value").as_int(), 3);

  const auto gs = reg.gauges();
  ASSERT_EQ(gs.size(), 1u);
  EXPECT_EQ(gs[0].to_json().at("type").as_string(), "gauge");
  EXPECT_EQ(gs[0].to_json().at("value").as_int(), -2);

  const auto hs = reg.histograms();
  ASSERT_EQ(hs.size(), 1u);
  const json::Value hj = hs[0].to_json();
  EXPECT_EQ(hj.at("type").as_string(), "histogram");
  EXPECT_EQ(hj.at("count").as_int(), 1);

  const json::Value v = reg.to_json();
  EXPECT_EQ(v.at("gauges").at("x.g").as_int(), -2);
  EXPECT_EQ(v.at("histograms").at("x.h").at("p50_ns").as_int(),
            hj.at("p50_ns").as_int());
  EXPECT_EQ(v.at("histograms").at("x.h").at("p99_ns").as_int(),
            hj.at("p99_ns").as_int());
}

TEST(ObsSpan, CollectorTracksDepthAndParents) {
  SpanCollector spans;
  const std::int64_t outer = spans.open("ffm.analyze");
  const std::int64_t inner = spans.open("stage5.build_graph");
  spans.close(inner);
  const std::int64_t sibling = spans.open("stage5.groupings");
  spans.close(sibling);
  spans.close(outer);

  const auto recs = spans.snapshot();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].name, "ffm.analyze");
  EXPECT_EQ(recs[0].depth, 0);
  EXPECT_EQ(recs[0].parent, -1);
  EXPECT_EQ(recs[1].depth, 1);
  EXPECT_EQ(recs[1].parent, outer);
  EXPECT_EQ(recs[2].depth, 1);
  EXPECT_EQ(recs[2].parent, outer);
  for (const SpanRecord& r : recs) {
    EXPECT_GE(r.end_ns, r.start_ns);
    EXPECT_GE(r.duration_ns(), 0);
  }
  // The parent's interval contains both children.
  EXPECT_LE(recs[0].start_ns, recs[1].start_ns);
  EXPECT_GE(recs[0].end_ns, recs[2].end_ns);
}

TEST(ObsSpan, RaiiMacroRespectsRuntimeToggle) {
  auto& t = Telemetry::global();
  t.reset();
  t.set_enabled(true);
  { DIOG_SPAN("test.enabled_span"); }
  t.set_enabled(false);
  { DIOG_SPAN("test.disabled_span"); }
  t.set_enabled(true);

  const auto recs = t.spans().snapshot();
  if (!kCompiledIn) {
    EXPECT_TRUE(recs.empty());
  } else {
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].name, "test.enabled_span");
    EXPECT_GE(recs[0].end_ns, recs[0].start_ns);
  }
  t.reset();
}

// A span records the minor faults taken while it was open: the first
// touch of a fresh 8 MiB mapping faults at least once (per 4 KiB page,
// or per 2 MiB page where huge pages back it), and the JSONL span line
// carries the count.
TEST(ObsSpan, SpanCountsTheFaultsOfAFirstTouch) {
  if (!kCompiledIn) GTEST_SKIP() << "obs compiled out";
  auto& t = Telemetry::global();
  t.reset();
  t.set_enabled(true);
  constexpr std::size_t kBytes = std::size_t{8} << 20;
  void* m = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(m, MAP_FAILED);
  {
    DIOG_SPAN("test.first_touch");
    std::memset(m, 1, kBytes);
  }
  ::munmap(m, kBytes);

  const auto recs = t.spans().snapshot();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_GT(recs[0].minflt, 0);
  EXPECT_NE(t.to_jsonl().find("\"minflt\":" + std::to_string(recs[0].minflt)),
            std::string::npos);
  t.reset();
}

TEST(ObsLogger, DefaultLevelKeepsInfoSilent) {
  Logger log;
  log.set_stderr_enabled(false);
  log.info("stage1", "running baseline");
  EXPECT_TRUE(log.records().empty());  // default level is warn

  log.warn("stage3", "hash collision");
  if (!kCompiledIn) {
    EXPECT_TRUE(log.records().empty());
    return;
  }
  const auto recs = log.records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].level, LogLevel::kWarn);
  EXPECT_EQ(recs[0].component, "stage3");
  EXPECT_EQ(recs[0].message, "hash collision");
}

TEST(ObsLogger, LevelAndSinkAndFormatting) {
  if (!kCompiledIn) GTEST_SKIP() << "logging compiled out";
  Logger log;
  log.set_stderr_enabled(false);
  log.set_level(LogLevel::kInfo);
  std::vector<std::string> sunk;
  log.set_sink([&sunk](const LogRecord& r) { sunk.push_back(r.message); });

  log.debug("cli", "dropped");  // below level
  log.logf(LogLevel::kInfo, "stage2", "traced %d ops in %s", 12, "cumf_als");
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(sunk[0], "traced 12 ops in cumf_als");

  log.set_level(LogLevel::kOff);
  log.error("cli", "swallowed");
  EXPECT_EQ(log.records().size(), 1u);

  const json::Value v = log.records()[0].to_json();
  EXPECT_EQ(v.at("type").as_string(), "log");
  EXPECT_EQ(v.at("level").as_string(), "info");
  EXPECT_EQ(v.at("component").as_string(), "stage2");
}

TEST(ObsAccountant, StageMathAndTotals) {
  StageOverhead s;
  s.stage = "stage2";
  s.app_time = Duration{4000};
  s.baseline_time = Duration{1000};
  s.probes_fired = 12;
  s.probe_cost = Duration{300};
  EXPECT_DOUBLE_EQ(s.perturbation(), 4.0);
  EXPECT_EQ(s.tool_time().count(), 3000);

  StageOverhead faster;  // noise clamps, never negative tool time
  faster.app_time = Duration{900};
  faster.baseline_time = Duration{1000};
  EXPECT_EQ(faster.tool_time().count(), 0);

  OverheadAccountant acc;
  StageOverhead s1;
  s1.stage = "stage1";
  s1.app_time = Duration{1000};
  s1.baseline_time = Duration{1000};
  acc.record(s1);
  acc.record(s);
  if (!kCompiledIn) {
    EXPECT_EQ(acc.size(), 0u);
    return;
  }
  ASSERT_EQ(acc.size(), 2u);
  // Collection = every run's app time vs the shared stage-1 baseline:
  // (1000 + 4000) / 1000.
  EXPECT_DOUBLE_EQ(acc.total_collection_factor(), 5.0);

  const std::string table = acc.render();
  EXPECT_NE(table.find("stage2"), std::string::npos);
  EXPECT_NE(table.find("4.00x"), std::string::npos);
  EXPECT_NE(table.find("total collection cost: 5.0x"), std::string::npos);

  const json::Value v = s.to_json();
  EXPECT_EQ(v.at("type").as_string(), "stage_overhead");
  EXPECT_EQ(v.at("tool_ns").as_int(), 3000);
}

// A small deterministic workload exercising the instrumented stages.
ffm::Workload make_workload() {
  auto out = std::make_shared<gpusim::HostBuffer<float>>(256);
  ffm::Workload w;
  w.name = "obs_probe";
  w.device = gpusim::DeviceConfig{};
  w.body = [out] {
    DIOG_APP_FRAME("obs_main", "obs.cu", 3);
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, out->size_bytes());
    gpusim::KernelDesc k;
    k.name = "obs_kernel";
    k.duration = ms(2);
    (void)gpusim::cudaLaunchKernel(k);
    (void)gpusim::cudaMemcpy(out->data(), dev, out->size_bytes(),
                             hooks::MemcpyKind::kDeviceToHost);
    volatile float v = (*out)[0];
    (void)v;
    (void)gpusim::cudaFree(dev);
  };
  return w;
}

void run_pipeline() {
  const ffm::Workload w = make_workload();
  const ffm::ToolConfig cfg;
  const ffm::Stage1Result s1 = ffm::run_stage1(w, cfg);
  (void)ffm::run_stage2(w, cfg, s1);
  (void)ffm::run_stage3(w, cfg, s1);
  (void)ffm::run_stage4(w, cfg, s1);
}

TEST(ObsTelemetry, StagesPopulateGlobalSession) {
  auto& t = Telemetry::global();
  t.reset();
  t.set_enabled(true);
  run_pipeline();

  if (!kCompiledIn) {
    EXPECT_EQ(t.metrics().size(), 0u);
    EXPECT_EQ(t.accountant().size(), 0u);
    return;
  }
  // Each stage runner leaves its fingerprint: counters, the per-run
  // overhead row, and nested spans on the internal timeline.
  EXPECT_EQ(t.metrics().counter("stage1.runs").value(), 1u);
  EXPECT_EQ(t.metrics().counter("stage2.runs").value(), 1u);
  EXPECT_GT(t.metrics().counter("stage2.ops").value(), 0u);
  EXPECT_GT(t.metrics().histogram("stage2.sync_wait").count(), 0u);
  EXPECT_EQ(t.accountant().size(), 4u);

  const auto rows = t.accountant().snapshot();
  EXPECT_EQ(rows[0].stage, "stage1");
  EXPECT_DOUBLE_EQ(rows[0].perturbation(), 1.0);  // its own baseline
  for (const StageOverhead& row : rows) {
    EXPECT_GT(row.app_time.count(), 0);
    EXPECT_GE(row.wall_ms, 0.0);
  }

  bool stage2_span = false;
  for (const SpanRecord& s : t.spans().snapshot()) {
    if (s.name == "stage2.run") stage2_span = true;
  }
  EXPECT_TRUE(stage2_span);
  t.reset();
}

TEST(ObsTelemetry, CuibmStage3PaysProtectCallsOnlyForTouchedRanges) {
  auto& t = Telemetry::global();
  t.reset();
  t.set_enabled(true);
  const ffm::Workload w = apps::make_cuibm();
  const ffm::ToolConfig cfg;
  const ffm::Stage1Result s1 = ffm::run_stage1(w, cfg);
  (void)ffm::run_stage3(w, cfg, s1);
  if (!kCompiledIn) {
    EXPECT_EQ(t.metrics().size(), 0u);
    return;
  }
  // cuIBM makes ~15k top-level driver calls with its result buffers
  // armed. Re-protecting every range around every call cost ~30k
  // mprotects; the driver window pays only for ranges a call touches.
  const std::uint64_t calls =
      t.metrics().counter("stage3.protect_calls").value();
  EXPECT_GT(calls, 0u);
  EXPECT_LE(calls, 1000u);
  EXPECT_GT(t.metrics().counter("stage3.driver_lifts").value(), 0u);
  t.reset();
}

TEST(ObsTelemetry, AnalysisRecordsOneSpanPerStage5Phase) {
  auto& t = Telemetry::global();
  t.reset();
  t.set_enabled(true);
  const evstore::TraceRun run =
      testkit::make_synthetic_run(testkit::SynthRunOptions{.events = 5000});
  (void)ffm::run_analysis(run, ffm::ToolConfig{});

  const auto recs = t.spans().snapshot();
  if (!kCompiledIn) {
    EXPECT_TRUE(recs.empty());
    return;
  }
  std::int64_t analysis = -1;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].name == "stage5.analysis") {
      analysis = static_cast<std::int64_t>(i);
    }
  }
  ASSERT_GE(analysis, 0);
  // The phases the benchmark's per-layer metrics name, in run order.
  std::vector<std::string> children;
  for (const SpanRecord& s : recs) {
    if (s.parent == analysis) children.push_back(s.name);
  }
  EXPECT_EQ(children, (std::vector<std::string>{
                          "stage5.build_graph", "stage5.expected_benefit",
                          "stage5.single_point", "stage5.folds",
                          "stage5.sequences"}));
  t.reset();
}

TEST(ObsTelemetry, OpenNamesItsReserveAndFinishPhases) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "diog_obs_open.dgtrace")
          .string();
  const evstore::TraceRun run =
      testkit::make_synthetic_run(testkit::SynthRunOptions{.events = 5000});
  evstore::save_run(path, run, evstore::SaveOptions{.footer_wall_ms = 0});
  auto& t = Telemetry::global();
  t.reset();
  t.set_enabled(true);
  const evstore::TraceRun back = evstore::open_run(path);
  std::filesystem::remove(path);

  // Phase timings are host facts, never part of the analysis document.
  const std::string exported =
      ffm::export_json(ffm::run_analysis(back, ffm::ToolConfig{})).dump();
  EXPECT_EQ(exported.find("evstore.open"), std::string::npos);

  const auto recs = t.spans().snapshot();
  t.reset();
  if (!kCompiledIn) {
    EXPECT_TRUE(recs.empty());
    return;
  }
  std::int64_t open = -1;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].name == "evstore.open") open = static_cast<std::int64_t>(i);
  }
  ASSERT_GE(open, 0);
  // Every phase of open is a child span, so none of its time goes
  // unnamed.
  std::vector<std::string> children;
  for (const SpanRecord& s : recs) {
    if (s.parent == open) children.push_back(s.name);
  }
  EXPECT_EQ(children, (std::vector<std::string>{
                          "evstore.open.checksum", "evstore.open.dicts",
                          "evstore.open.reserve", "evstore.open.decode",
                          "evstore.open.finish"}));
}

TEST(ObsTelemetry, AnalysisGaugesGraphSizeAndFootprint) {
  auto& t = Telemetry::global();
  t.reset();
  t.set_enabled(true);
  const evstore::TraceRun run =
      testkit::make_synthetic_run(testkit::SynthRunOptions{.events = 5000});
  const ffm::AnalysisResult r = ffm::run_analysis(run, ffm::ToolConfig{});

  std::map<std::string, std::int64_t> gauges;
  for (const GaugeSnapshot& g : t.metrics().gauges()) gauges[g.name] = g.value;
  if (!kCompiledIn) {
    EXPECT_TRUE(gauges.empty());
    return;
  }
  EXPECT_EQ(gauges.at("stage5.graph_nodes"),
            static_cast<std::int64_t>(r.graph.size()));
  EXPECT_EQ(gauges.at("stage5.graph_bytes"),
            static_cast<std::int64_t>(r.graph.memory_bytes()));
  EXPECT_GE(gauges.at("stage5.graph_bytes"),
            static_cast<std::int64_t>(r.graph.size() * sizeof(ffm::Node)));
  t.reset();
}

TEST(ObsTelemetry, RuntimeDisableSkipsStageRecording) {
  auto& t = Telemetry::global();
  t.reset();
  t.set_enabled(false);
  run_pipeline();
  EXPECT_EQ(t.metrics().size(), 0u);
  EXPECT_EQ(t.accountant().size(), 0u);
  EXPECT_EQ(t.spans().size(), 0u);
  t.set_enabled(true);
  t.reset();
}

TEST(ObsTelemetry, JsonlExportRoundTrips) {
  auto& t = Telemetry::global();
  t.reset();
  t.set_enabled(true);
  t.logger().set_stderr_enabled(false);
  run_pipeline();
  t.logger().warn("test", "one captured record");

  const std::string jsonl = t.to_jsonl();
  if (!kCompiledIn) {
    EXPECT_TRUE(jsonl.empty());
    t.logger().set_stderr_enabled(true);
    return;
  }

  // Every line must parse standalone and carry a self-describing type.
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t counters = 0, gauges = 0, histograms = 0, spans = 0,
              overheads = 0, logs = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const json::Value v = json::parse(line);
    const std::string type = v.at("type").as_string();
    if (type == "counter") ++counters;
    if (type == "gauge") ++gauges;
    if (type == "histogram") ++histograms;
    if (type == "span") ++spans;
    if (type == "stage_overhead") ++overheads;
    if (type == "log") ++logs;
  }
  EXPECT_GT(counters, 0u);
  EXPECT_GT(gauges, 0u);
  EXPECT_GT(histograms, 0u);
  EXPECT_GT(spans, 0u);
  EXPECT_EQ(overheads, 4u);
  EXPECT_EQ(logs, 1u);

  // save_jsonl writes exactly the stream the CLI's --telemetry flag
  // promises.
  const auto path =
      std::filesystem::temp_directory_path() / "diog_obs_test.jsonl";
  t.save_jsonl(path.string());
  std::ifstream in(path, std::ios::binary);
  std::stringstream file;
  file << in.rdbuf();
  EXPECT_EQ(file.str(), jsonl);
  std::filesystem::remove(path);

  t.logger().set_stderr_enabled(true);
  t.reset();
}

TEST(ObsTelemetry, SaveJsonlRejectsUnwritablePath) {
  if (!kCompiledIn) GTEST_SKIP() << "export compiled out";
  EXPECT_THROW(Telemetry::global().save_jsonl("/nonexistent-dir/x.jsonl"),
               Error);
}

// --- Heartbeat stream -------------------------------------------------------

TEST(ObsHeartbeat, CheckpointRequestsBumpSequence) {
  const std::uint64_t before = checkpoint_request_seq();
  request_checkpoint();
  EXPECT_EQ(checkpoint_request_seq(), before + 1);
}

TEST(ObsHeartbeat, CurrentStageIsSticky) {
  set_current_stage("stage_hb_test");
  EXPECT_STREQ(current_stage(), "stage_hb_test");
  set_current_stage("");
  EXPECT_STREQ(current_stage(), "");
}

TEST(ObsHeartbeat, ReporterEmitsParsableJsonl) {
  const auto path =
      std::filesystem::temp_directory_path() / "diog_hb_test.jsonl";
  std::filesystem::remove(path);
  set_current_stage("stage_hb");
  {
    HeartbeatReporter::Options opts;
    opts.path = path.string();
    opts.interval = std::chrono::milliseconds(10);
    HeartbeatReporter hb(opts, [] {
      json::Object o;
      o["payload"] = 42;
      return o;
    });
    hb.emit_now();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    hb.stop();
    hb.stop();  // idempotent
    EXPECT_GE(hb.emitted(), 3u);  // first + forced + interval + final
  }
  set_current_stage("");

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  std::int64_t prev_seq = -1;
  bool saw_final = false;
  bool saw_stage = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    const json::Value v = json::parse(line);
    EXPECT_EQ(v.at("type").as_string(), "heartbeat");
    EXPECT_EQ(v.at("payload").as_int(), 42);
    EXPECT_GT(v.at("seq").as_int(), prev_seq) << "seq must be monotonic";
    prev_seq = v.at("seq").as_int();
    if (v.at("stage").as_string() == "stage_hb") saw_stage = true;
    if (v.contains("final")) saw_final = true;
    ++lines;
  }
  EXPECT_GE(lines, 3u);
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_final) << "stop() must terminate the stream validly";
  std::filesystem::remove(path);
}

TEST(ObsHeartbeat, SignalRequestForcesPromptEmit) {
  const auto path =
      std::filesystem::temp_directory_path() / "diog_hb_sig_test.jsonl";
  std::filesystem::remove(path);
  HeartbeatReporter::Options opts;
  opts.path = path.string();
  opts.interval = std::chrono::milliseconds(60'000);  // never by timer
  HeartbeatReporter hb(opts, [] { return json::Object{}; });
  const std::uint64_t at_start = hb.emitted();
  // The same atomic bump SIGUSR1 performs; the reporter must notice it
  // well before the 60 s interval.
  request_checkpoint();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (hb.emitted() == at_start &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(hb.emitted(), at_start);
  hb.stop();
  std::filesystem::remove(path);
}

TEST(ObsTelemetry, ExitFlushWritesRegisteredPathOnce) {
  if (!kCompiledIn) GTEST_SKIP() << "export compiled out";
  auto& t = Telemetry::global();
  t.reset();
  t.set_enabled(true);
  t.metrics().counter("exit.test").inc();
  const auto path =
      std::filesystem::temp_directory_path() / "diog_exit_flush.jsonl";
  std::filesystem::remove(path);
  Telemetry::set_exit_flush(path.string());
  Telemetry::flush_exit_files();
  EXPECT_TRUE(std::filesystem::exists(path));
  // The path is consumed: a second flush (say terminate after atexit)
  // must not rewrite the file.
  std::filesystem::remove(path);
  Telemetry::flush_exit_files();
  EXPECT_FALSE(std::filesystem::exists(path));
  t.reset();
}

// An embedder may register the exit flush before anything touches the
// session; the flush must still find the session alive at exit. The
// parent process never touches it, so the child starts without one.
TEST(ObsTelemetryDeathTest, ExitFlushRegisteredBeforeTheSessionWrites) {
  if (!kCompiledIn) GTEST_SKIP() << "export compiled out";
  const auto path =
      std::filesystem::temp_directory_path() / "diog_exit_flush_first.jsonl";
  std::filesystem::remove(path);
  EXPECT_EXIT(
      {
        Telemetry::set_exit_flush(path.string());
        Telemetry::global().set_enabled(true);
        Telemetry::global().metrics().counter("exit.first").inc();
        std::exit(0);
      },
      testing::ExitedWithCode(0), "");
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
}

TEST(ObsSchema, SchemaIdIsVersionedAndNamespaced) {
  EXPECT_EQ(schema_id("metrics"), "diogenes.metrics.v1");
  EXPECT_EQ(schema_id("heartbeat"), "diogenes.heartbeat.v1");
}

TEST(ObsSchema, EveryHeartbeatLineCarriesTheSchemaId) {
  const auto path =
      std::filesystem::temp_directory_path() / "diog_hb_schema_test.jsonl";
  std::filesystem::remove(path);
  {
    HeartbeatReporter::Options opts;
    opts.path = path.string();
    opts.interval = std::chrono::milliseconds(60'000);
    HeartbeatReporter hb(opts, [] { return json::Object{}; });
    hb.emit_now();
    hb.stop();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const json::Value v = json::parse(line);
    EXPECT_EQ(v.at("schema").as_string(), "diogenes.heartbeat.v1");
    ++lines;
  }
  EXPECT_GE(lines, 2u);  // open + final, at minimum
  std::filesystem::remove(path);
}

TEST(ObsSchema, MetricsDocumentCarriesTheSchemaId) {
  auto& t = Telemetry::global();
  t.reset();
  t.set_enabled(true);
  t.metrics().counter("schema.test").inc();
  const json::Value v = t.metrics_document();
  EXPECT_EQ(v.at("schema").as_string(), "diogenes.metrics.v1");
  EXPECT_TRUE(v.contains("metrics"));
  EXPECT_TRUE(v.contains("overhead"));
  // The dump must survive a parse round trip (the CLI prints exactly
  // this document for `metrics --json`).
  const json::Value rt = json::parse(v.dump());
  EXPECT_EQ(rt.at("schema").as_string(), "diogenes.metrics.v1");
  t.reset();
}

// --- Pool utilization surface (fleet heartbeat section) ---------------------

TEST(ObsParallel, PoolSummaryReflectsRegistryInstruments) {
  MetricsRegistry reg;
  const json::Value zero{parallel_pool_summary(reg)};
  EXPECT_EQ(zero.at("tasks").as_int(), 0);
  EXPECT_EQ(zero.at("pool_size").as_int(), 0);

  reg.counter("parallel.tasks").inc(120);
  reg.counter("parallel.batches").inc(3);
  reg.counter("parallel.busy_ns").inc(900);
  reg.counter("parallel.wall_ns").inc(1000);
  reg.gauge("parallel.pool.size").set(8);
  reg.gauge("parallel.utilization_pct").set(90);
  const json::Value v{parallel_pool_summary(reg)};
  if (kCompiledIn) {
    EXPECT_EQ(v.at("tasks").as_int(), 120);
    EXPECT_EQ(v.at("batches").as_int(), 3);
    EXPECT_EQ(v.at("busy_ns").as_int(), 900);
    EXPECT_EQ(v.at("wall_ns").as_int(), 1000);
    EXPECT_EQ(v.at("pool_size").as_int(), 8);
    EXPECT_EQ(v.at("utilization_pct").as_int(), 90);
  } else {
    EXPECT_EQ(v.at("tasks").as_int(), 0);
  }
}

TEST(ObsSchema, HeartbeatLinesStayV1CompatibleAndCarryThePoolSection) {
  const auto path =
      std::filesystem::temp_directory_path() / "diog_hb_pool_test.jsonl";
  std::filesystem::remove(path);
  {
    HeartbeatReporter::Options opts;
    opts.path = path.string();
    opts.interval = std::chrono::milliseconds(60'000);
    HeartbeatReporter hb(opts, [] { return json::Object{}; });
    hb.emit_now();
    hb.stop();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const json::Value v = json::parse(line);
    // The v1 contract a fleet tailer depends on: these fields may only
    // ever gain siblings, never vanish or change type.
    EXPECT_EQ(v.at("schema").as_string(), "diogenes.heartbeat.v1");
    EXPECT_EQ(v.at("type").as_string(), "heartbeat");
    EXPECT_NO_THROW((void)v.at("t_wall_ms").as_int());
    EXPECT_NO_THROW((void)v.at("seq").as_int());
    EXPECT_NO_THROW((void)v.at("stage").as_string());
    EXPECT_NO_THROW((void)v.at("checkpoint_requests").as_int());
    // The additive pool section, in the metrics-document shape.
    const json::Value& p = v.at("parallel");
    for (const char* key : {"tasks", "batches", "busy_ns", "wall_ns",
                            "pool_size", "utilization_pct"}) {
      EXPECT_NO_THROW((void)p.at(key).as_int()) << key;
    }
    ++lines;
  }
  EXPECT_GE(lines, 2u);
  std::filesystem::remove(path);
}

TEST(ObsSchema, MetricsDocumentCarriesThePoolSection) {
  auto& t = Telemetry::global();
  t.reset();
  t.set_enabled(true);
  const json::Value v = t.metrics_document();
  const json::Value& p = v.at("parallel");
  EXPECT_NO_THROW((void)p.at("tasks").as_int());
  EXPECT_NO_THROW((void)p.at("utilization_pct").as_int());
  t.reset();
}

// --- Prometheus exposition --------------------------------------------------

TEST(ObsPrometheus, NamesAreSanitizedAndPrefixed) {
  EXPECT_EQ(prometheus_name("stage2.sync_wait"),
            "diogenes_stage2_sync_wait");
  EXPECT_EQ(prometheus_name("parallel.pool.size"),
            "diogenes_parallel_pool_size");
  EXPECT_EQ(prometheus_name("weird name-with/chars"),
            "diogenes_weird_name_with_chars");
}

TEST(ObsPrometheus, GaugeLineCarriesTypeCommentAndSample) {
  const std::string line = prometheus_gauge_line("archive.runs", 7);
  EXPECT_NE(line.find("# TYPE diogenes_archive_runs gauge\n"),
            std::string::npos);
  EXPECT_NE(line.find("diogenes_archive_runs 7\n"), std::string::npos);
}

TEST(ObsPrometheus, TextRendersEveryInstrumentFamily) {
  MetricsRegistry reg;
  EXPECT_EQ(prometheus_text(reg), "") << "empty registry, empty exposition";
  if (!kCompiledIn) GTEST_SKIP() << "recording compiled out";

  reg.counter("explore.requests").inc(5);
  reg.gauge("parallel.pool.size").set(4);
  Histogram& h = reg.histogram("explore.request_us");
  for (int i = 1; i <= 100; ++i) h.record(Duration{i * 1000});

  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("# TYPE diogenes_explore_requests counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("diogenes_explore_requests 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE diogenes_parallel_pool_size gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE diogenes_explore_request_us summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("diogenes_explore_request_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("diogenes_explore_request_us_sum"), std::string::npos);
  EXPECT_NE(text.find("diogenes_explore_request_us_count 100\n"),
            std::string::npos);
  EXPECT_EQ(text.back(), '\n');
  // Two scrapes of unchanged state must be byte-identical.
  EXPECT_EQ(prometheus_text(reg), text);
}

}  // namespace
}  // namespace diog::obs
