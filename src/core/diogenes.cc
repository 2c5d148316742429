#include "core/diogenes.h"

#include <map>
#include <memory>

#include "core/flight_recorder.h"
#include "core/run_convert.h"
#include "core/stage1_baseline.h"
#include "core/stage2_tracing.h"
#include "core/stage3_memhash.h"
#include "core/stage4_syncuse.h"
#include "eventstore/run_io.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "support/error.h"

namespace diog::ffm {

std::vector<AnalysisResult::ApiSavings> AnalysisResult::api_savings() const {
  std::map<hooks::Fn, ApiSavings> by_api;
  for (const NodeBenefit& nb : benefit.per_node) {
    const Node& n = graph.nodes()[nb.node];
    if (n.api == hooks::Fn::kCount_) continue;
    ApiSavings& s = by_api[n.api];
    s.api = n.api;
    s.savings += nb.benefit;
    ++s.problem_count;
  }
  std::vector<ApiSavings> out;
  out.reserve(by_api.size());
  for (auto& [api, s] : by_api) out.push_back(s);
  std::sort(out.begin(), out.end(),
            [](const ApiSavings& a, const ApiSavings& b) {
              return a.savings > b.savings;
            });
  return out;
}

Diogenes::Diogenes(Workload workload, ToolConfig cfg)
    : workload_(std::move(workload)), cfg_(std::move(cfg)) {
  DIOG_CHECK(workload_.body != nullptr, "workload has no body");
}

AnalysisResult run_analysis(const evstore::TraceRun& run,
                            const ToolConfig& cfg) {
  DIOG_SPAN("stage5.analysis");
  AnalysisResult r;
  r.workload_name = run.meta.workload;
  r.run = run;

  // Stage 5 is serial and reads the run only through cursors and its
  // metadata: the graph is immutable and every benefit pass is a sparse
  // replay over it (benefit.h), so the grouping families cost
  // O(problems) each.
  {
    DIOG_SPAN("stage5.build_graph");
    r.graph = build_graph(run, cfg.misplaced_threshold);
  }
  {
    DIOG_SPAN("stage5.expected_benefit");
    r.benefit = expected_benefit(r.graph);
  }
  {
    DIOG_SPAN("stage5.single_point");
    r.single_points = single_point_groups(r.graph);
  }
  {
    DIOG_SPAN("stage5.folds");
    r.folds = folded_api_groups(r.graph);
  }
  {
    DIOG_SPAN("stage5.sequences");
    r.sequences = sequence_groups(r.graph);
  }

  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("stage5.analyses").inc();
    m.gauge("stage5.graph_nodes").set(static_cast<std::int64_t>(r.graph.size()));
    m.gauge("stage5.graph_bytes")
        .set(static_cast<std::int64_t>(r.graph.memory_bytes()));
    m.gauge("stage5.problematic_nodes")
        .set(static_cast<std::int64_t>(r.graph.problematic_indices().size()));
    m.gauge("stage5.benefit_ns").set(r.benefit.total.count());
  }

  r.collection_time = run.collection_time();
  r.overhead_factor = r.fraction_of_exec(r.collection_time);
  return r;
}

AnalysisResult Diogenes::analyze() {
  DIOG_SPAN("ffm.analyze");
  obs::Logger& log = obs::Telemetry::global().logger();

  // One run accumulates everything the four collection stages observe.
  evstore::TraceRun run;
  run.meta.workload = workload_.name;

  // Flight-recorder mode: bound resident memory and/or keep the run
  // observable while it happens.
  if (cfg_.retain_mb > 0 || cfg_.retain_events > 0) {
    run.store->set_retention(evstore::RetentionPolicy{
        .max_bytes = cfg_.retain_mb * 1024 * 1024,
        .max_events = cfg_.retain_events});
  }
  std::unique_ptr<FlightRecorder> recorder;
  if (cfg_.live) {
    recorder = std::make_unique<FlightRecorder>(run, cfg_, workload_.name);
  }
  const auto stage = [&](const char* name) {
    if (recorder) recorder->on_stage_begin(name);
  };
  const auto stage_done = [&] {
    if (recorder) recorder->on_stage_end();
  };

  log.info("stage1", "stage 1: baseline measurement (" + workload_.name +
                         ")");
  stage("stage1");
  const Stage1Result s1 = run_stage1(workload_, cfg_);
  append_stage1(run, s1);
  stage_done();

  log.info("stage2", "stage 2: detailed tracing");
  stage("stage2");
  collect_stage2(workload_, cfg_, s1, run);
  stage_done();

  log.info("stage3", "stage 3: memory tracing + hashing");
  stage("stage3");
  collect_stage3(workload_, cfg_, run);
  stage_done();

  log.info("stage4", "stage 4: sync-use analysis");
  stage("stage4");
  collect_stage4(workload_, cfg_, run);
  stage_done();

  if (recorder) {
    // Fold the tool's own spans in, then finalize the live file (the
    // footer gains the finalized flag; followers see a clean end).
    append_internal_spans(run);
    recorder->finish();
  } else if (!cfg_.trace_dir.empty()) {
    // Fold the tool's own spans into the run before it leaves the
    // process, then persist the complete trace in the binary format.
    append_internal_spans(run);
    evstore::save_run(evstore::run_file_path(cfg_.trace_dir, workload_.name),
                      run);
  }

  log.info("stage5", "stage 5: analysis");
  stage("stage5");
  AnalysisResult result = run_analysis(run, cfg_);
  stage_done();
  return result;
}

}  // namespace diog::ffm
