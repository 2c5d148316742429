// Self-telemetry overhead: is the observer honest about its own cost?
//
// The paper's central theme is that measurement perturbs the thing
// measured; this bench turns that lens on the obs subsystem itself. It
// runs the bench_fig1_stages workload (the full stage 1-4 collection
// pipeline on cumf_als) with telemetry disabled and enabled and
// compares host wall time. The acceptance bar is <5% enabled overhead;
// in a -DDIOG_OBS=OFF build both timings run the compiled-out no-ops
// and the delta reads ~0.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "core/run_convert.h"
#include "core/stage1_baseline.h"
#include "core/stage2_tracing.h"
#include "core/stage3_memhash.h"
#include "core/stage4_syncuse.h"
#include "obs/telemetry.h"

using namespace diog;
using namespace diog::bench;

namespace {

// One full collection pipeline: the workload bench_fig1_stages walks.
void run_pipeline() {
  apps::CumfAlsConfig app_cfg;
  app_cfg.iterations = 20;
  const ffm::Workload w = apps::make_cumf_als(app_cfg);
  const ffm::ToolConfig tool_cfg;
  const ffm::Stage1Result s1 = ffm::run_stage1(w, tool_cfg);
  const ffm::Stage2Result s2 = ffm::run_stage2(w, tool_cfg, s1);
  const ffm::Stage3Result s3 = ffm::run_stage3(w, tool_cfg, s1);
  const ffm::Stage4Result s4 = ffm::run_stage4(w, tool_cfg, s1);
  const ffm::AnalysisResult r =
      ffm::run_analysis(ffm::build_run(w.name, s1, s2, s3, s4), tool_cfg);
  if (r.graph.size() == 0) std::printf("unexpected empty graph\n");
}

double time_pipeline_ms(int reps, bool telemetry_on) {
  auto& t = obs::Telemetry::global();
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    // Fresh session per rep so span/metric accumulation can't grow the
    // enabled runs' cost across iterations.
    t.reset();
    t.set_enabled(telemetry_on);
    const auto start = std::chrono::steady_clock::now();
    run_pipeline();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    best = std::min(best, ms);
  }
  t.set_enabled(true);
  t.reset();
  return best;
}

}  // namespace

int main() {
  print_header("Self-telemetry overhead on the FFM pipeline",
               "bench_fig1_stages workload, obs registry on vs off");

  constexpr int kWarmup = 2;
  constexpr int kReps = 7;
  std::printf("\ncompiled in: %s\n", obs::kCompiledIn ? "yes" : "no (DIOG_OBS=OFF)");

  // Warm caches and the app's lazily built state before timing.
  time_pipeline_ms(kWarmup, /*telemetry_on=*/false);

  const double off_ms = time_pipeline_ms(kReps, /*telemetry_on=*/false);
  const double on_ms = time_pipeline_ms(kReps, /*telemetry_on=*/true);
  const double overhead_pct =
      off_ms > 0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;

  std::printf("pipeline wall time, telemetry off: %8.3f ms (best of %d)\n",
              off_ms, kReps);
  std::printf("pipeline wall time, telemetry on:  %8.3f ms (best of %d)\n",
              on_ms, kReps);
  std::printf("enabled overhead: %+.2f%%  (bar: <5%%)\n", overhead_pct);

  if (!obs::kCompiledIn) {
    std::printf("DIOG_OBS=OFF build: both runs execute compiled-out no-ops; "
                "any delta is timing noise.\n");
    return 0;
  }
  if (overhead_pct < 5.0) {
    std::printf("PASS: the registry stays under the 5%% bar\n");
    return 0;
  }
  std::printf("FAIL: telemetry overhead exceeds 5%%\n");
  return 1;
}
