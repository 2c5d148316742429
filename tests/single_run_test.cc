#include <gtest/gtest.h>

#include "apps/apps.h"
#include "core/run_convert.h"
#include "core/single_run.h"
#include "core/stage1_baseline.h"
#include "core/stage2_tracing.h"
#include "gpusim/api.h"
#include "trace/callstack.h"

namespace diog::ffm {
namespace {

using gpusim::KernelDesc;

// N identical loop iterations, each with one sync site.
Workload repetitive_workload(int iterations) {
  Workload w;
  w.name = "repetitive";
  w.device = gpusim::DeviceConfig{};
  w.body = [iterations] {
    DIOG_APP_FRAME("main", "rep.cu", 1);
    for (int i = 0; i < iterations; ++i) {
      KernelDesc k;
      k.name = "k";
      k.duration = us(500);
      (void)gpusim::cudaLaunchKernel(k);
      DIOG_APP_FRAME("loop_sync", "rep.cu", 9);
      (void)gpusim::cudaDeviceSynchronize();
    }
  };
  return w;
}

// One-shot expensive syncs at startup, then a repetitive tail.
Workload startup_heavy_workload() {
  Workload w;
  w.name = "startup_heavy";
  w.device = gpusim::DeviceConfig{};
  w.body = [] {
    DIOG_APP_FRAME("main", "init.cu", 1);
    {
      // The initialization phase synchronizes twice, expensively, at
      // two distinct sites — and never again.
      DIOG_APP_FRAME("init", "init.cu", 10);
      KernelDesc big;
      big.name = "init_kernel";
      big.duration = ms(40);
      (void)gpusim::cudaLaunchKernel(big);
      {
        DIOG_APP_FRAME("init", "init.cu", 14);
        (void)gpusim::cudaDeviceSynchronize();
      }
      (void)gpusim::cudaLaunchKernel(big);
      {
        DIOG_APP_FRAME("init", "init.cu", 18);
        (void)gpusim::cudaDeviceSynchronize();
      }
    }
    for (int i = 0; i < 20; ++i) {
      KernelDesc k;
      k.name = "k";
      k.duration = us(200);
      (void)gpusim::cudaLaunchKernel(k);
      DIOG_APP_FRAME("tail_sync", "init.cu", 28);
      (void)gpusim::cudaStreamSynchronize(gpusim::kDefaultStream);
    }
  };
  return w;
}

TEST(SingleRun, PromotesRepeatingSitesAndTracesTheRest) {
  const ToolConfig cfg;
  SingleRunOptions opts;
  opts.promote_after = 3;
  const SingleRunResult r =
      run_single_run_analysis(repetitive_workload(50), cfg, opts);

  EXPECT_EQ(r.sites_seen, 1u);
  EXPECT_EQ(r.sites_promoted, 1u);
  // The first promote_after-1 occurrences are lost; the rest traced.
  EXPECT_EQ(r.occurrences_missed, opts.promote_after - 1);
  EXPECT_EQ(r.ops.size(), 50u - (opts.promote_after - 1));
  EXPECT_GT(r.coverage(), 0.9);
}

TEST(SingleRun, MissesOneShotStartupProblems) {
  const ToolConfig cfg;
  SingleRunOptions opts;
  opts.promote_after = 3;
  const SingleRunResult r =
      run_single_run_analysis(startup_heavy_workload(), cfg, opts);

  // The two init sites never reach the promotion threshold: the 80 ms
  // of startup blocking is invisible in the detailed trace.
  EXPECT_GE(r.missed_wait, ms(75));
  // The detailed ops only cover the (cheap) tail site.
  for (const OpRecord& op : r.ops) {
    EXPECT_EQ(op.api, hooks::Fn::kCudaStreamSynchronize);
  }
}

TEST(SingleRun, FfmSeesWhatSingleRunMisses) {
  // The §2.1 claim, as an assertion: FFM's multi-run collection traces
  // every occurrence, including the startup ones.
  const Workload w = startup_heavy_workload();
  const ToolConfig cfg;
  const Stage1Result s1 = run_stage1(w, cfg);
  evstore::TraceRun run;
  append_stage1(run, s1);
  collect_stage2(w, cfg, s1, run);
  const Stage2Result s2 = stage2_view(run);

  Duration ffm_device_sync_wait{0};
  for (const OpRecord& op : s2.ops) {
    if (op.api == hooks::Fn::kCudaDeviceSynchronize) {
      ffm_device_sync_wait += op.sync_wait;
    }
  }
  EXPECT_GE(ffm_device_sync_wait, ms(75));

  const SingleRunResult sr = run_single_run_analysis(w, cfg, {});
  Duration sr_device_sync_wait{0};
  for (const OpRecord& op : sr.ops) {
    if (op.api == hooks::Fn::kCudaDeviceSynchronize) {
      sr_device_sync_wait += op.sync_wait;
    }
  }
  EXPECT_EQ(sr_device_sync_wait, Duration{0});
}

TEST(SingleRun, PromoteAfterOneTracesAlmostEverything) {
  SingleRunOptions eager;
  eager.promote_after = 1;
  const SingleRunResult r =
      run_single_run_analysis(repetitive_workload(10), ToolConfig{}, eager);
  EXPECT_EQ(r.occurrences_missed, 0u);
  EXPECT_EQ(r.ops.size(), 10u);
}

TEST(SingleRun, CoverageOnRealApps) {
  // Rodinia's syncs repeat hundreds of times: single-run coverage is
  // high. The number it cannot see is bounded by sites x threshold.
  apps::RodiniaGaussianConfig cfg;
  cfg.matrix_dim = 64;
  const SingleRunResult r = run_single_run_analysis(
      apps::make_rodinia_gaussian(cfg), ToolConfig{}, {});
  EXPECT_GT(r.coverage(), 0.9);
  EXPECT_GT(r.sites_promoted, 0u);
}

}  // namespace
}  // namespace diog::ffm
