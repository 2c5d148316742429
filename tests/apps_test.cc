// Tests of the four evaluation applications: determinism (the multi-run
// model's precondition), presence of each documented pathology, and the
// fixed variants actually being faster.
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "core/run_convert.h"
#include "core/stage1_baseline.h"
#include "core/stage2_tracing.h"
#include "core/stage3_memhash.h"

namespace diog::apps {
namespace {

using ffm::run_stage1;
using ffm::run_uninstrumented;
using ffm::Stage1Result;
using ffm::ToolConfig;
using hooks::Fn;

// A run holding stage 1's product, as Diogenes::analyze starts one.
evstore::TraceRun stage1_run(const Workload& w, const ToolConfig& cfg) {
  evstore::TraceRun run;
  ffm::append_stage1(run, run_stage1(w, cfg));
  return run;
}

ffm::Stage2Result collect_stage2_view(const Workload& w,
                                      const ToolConfig& cfg) {
  evstore::TraceRun run = stage1_run(w, cfg);
  ffm::collect_stage2(w, cfg, ffm::stage1_view(run), run);
  return ffm::stage2_view(run);
}

ffm::Stage3Result collect_stage3_view(const Workload& w,
                                      const ToolConfig& cfg) {
  evstore::TraceRun run = stage1_run(w, cfg);
  ffm::collect_stage3(w, cfg, run);
  return ffm::stage3_view(run);
}

// Small configs keep the whole file fast.
CumfAlsConfig small_cumf() {
  CumfAlsConfig c;
  c.iterations = 4;
  return c;
}
CuibmConfig small_cuibm() {
  CuibmConfig c;
  c.timesteps = 25;
  return c;
}
AmgConfig small_amg() {
  AmgConfig c;
  c.solve_iterations = 10;
  return c;
}
RodiniaGaussianConfig small_rodinia() {
  RodiniaGaussianConfig c;
  c.matrix_dim = 16;
  return c;
}

// --- Determinism (multi-run precondition, paper §5.3) ---------------------------

TEST(AppsDeterminism, CumfAls) {
  const Workload w = make_cumf_als(small_cumf());
  EXPECT_EQ(run_uninstrumented(w), run_uninstrumented(w));
}

TEST(AppsDeterminism, Cuibm) {
  const Workload w = make_cuibm(small_cuibm());
  EXPECT_EQ(run_uninstrumented(w), run_uninstrumented(w));
}

TEST(AppsDeterminism, Amg) {
  const Workload w = make_amg(small_amg());
  EXPECT_EQ(run_uninstrumented(w), run_uninstrumented(w));
}

TEST(AppsDeterminism, RodiniaGaussian) {
  const Workload w = make_rodinia_gaussian(small_rodinia());
  EXPECT_EQ(run_uninstrumented(w), run_uninstrumented(w));
}

TEST(AppsDeterminism, TraceShapeStableAcrossRuns) {
  const Workload w = make_cumf_als(small_cumf());
  const ToolConfig cfg;
  const auto t1 = collect_stage2_view(w, cfg);
  const auto t2 = collect_stage2_view(w, cfg);
  ASSERT_EQ(t1.ops.size(), t2.ops.size());
  for (std::size_t i = 0; i < t1.ops.size(); ++i) {
    EXPECT_EQ(t1.ops[i].api, t2.ops[i].api);
    EXPECT_EQ(t1.ops[i].stack, t2.ops[i].stack);
  }
}

// --- Fixed variants are genuinely faster -------------------------------------------

TEST(AppsFixes, CumfAlsFixedIsFaster) {
  const Duration path = run_uninstrumented(make_cumf_als(small_cumf()));
  const Duration fixed =
      run_uninstrumented(make_cumf_als(small_cumf(), true));
  EXPECT_LT(fixed, path);
}

TEST(AppsFixes, CuibmFixedIsFaster) {
  const Duration path = run_uninstrumented(make_cuibm(small_cuibm()));
  const Duration fixed = run_uninstrumented(make_cuibm(small_cuibm(), true));
  EXPECT_LT(fixed, path);
}

TEST(AppsFixes, AmgFixedIsFaster) {
  const Duration path = run_uninstrumented(make_amg(small_amg()));
  const Duration fixed = run_uninstrumented(make_amg(small_amg(), true));
  EXPECT_LT(fixed, path);
}

TEST(AppsFixes, RodiniaFixedIsFaster) {
  const Duration path =
      run_uninstrumented(make_rodinia_gaussian(small_rodinia()));
  const Duration fixed =
      run_uninstrumented(make_rodinia_gaussian(small_rodinia(), true));
  EXPECT_LT(fixed, path);
}

// --- Pathology presence ---------------------------------------------------------------

TEST(AppsPathology, CumfAlsHasHiddenFreeSyncsAndDuplicates) {
  const Workload w = make_cumf_als(small_cumf());
  const ToolConfig cfg;
  const Stage1Result s1 = run_stage1(w, cfg);
  bool free_site = false;
  bool priv_site = false;
  for (const auto& s : s1.sync_sites) {
    if (s.api == Fn::kCudaFree) free_site = true;
    if (s.api == Fn::kPrivMemFree) priv_site = true;
  }
  EXPECT_TRUE(free_site);
  EXPECT_TRUE(priv_site);  // the cuBLAS-like workspace teardown

  const auto s3 = collect_stage3_view(w, cfg);
  // Tiles A and B re-uploaded identically from iteration 2 on.
  EXPECT_EQ(s3.duplicate_transfers.size(),
            2u * (small_cumf().iterations - 1));
}

TEST(AppsPathology, CumfAlsFixedHasNoDuplicates) {
  const Workload w = make_cumf_als(small_cumf(), true);
  const ToolConfig cfg;
  const auto s3 = collect_stage3_view(w, cfg);
  EXPECT_TRUE(s3.duplicate_transfers.empty());
}

TEST(AppsPathology, CuibmFreeSyncsCarryThrustTemplateFrames) {
  const Workload w = make_cuibm(small_cuibm());
  const ToolConfig cfg;
  const Stage1Result s1 = run_stage1(w, cfg);
  bool thrust_frame = false;
  bool pair_frame = false;
  bool cusp_frame = false;
  for (const auto& s : s1.sync_sites) {
    if (s.api != Fn::kCudaFree) continue;
    for (const trace::Frame* f : s.stack.frames()) {
      if (f->folded_function.find("contiguous_storage<...>") !=
          std::string::npos) {
        thrust_frame = true;
      }
      if (f->folded_function.find("thrust::pair<...>") !=
          std::string::npos) {
        pair_frame = true;
      }
      if (f->folded_function.find("cusp::system::detail::generic") !=
          std::string::npos) {
        cusp_frame = true;
      }
    }
  }
  EXPECT_TRUE(thrust_frame);
  EXPECT_TRUE(pair_frame);
  EXPECT_TRUE(cusp_frame);
}

TEST(AppsPathology, CuibmHasConditionalAsyncCopySync) {
  const Workload w = make_cuibm(small_cuibm());
  const ToolConfig cfg;
  const Stage1Result s1 = run_stage1(w, cfg);
  bool async_copy_sync = false;
  for (const auto& s : s1.sync_sites) {
    if (s.api == Fn::kCudaMemcpyAsync) async_copy_sync = true;
  }
  EXPECT_TRUE(async_copy_sync);
}

TEST(AppsPathology, CuibmFixedEliminatesPerCallFrees) {
  const ToolConfig cfg;
  const Workload path = make_cuibm(small_cuibm());
  const Workload fixed = make_cuibm(small_cuibm(), true);
  const auto count_frees = [&](const Workload& w) {
    const auto s2 = collect_stage2_view(w, cfg);
    std::size_t n = 0;
    for (const auto& op : s2.ops) {
      if (op.api == Fn::kCudaFree) ++n;
    }
    return n;
  };
  const std::size_t path_frees = count_frees(path);
  const std::size_t fixed_frees = count_frees(fixed);
  EXPECT_GT(path_frees, small_cuibm().timesteps * 3);
  EXPECT_LT(fixed_frees, 10u);  // only teardown remains
}

TEST(AppsPathology, AmgMemsetSynchronizes) {
  const Workload w = make_amg(small_amg());
  const ToolConfig cfg;
  const Stage1Result s1 = run_stage1(w, cfg);
  bool memset_site = false;
  for (const auto& s : s1.sync_sites) {
    if (s.api == Fn::kCudaMemset) memset_site = true;
  }
  EXPECT_TRUE(memset_site);
}

TEST(AppsPathology, AmgFixedHasNoMemsetSyncs) {
  const Workload w = make_amg(small_amg(), true);
  const ToolConfig cfg;
  const Stage1Result s1 = run_stage1(w, cfg);
  for (const auto& s : s1.sync_sites) {
    EXPECT_NE(s.api, Fn::kCudaMemset);
  }
}

TEST(AppsPathology, RodiniaThreadSyncsDominateCalls) {
  const Workload w = make_rodinia_gaussian(small_rodinia());
  const ToolConfig cfg;
  const Stage1Result s1 = run_stage1(w, cfg);
  std::uint64_t thread_sync_hits = 0;
  for (const auto& s : s1.sync_sites) {
    if (s.api == Fn::kCudaThreadSynchronize) thread_sync_hits += s.hits;
  }
  // Two syncs per eliminated row.
  EXPECT_EQ(thread_sync_hits, 2u * small_rodinia().matrix_dim);
}

TEST(AppsRegistry, AllAppsListsFourPairs) {
  const auto apps = all_apps();
  ASSERT_EQ(apps.size(), 4u);
  EXPECT_EQ(apps[0].name, "cumf_als");
  EXPECT_EQ(apps[1].name, "cuIBM");
  EXPECT_EQ(apps[2].name, "AMG");
  EXPECT_EQ(apps[3].name, "Rodinia");
  for (const auto& app : apps) {
    EXPECT_NE(app.pathological.body, nullptr);
    EXPECT_NE(app.fixed.body, nullptr);
  }
}

}  // namespace
}  // namespace diog::apps
