// End-to-end tests of the full five-stage pipeline, report rendering,
// and JSON export on synthetic workloads.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "apps/apps.h"
#include "core/diogenes.h"
#include "core/report.h"
#include "core/run_convert.h"
#include "eventstore/run_io.h"
#include "support/error.h"
#include "gpusim/api.h"
#include "gpusim/host_buffer.h"
#include "trace/callstack.h"

namespace diog::ffm {
namespace {

using gpusim::HostBuffer;
using gpusim::KernelDesc;
using hooks::Fn;
using hooks::MemcpyKind;

// A compact app with all three problem types, ground truth by design:
//  - a duplicate H2D upload each iteration (unnecessary transfer);
//  - per-iteration cudaFree while kernels run (unnecessary sync, with a
//    wide CPU window after it -> recoverable);
//  - a deviceSynchronize immediately before the readback (unnecessary,
//    near-zero benefit: the readback's own sync absorbs the wait);
//  - the readback's implicit sync is required (data consumed).
struct SyntheticApp {
  std::shared_ptr<HostBuffer<float>> tile =
      std::make_shared<HostBuffer<float>>(64 * 1024);
  std::shared_ptr<HostBuffer<float>> out =
      std::make_shared<HostBuffer<float>>(16 * 1024);
  int iterations = 8;

  void operator()() const {
    DIOG_APP_FRAME("synthetic_main", "synth.cc", 10);
    void* d_tile = nullptr;
    void* d_out = nullptr;
    void* d_temp = nullptr;
    (void)gpusim::cudaMalloc(&d_tile, tile->size_bytes());
    (void)gpusim::cudaMalloc(&d_out, out->size_bytes());
    (void)gpusim::cudaMalloc(&d_temp, 4096);

    for (int i = 0; i < iterations; ++i) {
      DIOG_APP_FRAME("iteration", "synth.cc", 20);
      {
        DIOG_APP_FRAME("upload", "synth.cc", 25);
        (void)gpusim::cudaMemcpy(d_tile, tile->data(), tile->size_bytes(),
                                 MemcpyKind::kHostToDevice);  // duplicate!
      }
      KernelDesc k;
      k.name = "compute";
      k.duration = ms(6);
      float* o = static_cast<float*>(d_out);
      k.body = [o, i] { o[0] = static_cast<float>(i); };
      (void)gpusim::cudaLaunchKernel(k);
      {
        DIOG_APP_FRAME("teardown", "synth.cc", 33);
        (void)gpusim::cudaFree(d_temp);  // waits on `compute`
      }
      (void)gpusim::cudaMalloc(&d_temp, 4096);
      gpusim::cpu_work(ms(8));  // wide window: the free is recoverable
      {
        DIOG_APP_FRAME("pre_read_sync", "synth.cc", 40);
        (void)gpusim::cudaDeviceSynchronize();  // near-zero benefit
      }
      {
        DIOG_APP_FRAME("readback", "synth.cc", 44);
        (void)gpusim::cudaMemcpy(out->data(), d_out, out->size_bytes(),
                                 MemcpyKind::kDeviceToHost);  // required
      }
      volatile float v = (*out)[0];
      (void)v;
    }
    (void)gpusim::cudaFree(d_tile);
    (void)gpusim::cudaFree(d_out);
    (void)gpusim::cudaFree(d_temp);
  }
};

Workload synthetic_workload() {
  Workload w;
  w.name = "synthetic";
  w.device = gpusim::DeviceConfig{};
  w.body = SyntheticApp{};
  return w;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Diogenes tool(synthetic_workload());
    result_ = new AnalysisResult(tool.analyze());
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static AnalysisResult* result_;
};

AnalysisResult* IntegrationTest::result_ = nullptr;

TEST_F(IntegrationTest, AllStagesRan) {
  const Stage1Result s1 = stage1_view(result_->run);
  EXPECT_EQ(s1.wait_fn, Fn::kInternalWaitForStream);
  EXPECT_GT(s1.exec_time.count(), 0);
  EXPECT_FALSE(stage2_view(result_->run).ops.empty());
  EXPECT_FALSE(stage3_view(result_->run).syncs.empty());
  EXPECT_FALSE(stage4_view(result_->run).uses.empty());
  EXPECT_GT(result_->graph.size(), 0u);
}

TEST_F(IntegrationTest, HiddenFreeSyncDiscovered) {
  bool free_site = false;
  for (const SyncSite& s : stage1_view(result_->run).sync_sites) {
    if (s.api == Fn::kCudaFree) free_site = true;
  }
  EXPECT_TRUE(free_site);
}

TEST_F(IntegrationTest, DuplicateUploadsFlagged) {
  // 7 of the 8 identical uploads are duplicates.
  EXPECT_EQ(stage3_view(result_->run).duplicate_transfers.size(), 7u);
}

TEST_F(IntegrationTest, FreeBenefitDominatesDeviceSyncBenefit) {
  // The headline behaviour: consumption says deviceSynchronize is
  // expensive, benefit analysis says fixing it is worthless next to the
  // hidden frees.
  Duration free_savings{0};
  Duration sync_savings{0};
  for (const auto& s : result_->api_savings()) {
    if (s.api == Fn::kCudaFree) free_savings = s.savings;
    if (s.api == Fn::kCudaDeviceSynchronize) sync_savings = s.savings;
  }
  EXPECT_GT(free_savings, ms(30));  // ~6 ms x 8 iterations, minus slack
  EXPECT_LT(sync_savings, free_savings / 5);
}

TEST_F(IntegrationTest, TotalBenefitBounded) {
  EXPECT_GT(result_->benefit.total.count(), 0);
  EXPECT_LT(result_->benefit.total, result_->exec_time());
  EXPECT_EQ(result_->benefit.total,
            result_->benefit.sync_benefit + result_->benefit.transfer_benefit);
}

TEST_F(IntegrationTest, SequencesMergeAcrossIterations) {
  ASSERT_FALSE(result_->sequences.empty());
  const Group& top = result_->sequences[0];
  EXPECT_GE(top.instances.size(), 7u);  // one per loop iteration
}

TEST_F(IntegrationTest, OverheadFactorReflectsMultiRunCost) {
  // Four collection runs, one heavily instrumented: well above 4x, below
  // the paper's worst case neighborhood.
  EXPECT_GT(result_->overhead_factor, 4.0);
  EXPECT_LT(result_->overhead_factor, 30.0);
}

TEST_F(IntegrationTest, ReportRendering) {
  const std::string overview = render_overview(*result_);
  EXPECT_NE(overview.find("Diogenes Overview Display"), std::string::npos);
  EXPECT_NE(overview.find("Fold on cudaFree"), std::string::npos);
  EXPECT_NE(overview.find("% of execution time"), std::string::npos);

  ASSERT_FALSE(result_->folds.empty());
  const std::string expansion =
      render_fold_expansion(*result_, result_->folds[0]);
  EXPECT_FALSE(expansion.empty());

  ASSERT_FALSE(result_->sequences.empty());
  const std::string seq = render_sequence(*result_, result_->sequences[0]);
  EXPECT_NE(seq.find("Time Recoverable:"), std::string::npos);
  EXPECT_NE(seq.find("Number of Sync Issues:"), std::string::npos);
  EXPECT_NE(seq.find("1. "), std::string::npos);

  const std::string api = render_api_savings(*result_);
  EXPECT_NE(api.find("cudaFree"), std::string::npos);
}

TEST_F(IntegrationTest, SubsequenceRefinementWithoutNewCollection) {
  ASSERT_FALSE(result_->sequences.empty());
  const Group& seq = result_->sequences[0];
  const auto entries = sequence_entries(result_->graph, seq);
  ASSERT_GE(entries.size(), 2u);
  const Group sub =
      subsequence(result_->graph, seq, 2, entries.size());
  EXPECT_LE(sub.benefit, seq.benefit);
  const std::string text =
      render_subsequence(*result_, sub, 2, entries.size());
  EXPECT_NE(text.find("Time Recoverable In Subsequence:"),
            std::string::npos);
}

TEST_F(IntegrationTest, JsonExportComplete) {
  const json::Value v = export_json(*result_);
  EXPECT_EQ(v.at("workload").as_string(), "synthetic");
  EXPECT_GT(v.at("total_benefit_ns").as_int(), 0);
  EXPECT_GT(v.at("overhead_factor").as_double(), 1.0);
  EXPECT_GT(v.at("folds").size(), 0u);
  EXPECT_GT(v.at("sequences").size(), 0u);
  EXPECT_GT(v.at("api_savings").size(), 0u);
  // Valid JSON end-to-end.
  EXPECT_NO_THROW((void)json::parse(v.dump_pretty()));
}

TEST_F(IntegrationTest, DeterministicAcrossAnalyses) {
  Diogenes tool(synthetic_workload());
  const AnalysisResult again = tool.analyze();
  EXPECT_EQ(again.benefit.total, result_->benefit.total);
  EXPECT_EQ(stage2_view(again.run).ops.size(),
            stage2_view(result_->run).ops.size());
  EXPECT_EQ(stage3_view(again.run).duplicate_transfers.size(),
            stage3_view(result_->run).duplicate_transfers.size());
}

TEST(DiogenesDriver, WorkloadWithoutBodyRejected) {
  Workload w;
  w.name = "empty";
  EXPECT_THROW(Diogenes{w}, Error);
}

TEST(DiogenesDriver, CleanWorkloadReportsNothing) {
  // An app with overlap done right: only healthy syncs.
  auto out = std::make_shared<HostBuffer<float>>(1024);
  Workload w;
  w.name = "clean";
  w.device = gpusim::DeviceConfig{};
  w.body = [out] {
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, out->size_bytes());
    KernelDesc k;
    k.name = "k";
    k.duration = ms(1);
    (void)gpusim::cudaLaunchKernel(k);
    gpusim::cpu_work(ms(2));  // overlap instead of waiting
    (void)gpusim::cudaMemcpy(out->data(), dev, out->size_bytes(),
                             MemcpyKind::kDeviceToHost);
    volatile float v = (*out)[0];
    (void)v;
    (void)gpusim::cudaFree(dev);
  };
  Diogenes tool(w);
  const AnalysisResult r = tool.analyze();
  // The readback's sync is required with immediate use; the final free
  // waits on nothing. Total estimated benefit is negligible.
  EXPECT_LT(r.benefit.total, ms(1));
}

// export_json builds its stage sections from the run on demand (the
// analysis keeps no per-stage copy): each section must be exactly the
// stage's view of the run, and a save/open round trip of that run must
// export the same bytes.
TEST(ExportJson, StageSectionsAreRunViewsAndSurviveReopen) {
  apps::CumfAlsConfig app_cfg;
  app_cfg.iterations = 4;
  const AnalysisResult r = Diogenes(apps::make_cumf_als(app_cfg)).analyze();
  const json::Value v = export_json(r);
  EXPECT_EQ(v.at("stage1"), stage1_view(r.run).to_json());
  EXPECT_EQ(v.at("stage3"), stage3_view(r.run).to_json());
  EXPECT_EQ(v.at("stage4"), stage4_view(r.run).to_json());
  EXPECT_GT(v.at("stage1").at("sync_sites").size(), 0u);
  EXPECT_GT(v.at("stage3").at("syncs").size(), 0u);
  EXPECT_GT(v.at("stage4").at("uses").size(), 0u);

  const auto path =
      std::filesystem::temp_directory_path() / "diog_export_cumf_als.dgtrace";
  evstore::save_run(path.string(), r.run);
  const AnalysisResult reopened =
      run_analysis(evstore::open_run(path.string()), ToolConfig{});
  std::filesystem::remove(path);
  EXPECT_EQ(export_json(reopened).dump(), v.dump());
}

// Freeing a buffer is not a use of its data. cuIBM drops its residual
// buffer unread after the last step's sync; when a heap free() wrote its
// bookkeeping into the still-protected page, that write counted as the
// sync's first use, and whether it happened depended on heap state.
TEST(ExportJson, CuibmExportsIdenticalBytesAcrossAnalyses) {
  const std::string first =
      export_json(Diogenes(apps::make_cuibm()).analyze()).dump();
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(export_json(Diogenes(apps::make_cuibm()).analyze()).dump(),
              first)
        << "analysis " << i;
  }
}

// The execution time and overhead factor come from the run's metadata,
// so a run that carries only stage times (no events) still reports them.
TEST(RunAnalysis, TimesComeFromRunMeta) {
  evstore::TraceRun run;
  run.meta.workload = "meta_only";
  run.meta.s1_exec = secs(2.0);
  run.meta.s2_exec = secs(3.0);
  const AnalysisResult r = run_analysis(run, ToolConfig{});
  EXPECT_EQ(r.exec_time(), secs(2.0));
  EXPECT_EQ(r.collection_time, secs(5.0));
  EXPECT_DOUBLE_EQ(r.overhead_factor, 2.5);
  EXPECT_DOUBLE_EQ(r.fraction_of_exec(secs(1.0)), 0.5);

  run.meta.s1_exec = Duration{0};
  const AnalysisResult no_baseline = run_analysis(run, ToolConfig{});
  EXPECT_EQ(no_baseline.exec_time(), Duration{0});
  EXPECT_DOUBLE_EQ(no_baseline.overhead_factor, 0.0);
  EXPECT_DOUBLE_EQ(no_baseline.fraction_of_exec(secs(1.0)), 0.0);
}

}  // namespace
}  // namespace diog::ffm
