// Offline replay: the analysis stage re-run over a saved .dgtrace run
// must reproduce the live pipeline's results exactly.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "core/diogenes.h"
#include "core/report.h"
#include "eventstore/run_io.h"
#include "gpusim/api.h"
#include "gpusim/host_buffer.h"
#include "support/error.h"
#include "trace/callstack.h"

namespace diog::ffm {
namespace {

using gpusim::HostBuffer;
using gpusim::KernelDesc;
using hooks::MemcpyKind;

Workload replay_workload() {
  auto out = std::make_shared<HostBuffer<float>>(4096);
  Workload w;
  w.name = "replayee";
  w.device = gpusim::DeviceConfig{};
  w.body = [out] {
    DIOG_APP_FRAME("replay_main", "rp.cu", 3);
    void* dev = nullptr;
    void* tmp = nullptr;
    (void)gpusim::cudaMalloc(&dev, out->size_bytes());
    for (int i = 0; i < 6; ++i) {
      DIOG_APP_FRAME("loop", "rp.cu", 10);
      KernelDesc k;
      k.name = "k";
      k.duration = ms(4);
      (void)gpusim::cudaLaunchKernel(k);
      (void)gpusim::cudaMalloc(&tmp, 64);
      (void)gpusim::cudaFree(tmp);  // hidden sync
      gpusim::cpu_work(ms(5));
      (void)gpusim::cudaMemcpy(out->data(), dev, out->size_bytes(),
                               MemcpyKind::kDeviceToHost);
      volatile float v = (*out)[0];
      (void)v;
    }
    (void)gpusim::cudaFree(dev);
  };
  return w;
}

class ReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs tests as parallel processes,
    // and a shared directory lets one test's TearDown delete a run file
    // another test is mid-way through writing or loading.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("diog_replay_") + info->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Collects the workload live, saving its run under dir_.
  AnalysisResult analyze_live() const {
    ToolConfig cfg;
    cfg.trace_dir = dir_;
    Diogenes tool(replay_workload(), cfg);
    return tool.analyze();
  }
  // The saved run, reopened from disk.
  [[nodiscard]] evstore::TraceRun saved_run() const {
    return evstore::open_run(evstore::run_file_path(dir_, "replayee"));
  }

  std::string dir_;
};

TEST_F(ReplayTest, OfflineAnalysisMatchesLiveExactly) {
  const ToolConfig cfg;
  const AnalysisResult live = analyze_live();
  const AnalysisResult offline = run_analysis(saved_run(), cfg);

  EXPECT_EQ(offline.benefit.total, live.benefit.total);
  EXPECT_EQ(offline.benefit.sync_benefit, live.benefit.sync_benefit);
  EXPECT_EQ(offline.folds.size(), live.folds.size());
  EXPECT_EQ(offline.sequences.size(), live.sequences.size());
  EXPECT_EQ(offline.overhead_factor, live.overhead_factor);
  EXPECT_EQ(export_json(offline).dump(), export_json(live).dump());
}

TEST_F(ReplayTest, SubsequenceRefinementWorksOffline) {
  const ToolConfig cfg;
  (void)analyze_live();

  // A fresh process (modeled here as a fresh analysis from disk) can
  // refine subsequences without the application ever existing.
  const AnalysisResult offline = run_analysis(saved_run(), cfg);
  ASSERT_FALSE(offline.sequences.empty());
  const Group& seq = offline.sequences[0];
  const auto entries = sequence_entries(offline.graph, seq);
  ASSERT_GE(entries.size(), 1u);
  const Group sub = subsequence(offline.graph, seq, 1, entries.size());
  EXPECT_EQ(sub.benefit, seq.benefit);
}

TEST_F(ReplayTest, DifferentThresholdChangesOfflineClassification) {
  const ToolConfig cfg;
  (void)analyze_live();
  const evstore::TraceRun run = saved_run();

  // Re-analysis with a different misplaced threshold is a pure
  // analysis-side decision: no new collection, possibly different
  // problem classification.
  ToolConfig strict = cfg;
  strict.misplaced_threshold = Duration{0};
  const AnalysisResult strict_r = run_analysis(run, strict);
  ToolConfig lax = cfg;
  lax.misplaced_threshold = secs(10.0);
  const AnalysisResult lax_r = run_analysis(run, lax);
  // Strict threshold flags at least as many problems.
  EXPECT_GE(strict_r.graph.problematic_indices().size(),
            lax_r.graph.problematic_indices().size());
}

TEST_F(ReplayTest, MissingRunThrowsNamingItsFile) {
  const std::string path = evstore::run_file_path(dir_, "no_such_workload");
  try {
    (void)evstore::open_run(path);
    FAIL() << "opening a missing run did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(dir_ + "/no_such_workload.dgtrace"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ReplayTest, CorruptFileThrows) {
  (void)analyze_live();
  // Overwrite the saved run with bytes that are not a run.
  std::ofstream(evstore::run_file_path(dir_, "replayee"), std::ios::trunc)
      << "{ not a run";
  EXPECT_THROW((void)saved_run(), Error);
}

}  // namespace
}  // namespace diog::ffm
