// Deterministic fault injection (ISSUE 4, leg 2): every injection site
// wired through the persistence and runtime layers must demonstrably
// fire, and every injected fault must surface as a cleanly classified
// error (clean / torn / corrupt) or a consistent degraded state — never
// UB, never a silently wrong analysis. The torn-footer tests are the
// checkpointed-prefix guarantee: whatever a crash leaves behind, every
// previously checkpointed chunk stays readable.
#include <gtest/gtest.h>

#include <filesystem>
#include <new>
#include <string>

#include "core/diogenes.h"
#include "eventstore/event_store.h"
#include "eventstore/live_writer.h"
#include "eventstore/run_io.h"
#include "gpusim/api.h"
#include "gpusim/host_buffer.h"
#include "support/error.h"
#include "testkit/dgtrace_builder.h"
#include "testkit/fault_plan.h"

namespace diog::testkit {
namespace {

namespace fs = std::filesystem;

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("diog_fault_") + info->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = dir_ + "/run.dgtrace";
  }
  void TearDown() override { fs::remove_all(dir_); }

  // A store with `n` well-formed events; enough variety for the writer
  // to serialize dictionaries and several columns.
  static evstore::TraceRun sample_run(std::uint64_t n) {
    evstore::TraceRun run;
    run.meta.workload = "fault_wl";
    run.meta.s1_exec = ms(10);
    run.meta.s2_exec = ms(10);
    run.meta.s3_exec = ms(10);
    run.meta.s4_exec = ms(10);
    for (std::uint64_t i = 0; i < n; ++i) {
      evstore::Event e;
      e.kind = static_cast<evstore::EventKind>(i % evstore::kEventKindCount);
      e.op_index = i;
      e.t_start = static_cast<std::int64_t>(i * 2);
      e.t_end = e.t_start + 1;
      e.value = i;
      run.store->append(e);
    }
    return run;
  }

  static FaultSpec spec(const char* site, FaultAction action,
                        std::int64_t magnitude = 0) {
    FaultSpec s;
    s.site = site;
    s.action = action;
    s.magnitude = magnitude;
    return s;
  }

  std::string dir_;
  std::string path_;
};

// --- The plan itself ---------------------------------------------------------

TEST_F(FaultTest, NoPlanInstalledMeansNoFiring) {
  EXPECT_FALSE(fault_plan_active());
  EXPECT_EQ(fault_at("live_writer.fsync"), nullptr);
}

TEST_F(FaultTest, AfterAndMaxFiresGateFiring) {
  FaultPlan plan(7);
  FaultSpec s = spec("site.x", FaultAction::kFail);
  s.after = 2;
  s.max_fires = 3;
  plan.add(s);
  FaultScope scope(plan);
  EXPECT_TRUE(fault_plan_active());

  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (fault_at("site.x") != nullptr) ++fired;
  }
  EXPECT_EQ(fired, 3);  // hits 3, 4, 5 fire; then disarmed
  EXPECT_EQ(plan.hits("site.x"), 10u);
  EXPECT_EQ(plan.fires("site.x"), 3u);
  EXPECT_EQ(plan.total_fires(), 3u);
  EXPECT_EQ(plan.hits("site.never"), 0u);
}

TEST_F(FaultTest, ProbabilityIsSeededAndBounded) {
  FaultPlan plan(42);
  FaultSpec s = spec("site.p", FaultAction::kFail);
  s.probability = 0.5;
  plan.add(s);
  FaultScope scope(plan);
  for (int i = 0; i < 1000; ++i) (void)fault_at("site.p");
  EXPECT_EQ(plan.hits("site.p"), 1000u);
  // Seeded coin: not all, not none, and stable enough to bound loosely.
  EXPECT_GT(plan.fires("site.p"), 300u);
  EXPECT_LT(plan.fires("site.p"), 700u);
}

// --- run_io read-side sites --------------------------------------------------

TEST_F(FaultTest, MmapFaultSurfacesAsError) {
  write_file(path_, make_minimal_run(4));
  FaultPlan plan(1);
  plan.add(spec("run_io.mmap", FaultAction::kFail));
  FaultScope scope(plan);
  try {
    (void)evstore::open_run(path_);
    FAIL() << "injected mmap failure did not surface";
  } catch (const Error&) {
    // clean classified error — the contract
  }
  EXPECT_GE(plan.fires("run_io.mmap"), 1u);
}

// --- live_writer sites -------------------------------------------------------

TEST_F(FaultTest, WriterOpenFaultSurfacesAsError) {
  FaultPlan plan(1);
  plan.add(spec("live_writer.open", FaultAction::kFail));
  FaultScope scope(plan);
  EXPECT_THROW(evstore::LiveRunWriter w(path_), Error);
  EXPECT_GE(plan.fires("live_writer.open"), 1u);
}

TEST_F(FaultTest, FsyncFaultFailsCheckpointButLeavesFileReadable) {
  const evstore::TraceRun run = sample_run(32);
  evstore::LiveRunWriter::Options opts;
  opts.fsync_checkpoints = true;
  {
    evstore::LiveRunWriter w(path_, opts);
    FaultPlan plan(1);
    plan.add(spec("live_writer.fsync", FaultAction::kFail));
    FaultScope scope(plan);
    EXPECT_THROW(w.checkpoint(run, /*force=*/true), Error);
    EXPECT_GE(plan.fires("live_writer.fsync"), 1u);
  }
  // The destructor closes without finalizing; whatever reached the file
  // must load as a classified state, not corrupt.
  evstore::RunFileInfo info;
  const evstore::TraceRun back =
      evstore::open_run(path_, evstore::ReadMode::kAuto, &info);
  EXPECT_FALSE(info.finalized);
  EXPECT_LE(back.store->size(), 32u);
}

TEST_F(FaultTest, ShortChunkWriteLeavesPriorCheckpointReadable) {
  const evstore::TraceRun run = sample_run(64);
  evstore::LiveRunWriter::Options opts;
  opts.fsync_checkpoints = false;
  evstore::LiveRunWriter w(path_, opts);
  w.checkpoint(run, /*force=*/true);  // checkpoint 1: clean, 64 events

  // More events, then a chunk write that tears after 7 bytes.
  evstore::TraceRun more = sample_run(64);
  for (std::uint64_t i = 0; i < 16; ++i) {
    evstore::Event e;
    e.kind = evstore::EventKind::kOp;
    e.op_index = 64 + i;
    more.store->append(e);
  }
  {
    FaultPlan plan(1);
    plan.add(spec("live_writer.write.chunk", FaultAction::kShortWrite, 7));
    FaultScope scope(plan);
    EXPECT_THROW(w.checkpoint(more, /*force=*/true), Error);
    EXPECT_GE(plan.fires("live_writer.write.chunk"), 1u);
  }

  // Checkpointed-prefix guarantee: chunk 1 stays fully readable; the
  // torn second chunk is classified as an incomplete tail, not an error.
  evstore::RunFileInfo info;
  const evstore::TraceRun back =
      evstore::open_run(path_, evstore::ReadMode::kAuto, &info);
  EXPECT_FALSE(info.clean);
  EXPECT_EQ(info.chunks, 1u);
  EXPECT_EQ(back.store->size(), 64u);
}

// Satellite 3, ordering A: the crash lands after the chunk is flushed
// but before a single footer byte is rewritten.
TEST_F(FaultTest, TornFooterBeforeWriteKeepsAllChunksReadable) {
  const evstore::TraceRun run = sample_run(48);
  evstore::LiveRunWriter::Options opts;
  opts.fsync_checkpoints = false;
  evstore::LiveRunWriter w(path_, opts);
  w.checkpoint(run, /*force=*/true);

  evstore::TraceRun more = sample_run(48);
  for (std::uint64_t i = 0; i < 16; ++i) {
    evstore::Event e;
    e.kind = evstore::EventKind::kSyncSite;
    e.op_index = 48 + i;
    more.store->append(e);
  }
  {
    FaultPlan plan(1);
    plan.add(spec("live_writer.footer.before", FaultAction::kFail));
    FaultScope scope(plan);
    EXPECT_THROW(w.checkpoint(more, /*force=*/true), Error);
    EXPECT_GE(plan.fires("live_writer.footer.before"), 1u);
  }

  evstore::RunFileInfo info;
  const evstore::TraceRun back =
      evstore::open_run(path_, evstore::ReadMode::kAuto, &info);
  // Both chunks were flushed; only the footer is missing, so the file
  // reads as a torn (non-clean) prefix containing every event.
  EXPECT_FALSE(info.clean);
  EXPECT_EQ(info.chunks, 2u);
  EXPECT_EQ(back.store->size(), 64u);
  EXPECT_EQ(info.dropped_before_checkpoint, 0u);
}

// Satellite 3, ordering B: the crash lands mid footer write — a few
// footer bytes reach the disk, then nothing.
TEST_F(FaultTest, TornFooterMidWriteKeepsAllChunksReadable) {
  const evstore::TraceRun run = sample_run(48);
  evstore::LiveRunWriter::Options opts;
  opts.fsync_checkpoints = false;
  evstore::LiveRunWriter w(path_, opts);
  w.checkpoint(run, /*force=*/true);

  evstore::TraceRun more = sample_run(48);
  for (std::uint64_t i = 0; i < 16; ++i) {
    evstore::Event e;
    e.kind = evstore::EventKind::kDuplicateTransfer;
    e.op_index = 48 + i;
    more.store->append(e);
  }
  {
    FaultPlan plan(1);
    plan.add(spec("live_writer.footer.torn", FaultAction::kShortWrite, 10));
    FaultScope scope(plan);
    EXPECT_THROW(w.checkpoint(more, /*force=*/true), Error);
    EXPECT_GE(plan.fires("live_writer.footer.torn"), 1u);
  }

  evstore::RunFileInfo info;
  const evstore::TraceRun back =
      evstore::open_run(path_, evstore::ReadMode::kAuto, &info);
  EXPECT_FALSE(info.clean);
  EXPECT_EQ(info.chunks, 2u);
  EXPECT_EQ(back.store->size(), 64u);
}

// The one-shot save runs through the same writer, so its fault sites
// leave the same classified prefixes. Three chunks: the save layout
// writes each one as a single blob.
TEST_F(FaultTest, OneShotSaveShortChunkWriteKeepsEarlierChunks) {
  const evstore::TraceRun run = sample_run(2 * evstore::kSegmentRows + 100);
  {
    FaultPlan plan(1);
    FaultSpec s = spec("live_writer.write.chunk", FaultAction::kShortWrite);
    s.after = 1;  // chunk 0 lands whole, chunk 1 tears
    plan.add(s);
    FaultScope scope(plan);
    EXPECT_THROW(evstore::save_run(path_, run), Error);
    EXPECT_EQ(plan.fires("live_writer.write.chunk"), 1u);
  }
  evstore::RunFileInfo info;
  const evstore::TraceRun back =
      evstore::open_run(path_, evstore::ReadMode::kAuto, &info);
  EXPECT_FALSE(info.clean);
  EXPECT_EQ(info.chunks, 1u);
  EXPECT_EQ(back.store->size(), evstore::kSegmentRows);
}

TEST_F(FaultTest, OneShotSaveTornFooterKeepsAllChunks) {
  const evstore::TraceRun run = sample_run(2 * evstore::kSegmentRows + 100);
  {
    FaultPlan plan(1);
    plan.add(spec("live_writer.footer.torn", FaultAction::kShortWrite, 10));
    FaultScope scope(plan);
    EXPECT_THROW(evstore::save_run(path_, run), Error);
    EXPECT_GE(plan.fires("live_writer.footer.torn"), 1u);
  }
  evstore::RunFileInfo info;
  const evstore::TraceRun back =
      evstore::open_run(path_, evstore::ReadMode::kAuto, &info);
  EXPECT_FALSE(info.clean);
  EXPECT_EQ(info.chunks, 3u);
  EXPECT_EQ(back.store->size(), 2 * evstore::kSegmentRows + 100);
}

// --- event_store site --------------------------------------------------------

TEST_F(FaultTest, SegmentAllocFaultLeavesStoreConsistent) {
  evstore::EventStore store;
  evstore::Event e;
  e.kind = evstore::EventKind::kOp;
  {
    FaultPlan plan(1);
    FaultSpec s = spec("event_store.segment_alloc", FaultAction::kBadAlloc);
    s.max_fires = 1;
    plan.add(s);
    FaultScope scope(plan);
    EXPECT_THROW(store.append(e), std::bad_alloc);
    EXPECT_EQ(plan.fires("event_store.segment_alloc"), 1u);
  }
  // The failed append changed nothing: the store still works, columns
  // and counters agree.
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.count_of(evstore::EventKind::kOp), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) store.append(e);
  EXPECT_EQ(store.size(), 100u);
  EXPECT_EQ(store.count_of(evstore::EventKind::kOp), 100u);
  EXPECT_EQ(store.event(99).kind, evstore::EventKind::kOp);
}

TEST_F(FaultTest, SegmentAllocFailActionThrowsError) {
  evstore::EventStore store;
  evstore::Event e;
  e.kind = evstore::EventKind::kOp;
  FaultPlan plan(1);
  FaultSpec s = spec("event_store.segment_alloc", FaultAction::kFail);
  s.max_fires = 1;
  plan.add(s);
  FaultScope scope(plan);
  EXPECT_THROW(store.append(e), Error);
  EXPECT_EQ(store.size(), 0u);
}

// --- gpusim clock-skew site --------------------------------------------------

TEST_F(FaultTest, ClockSkewAdvancesTimeAndFires) {
  gpusim::Runtime rt{gpusim::DeviceConfig{}};
  gpusim::RuntimeScope scope_rt(rt);
  FaultPlan plan(1);
  FaultSpec s = spec("gpusim.clock.skew", FaultAction::kClockSkew, 5000);
  s.max_fires = 3;
  plan.add(s);
  FaultScope scope(plan);

  void* dev = nullptr;
  ASSERT_EQ(gpusim::cudaMalloc(&dev, 4096), gpusim::cudaError_t::cudaSuccess);
  ASSERT_EQ(gpusim::cudaFree(dev), gpusim::cudaError_t::cudaSuccess);
  (void)gpusim::cudaDeviceSynchronize();
  (void)gpusim::cudaDeviceSynchronize();

  EXPECT_EQ(plan.fires("gpusim.clock.skew"), 3u);
  // Skew is absorbed as forward time, never a negative interval.
  EXPECT_GE(rt.clock().now().count(), 3 * 5000);
}

// End to end: a skewed collection still produces a sane analysis — the
// benefit stays within [0, wall], which is the "never a silently wrong
// analysis" half of the contract.
TEST_F(FaultTest, ClockSkewedPipelineStillAnalyzesSanely) {
  auto out = std::make_shared<gpusim::HostBuffer<float>>(1024);
  ffm::Workload w;
  w.name = "skewed_wl";
  w.device = gpusim::DeviceConfig{};
  w.body = [out] {
    DIOG_APP_FRAME("skew_main", "skew.cu", 1);
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, out->size_bytes());
    for (int i = 0; i < 4; ++i) {
      gpusim::KernelDesc k;
      k.name = "k";
      k.duration = ms(2);
      (void)gpusim::cudaLaunchKernel(k);
      (void)gpusim::cudaMemcpy(out->data(), dev, out->size_bytes(),
                               hooks::MemcpyKind::kDeviceToHost);
    }
    (void)gpusim::cudaFree(dev);
  };

  FaultPlan plan(3);
  FaultSpec s = spec("gpusim.clock.skew", FaultAction::kClockSkew, 20'000);
  s.probability = 0.25;
  plan.add(s);
  FaultScope scope(plan);

  ffm::Diogenes tool(w, ffm::ToolConfig{});
  const ffm::AnalysisResult r = tool.analyze();
  EXPECT_GT(plan.fires("gpusim.clock.skew"), 0u);

  const Duration wall = std::max(
      {r.run.meta.s1_exec, r.run.meta.s2_exec, r.run.meta.s3_exec,
       r.run.meta.s4_exec});
  EXPECT_GE(r.benefit.total.count(), 0);
  EXPECT_LE(r.benefit.total.count(), wall.count());
  for (const auto& n : r.benefit.per_node) {
    EXPECT_GE(n.benefit.count(), 0);
    EXPECT_LE(n.benefit.count(), wall.count());
  }
}

}  // namespace
}  // namespace diog::testkit
