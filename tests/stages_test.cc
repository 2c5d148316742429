// Tests for the four collection stages on purpose-built synthetic
// workloads whose ground truth is known by construction.
#include <gtest/gtest.h>

#include "core/run_convert.h"
#include "core/stage1_baseline.h"
#include "core/stage2_tracing.h"
#include "core/stage3_memhash.h"
#include "core/stage4_syncuse.h"
#include "gpusim/api.h"
#include "gpusim/host_buffer.h"
#include "gpusim/private_api.h"
#include "trace/callstack.h"

namespace diog::ffm {
namespace {

using gpusim::HostBuffer;
using gpusim::KernelDesc;
using hooks::Fn;
using hooks::MemcpyKind;

Workload make_workload(std::string name, std::function<void()> body) {
  Workload w;
  w.name = std::move(name);
  w.device = gpusim::DeviceConfig{};
  w.body = std::move(body);
  return w;
}

// A run holding stage 1's product, as Diogenes::analyze starts one.
evstore::TraceRun stage1_run(const Workload& w, const ToolConfig& cfg) {
  evstore::TraceRun run;
  append_stage1(run, run_stage1(w, cfg));
  return run;
}

Stage2Result collect_stage2_view(const Workload& w, const ToolConfig& cfg) {
  evstore::TraceRun run = stage1_run(w, cfg);
  collect_stage2(w, cfg, stage1_view(run), run);
  return stage2_view(run);
}

Stage3Result collect_stage3_view(const Workload& w, const ToolConfig& cfg) {
  evstore::TraceRun run = stage1_run(w, cfg);
  collect_stage3(w, cfg, run);
  return stage3_view(run);
}

Stage4Result collect_stage4_view(const Workload& w, const ToolConfig& cfg) {
  evstore::TraceRun run = stage1_run(w, cfg);
  collect_stage4(w, cfg, run);
  return stage4_view(run);
}

// --- Stage 1: discovery --------------------------------------------------------

TEST(Stage1Discovery, FindsTheWaitFunnelByProbing) {
  EXPECT_EQ(discover_wait_fn(gpusim::DeviceConfig{}),
            Fn::kInternalWaitForStream);
}

TEST(Stage1Discovery, RepeatableAcrossConfigs) {
  gpusim::DeviceConfig d;
  d.probe_watchdog = secs(0.25);
  EXPECT_EQ(discover_wait_fn(d), Fn::kInternalWaitForStream);
}

// --- Stage 1: baseline measurement ------------------------------------------------

TEST(Stage1Baseline, RecordsExecTimeAndSyncSites) {
  const Workload w = make_workload("s1", [] {
    DIOG_APP_FRAME("main", "app.cc", 10);
    KernelDesc k;
    k.name = "k";
    k.duration = ms(5);
    (void)gpusim::cudaLaunchKernel(k);
    {
      DIOG_APP_FRAME("solve", "app.cc", 20);
      (void)gpusim::cudaDeviceSynchronize();
    }
    gpusim::cpu_work(ms(3));
  });

  const Stage1Result r = run_stage1(w, ToolConfig{});
  EXPECT_EQ(r.wait_fn, Fn::kInternalWaitForStream);
  EXPECT_GE(r.exec_time, ms(8));
  ASSERT_EQ(r.sync_sites.size(), 1u);
  EXPECT_EQ(r.sync_sites[0].api, Fn::kCudaDeviceSynchronize);
  EXPECT_EQ(r.sync_sites[0].hits, 1u);
  EXPECT_EQ(r.sync_sites[0].stack.leaf()->function, "solve");
}

TEST(Stage1Baseline, SeesHiddenSyncSites) {
  const Workload w = make_workload("s1_hidden", [] {
    DIOG_APP_FRAME("main", "app.cc", 10);
    KernelDesc k;
    k.name = "k";
    k.duration = ms(5);
    (void)gpusim::cudaLaunchKernel(k);
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, 64);
    (void)gpusim::cudaFree(dev);  // implicit sync, invisible to CUPTI
  });

  const Stage1Result r = run_stage1(w, ToolConfig{});
  ASSERT_EQ(r.sync_sites.size(), 1u);
  EXPECT_EQ(r.sync_sites[0].api, Fn::kCudaFree);
}

TEST(Stage1Baseline, SeesPrivateApiSyncs) {
  const Workload w = make_workload("s1_priv", [] {
    KernelDesc k;
    k.name = "k";
    k.duration = ms(5);
    (void)gpusim::cudaLaunchKernel(k);
    gpusim::priv::cuPrivSync();
  });
  const Stage1Result r = run_stage1(w, ToolConfig{});
  ASSERT_EQ(r.sync_sites.size(), 1u);
  EXPECT_EQ(r.sync_sites[0].api, Fn::kPrivSync);
}

TEST(Stage1Baseline, DedupsRepeatedSitesByStack) {
  const Workload w = make_workload("s1_loop", [] {
    DIOG_APP_FRAME("main", "app.cc", 10);
    for (int i = 0; i < 10; ++i) {
      KernelDesc k;
      k.name = "k";
      k.duration = us(100);
      (void)gpusim::cudaLaunchKernel(k);
      DIOG_APP_FRAME("loop_sync", "app.cc", 30);
      (void)gpusim::cudaDeviceSynchronize();
    }
  });
  const Stage1Result r = run_stage1(w, ToolConfig{});
  ASSERT_EQ(r.sync_sites.size(), 1u);
  EXPECT_EQ(r.sync_sites[0].hits, 10u);
}

TEST(Stage1Baseline, TracedFnsIncludeSitesTransfersAndExplicitSyncs) {
  Stage1Result r;
  r.sync_sites.push_back(SyncSite{Fn::kCudaFree, {}, 3});
  const auto fns = r.traced_fns();
  const auto has = [&](Fn f) {
    return std::find(fns.begin(), fns.end(), f) != fns.end();
  };
  EXPECT_TRUE(has(Fn::kCudaFree));            // from the site list
  EXPECT_TRUE(has(Fn::kCudaMemcpy));          // documented transfer fn
  EXPECT_TRUE(has(Fn::kCudaMemcpyAsync));
  EXPECT_TRUE(has(Fn::kPrivMemcpyDtoH));
  EXPECT_TRUE(has(Fn::kCudaDeviceSynchronize));  // explicit sync
  EXPECT_FALSE(has(Fn::kCudaMalloc));         // never traced
  EXPECT_FALSE(has(Fn::kCudaLaunchKernel));
}

// --- Stage 2: detailed tracing ------------------------------------------------------

TEST(Stage2, TracesSyncAndTransferOpsWithTiming) {
  const Workload w = make_workload("s2", [] {
    DIOG_APP_FRAME("main", "app.cc", 10);
    KernelDesc k;
    k.name = "k";
    k.duration = ms(4);
    (void)gpusim::cudaLaunchKernel(k);
    (void)gpusim::cudaDeviceSynchronize();
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, 1 << 20);
    HostBuffer<char> host(1 << 20);
    (void)gpusim::cudaMemcpy(dev, host.data(), 1 << 20,
                             MemcpyKind::kHostToDevice);
    (void)gpusim::cudaFree(dev);
  });

  const ToolConfig cfg;
  const Stage2Result s2 = collect_stage2_view(w, cfg);

  // deviceSync + memcpy + free are traced; malloc and launch are not.
  ASSERT_EQ(s2.ops.size(), 3u);
  EXPECT_EQ(s2.ops[0].api, Fn::kCudaDeviceSynchronize);
  EXPECT_TRUE(s2.ops[0].performed_sync);
  EXPECT_GE(s2.ops[0].sync_wait, ms(3));

  EXPECT_EQ(s2.ops[1].api, Fn::kCudaMemcpy);
  EXPECT_TRUE(s2.ops[1].performed_transfer);
  EXPECT_EQ(s2.ops[1].bytes, 1u << 20);
  EXPECT_EQ(s2.ops[1].direction, MemcpyKind::kHostToDevice);

  EXPECT_EQ(s2.ops[2].api, Fn::kCudaFree);
  // Indices are sequential and times ordered.
  for (std::size_t i = 0; i < s2.ops.size(); ++i) {
    EXPECT_EQ(s2.ops[i].index, i);
    EXPECT_LE(s2.ops[i].t_enter, s2.ops[i].t_exit);
  }
}

TEST(Stage2, StacksAttributeToAppFrames) {
  const Workload w = make_workload("s2_stack", [] {
    DIOG_APP_FRAME("outer", "app.cc", 5);
    KernelDesc k;
    k.name = "k";
    k.duration = us(100);
    (void)gpusim::cudaLaunchKernel(k);
    DIOG_APP_FRAME("inner", "app.cc", 42);
    (void)gpusim::cudaDeviceSynchronize();
  });
  const ToolConfig cfg;
  const Stage2Result s2 = collect_stage2_view(w, cfg);
  ASSERT_EQ(s2.ops.size(), 1u);
  EXPECT_EQ(s2.ops[0].stack.leaf()->function, "inner");
  EXPECT_EQ(s2.ops[0].stack.leaf()->line, 42);
}

// --- Stage 3: sync classification + dedup --------------------------------------------

// Workload A: a sync protecting data the CPU reads -> required.
// Workload B: a sync protecting nothing -> unnecessary.
struct SyncUseWorkload {
  bool read_data;
  std::shared_ptr<HostBuffer<float>> out =
      std::make_shared<HostBuffer<float>>(1024);

  void operator()() const {
    DIOG_APP_FRAME("main", "app.cc", 1);
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, out->size_bytes());
    KernelDesc k;
    k.name = "producer";
    k.duration = ms(2);
    k.body = [dev] { static_cast<float*>(dev)[0] = 3.25f; };
    (void)gpusim::cudaLaunchKernel(k);
    (void)gpusim::cudaMemcpy(out->data(), dev, out->size_bytes(),
                             MemcpyKind::kDeviceToHost);
    gpusim::cpu_work(ms(1));
    if (read_data) {
      DIOG_APP_FRAME("consume", "app.cc", 77);
      volatile float v = (*out)[0];
      (void)v;
    }
    (void)gpusim::cudaFree(dev);
  }
};

TEST(Stage3, SyncProtectingReadDataIsRequired) {
  const Workload w = make_workload("s3_req", SyncUseWorkload{true});
  const ToolConfig cfg;
  const Stage3Result s3 = collect_stage3_view(w, cfg);

  // Find the memcpy op's classification (op 0 = the D2H memcpy).
  bool found_required = false;
  for (const SyncClassification& c : s3.syncs) {
    if (c.required) {
      found_required = true;
      EXPECT_EQ(c.access_stack.leaf()->function, "consume");
      EXPECT_EQ(c.access_stack.leaf()->line, 77);
    }
  }
  EXPECT_TRUE(found_required);
}

TEST(Stage3, SyncProtectingNothingIsUnnecessary) {
  const Workload w = make_workload("s3_unnec", SyncUseWorkload{false});
  const ToolConfig cfg;
  const Stage3Result s3 = collect_stage3_view(w, cfg);
  for (const SyncClassification& c : s3.syncs) {
    EXPECT_FALSE(c.required);
  }
  EXPECT_FALSE(s3.syncs.empty());
}

TEST(Stage3, DuplicateTransfersDetectedWithFirstSite) {
  auto tile = std::make_shared<HostBuffer<float>>(4096);
  (*tile)[7] = 1.5f;
  const Workload w = make_workload("s3_dup", [tile] {
    DIOG_APP_FRAME("main", "app.cc", 1);
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, tile->size_bytes());
    for (int i = 0; i < 3; ++i) {
      (void)gpusim::cudaMemcpy(dev, tile->data(), tile->size_bytes(),
                               MemcpyKind::kHostToDevice);
    }
    (void)gpusim::cudaFree(dev);
  });
  const ToolConfig cfg;
  const Stage3Result s3 = collect_stage3_view(w, cfg);

  ASSERT_EQ(s3.duplicate_transfers.size(), 2u);
  EXPECT_EQ(s3.duplicate_transfers[0].first_op_index, 0u);
  EXPECT_EQ(s3.duplicate_transfers[0].op_index, 1u);
  EXPECT_EQ(s3.duplicate_transfers[1].op_index, 2u);
  EXPECT_EQ(s3.duplicate_transfers[0].bytes, tile->size_bytes());
  EXPECT_EQ(s3.transfers_hashed, 3u);
  EXPECT_EQ(s3.bytes_hashed, 3 * tile->size_bytes());
}

TEST(Stage3, ChangingContentIsNotDuplicate) {
  auto tile = std::make_shared<HostBuffer<float>>(4096);
  const Workload w = make_workload("s3_fresh", [tile] {
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, tile->size_bytes());
    for (int i = 0; i < 3; ++i) {
      (*tile)[0] = static_cast<float>(i);
      (void)gpusim::cudaMemcpy(dev, tile->data(), tile->size_bytes(),
                               MemcpyKind::kHostToDevice);
    }
    (void)gpusim::cudaFree(dev);
  });
  const ToolConfig cfg;
  const Stage3Result s3 = collect_stage3_view(w, cfg);
  EXPECT_TRUE(s3.duplicate_transfers.empty());
}

TEST(Stage3, ManagedMemoryIsABlindSpot) {
  // Kernel writes to managed memory are deliberately untracked (§5.3
  // parity): the memset-style sync on managed data classifies as
  // unnecessary even though the CPU touches the buffer afterwards.
  const Workload w = make_workload("s3_managed", [] {
    void* managed = nullptr;
    (void)gpusim::cudaMallocManaged(&managed, 4096);
    KernelDesc k;
    k.name = "k";
    k.duration = ms(2);
    (void)gpusim::cudaLaunchKernel(k);
    (void)gpusim::cudaMemset(managed, 0, 4096);  // conditional sync
    static_cast<char*>(managed)[0] = 1;          // CPU touch
    (void)gpusim::cudaFree(managed);
  });
  const ToolConfig cfg;
  const Stage3Result s3 = collect_stage3_view(w, cfg);
  for (const SyncClassification& c : s3.syncs) {
    EXPECT_FALSE(c.required);
  }
}

// --- Stage 4: sync-use timing ----------------------------------------------------------

TEST(Stage4, MeasuresFirstUseGap) {
  auto out = std::make_shared<HostBuffer<float>>(1024);
  const Workload w = make_workload("s4", [out] {
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, out->size_bytes());
    KernelDesc k;
    k.name = "k";
    k.duration = ms(2);
    (void)gpusim::cudaLaunchKernel(k);
    (void)gpusim::cudaMemcpy(out->data(), dev, out->size_bytes(),
                             MemcpyKind::kDeviceToHost);
    gpusim::cpu_work(ms(5));  // the data sits unused for 5 ms...
    volatile float v = (*out)[0];
    (void)v;
    (void)gpusim::cudaFree(dev);
  });
  const ToolConfig cfg;
  const Stage4Result s4 = collect_stage4_view(w, cfg);
  ASSERT_EQ(s4.uses.size(), 1u);
  // The gap reflects the 5 ms idle period (dilated by the stage's light
  // instrumentation factor).
  EXPECT_GE(s4.uses[0].first_use_time, ms(5));
  EXPECT_LE(s4.uses[0].first_use_time, ms(9));
}

TEST(Stage4, OnlyRequiredSyncsReported) {
  const Workload w = make_workload("s4_none", [] {
    KernelDesc k;
    k.name = "k";
    k.duration = ms(1);
    (void)gpusim::cudaLaunchKernel(k);
    (void)gpusim::cudaDeviceSynchronize();  // protects nothing
  });
  const ToolConfig cfg;
  const Stage4Result s4 = collect_stage4_view(w, cfg);
  EXPECT_TRUE(s4.uses.empty());
}

TEST(Stages, OpIndicesAlignAcrossRuns) {
  // The pipeline's join key: the k-th traced op must denote the same
  // operation in stages 2 and 3.
  auto tile = std::make_shared<HostBuffer<float>>(1024);
  const Workload w = make_workload("align", [tile] {
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, tile->size_bytes());
    KernelDesc k;
    k.name = "k";
    k.duration = us(200);
    for (int i = 0; i < 4; ++i) {
      (void)gpusim::cudaLaunchKernel(k);
      (void)gpusim::cudaMemcpy(dev, tile->data(), tile->size_bytes(),
                               MemcpyKind::kHostToDevice);
      (void)gpusim::cudaDeviceSynchronize();
    }
    (void)gpusim::cudaFree(dev);
  });
  const ToolConfig cfg;
  evstore::TraceRun run = stage1_run(w, cfg);
  collect_stage2(w, cfg, stage1_view(run), run);
  collect_stage3(w, cfg, run);
  const Stage2Result s2 = stage2_view(run);
  const Stage3Result s3 = stage3_view(run);

  // Every stage-3 classification index must point at a stage-2 op that
  // performed a synchronization.
  for (const SyncClassification& c : s3.syncs) {
    ASSERT_LT(c.op_index, s2.ops.size());
    EXPECT_TRUE(s2.ops[c.op_index].performed_sync);
  }
  // Every duplicate index must point at a transfer op.
  for (const DuplicateTransfer& d : s3.duplicate_transfers) {
    ASSERT_LT(d.op_index, s2.ops.size());
    EXPECT_TRUE(s2.ops[d.op_index].performed_transfer);
  }
}

}  // namespace
}  // namespace diog::ffm
