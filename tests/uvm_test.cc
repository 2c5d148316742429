// Tests of the unified-memory migration model (runtime side) and the
// §5.3-extension analysis (tool side).
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "core/uvm_analysis.h"
#include "gpusim/api.h"
#include "gpusim/runtime.h"
#include "trace/callstack.h"

namespace diog::ffm {
namespace {

using gpusim::Allocation;
using gpusim::KernelDesc;

gpusim::DeviceConfig uvm_config() {
  gpusim::DeviceConfig d;
  d.model_managed_migration = true;
  d.uvm_bandwidth_bytes_per_s = 1e9;  // 1 MB -> 1 ms, easy arithmetic
  d.uvm_fault_latency = us(25);
  return d;
}

// --- Runtime-side migration model ------------------------------------------

TEST(UvmRuntime, ManagedStartsCpuResident) {
  gpusim::Runtime rt(uvm_config());
  gpusim::RuntimeScope scope(rt);
  void* m = nullptr;
  (void)gpusim::cudaMallocManaged(&m, 1 << 20);
  const Allocation* a = rt.memory().find(m);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->residency, Allocation::Residency::kCpu);
  (void)gpusim::cudaFree(m);
}

TEST(UvmRuntime, KernelAccessMigratesToGpuWithoutCpuBlock) {
  gpusim::Runtime rt(uvm_config());
  gpusim::RuntimeScope scope(rt);
  void* m = nullptr;
  (void)gpusim::cudaMallocManaged(&m, 1 << 20);

  KernelDesc k;
  k.name = "k";
  k.duration = ms(2);
  k.managed_accesses = {m};
  const Duration before = rt.clock().now();
  (void)gpusim::cudaLaunchKernel(k);
  // The launch returned without blocking on the ~1 ms migration.
  EXPECT_LT(rt.clock().now() - before, ms(1));
  EXPECT_EQ(rt.memory().find(m)->residency, Allocation::Residency::kGpu);

  // The migration queued ahead of the kernel: total stream time ~3 ms.
  (void)gpusim::cudaDeviceSynchronize();
  EXPECT_GE(rt.clock().now(), ms(3));
  (void)gpusim::cudaFree(m);
}

TEST(UvmRuntime, CpuAccessOfGpuResidentStalls) {
  gpusim::Runtime rt(uvm_config());
  gpusim::RuntimeScope scope(rt);
  void* m = nullptr;
  (void)gpusim::cudaMallocManaged(&m, 1 << 20);
  KernelDesc k;
  k.name = "k";
  k.duration = ms(5);
  k.managed_accesses = {m};
  (void)gpusim::cudaLaunchKernel(k);

  // CPU touch: waits for the kernel AND the ~1 ms migration back.
  const Duration stall = gpusim::managed_cpu_access(m);
  EXPECT_GE(stall, ms(6));
  EXPECT_EQ(rt.memory().find(m)->residency, Allocation::Residency::kCpu);
  (void)gpusim::cudaFree(m);
}

TEST(UvmRuntime, CpuAccessOfCpuResidentIsFree) {
  gpusim::Runtime rt(uvm_config());
  gpusim::RuntimeScope scope(rt);
  void* m = nullptr;
  (void)gpusim::cudaMallocManaged(&m, 1 << 20);
  EXPECT_EQ(gpusim::managed_cpu_access(m), Duration{0});
  (void)gpusim::cudaFree(m);
}

TEST(UvmRuntime, AlreadyResidentKernelAccessNoSecondMigration) {
  gpusim::Runtime rt(uvm_config());
  gpusim::RuntimeScope scope(rt);
  void* m = nullptr;
  (void)gpusim::cudaMallocManaged(&m, 1 << 20);
  KernelDesc k;
  k.name = "k";
  k.duration = us(100);
  k.managed_accesses = {m};
  (void)gpusim::cudaLaunchKernel(k);
  (void)gpusim::cudaDeviceSynchronize();
  const Duration t1 = rt.clock().now();
  (void)gpusim::cudaLaunchKernel(k);  // already GPU-resident
  (void)gpusim::cudaDeviceSynchronize();
  // Second round: just the kernel, no ~1 ms migration.
  EXPECT_LT(rt.clock().now() - t1, us(300));
  (void)gpusim::cudaFree(m);
}

TEST(UvmRuntime, ModelOffMeansNoMigrationsAndNoStalls) {
  gpusim::DeviceConfig cfg = uvm_config();
  cfg.model_managed_migration = false;
  gpusim::Runtime rt(cfg);
  gpusim::RuntimeScope scope(rt);
  void* m = nullptr;
  (void)gpusim::cudaMallocManaged(&m, 1 << 20);
  KernelDesc k;
  k.name = "k";
  k.duration = ms(1);
  k.managed_accesses = {m};
  (void)gpusim::cudaLaunchKernel(k);
  EXPECT_EQ(gpusim::managed_cpu_access(m), Duration{0});
  (void)gpusim::cudaDeviceSynchronize();
  (void)gpusim::cudaFree(m);
}

TEST(UvmRuntime, NonManagedPointerIgnored) {
  gpusim::Runtime rt(uvm_config());
  gpusim::RuntimeScope scope(rt);
  void* dev = nullptr;
  (void)gpusim::cudaMalloc(&dev, 4096);
  EXPECT_EQ(gpusim::managed_cpu_access(dev), Duration{0});
  (void)gpusim::cudaFree(dev);
}

TEST(UvmRuntime, MemsetMovesResidencyGpu) {
  gpusim::Runtime rt(uvm_config());
  gpusim::RuntimeScope scope(rt);
  void* m = nullptr;
  (void)gpusim::cudaMallocManaged(&m, 4096);
  (void)gpusim::cudaMemset(m, 0, 4096);
  EXPECT_EQ(rt.memory().find(m)->residency, Allocation::Residency::kGpu);
  (void)gpusim::cudaFree(m);
}

// --- Tool-side analysis -------------------------------------------------------

TEST(UvmAnalysisTest, DetectsThrashingHalo) {
  apps::UvmStencilConfig cfg;
  cfg.timesteps = 20;
  const UvmAnalysis a =
      analyze_unified_memory(apps::make_uvm_stencil(cfg));

  ASSERT_FALSE(a.ranges.empty());
  // The halo thrashes: one round trip per step (first step: to-GPU only).
  const UvmRangeReport& halo = a.ranges[0];
  EXPECT_TRUE(halo.thrashing);
  EXPECT_EQ(halo.to_gpu_migrations, cfg.timesteps);
  EXPECT_EQ(halo.to_cpu_migrations, cfg.timesteps - 1);
  EXPECT_GT(halo.avoidable_stall.count(), 0);
  // The fault stack points at the halo update.
  ASSERT_NE(halo.fault_stack.leaf(), nullptr);
  EXPECT_EQ(halo.fault_stack.leaf()->function, "update_halo");

  // The grid migrates to the GPU once and faults back once at the end:
  // not thrashing, no avoidable stall.
  bool grid_seen = false;
  for (const UvmRangeReport& r : a.ranges) {
    if (r.range_addr == halo.range_addr) continue;
    grid_seen = true;
    EXPECT_FALSE(r.thrashing);
    EXPECT_EQ(r.avoidable_stall, Duration{0});
  }
  EXPECT_TRUE(grid_seen);
}

TEST(UvmAnalysisTest, EstimateMatchesActualFixWithinBand) {
  apps::UvmStencilConfig cfg;
  cfg.timesteps = 50;
  const Duration native =
      run_uninstrumented(apps::make_uvm_stencil(cfg));
  const Duration fixed =
      run_uninstrumented(apps::make_uvm_stencil(cfg, true));
  const Duration actual = native - fixed;

  const UvmAnalysis a =
      analyze_unified_memory(apps::make_uvm_stencil(cfg));
  ASSERT_GT(a.estimated_benefit.count(), 0);
  ASSERT_GT(actual.count(), 0);
  const double ratio = static_cast<double>(a.estimated_benefit.count()) /
                       static_cast<double>(actual.count());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 1.6);
}

TEST(UvmAnalysisTest, FixedVariantShowsNoThrash) {
  apps::UvmStencilConfig cfg;
  cfg.timesteps = 20;
  const UvmAnalysis a =
      analyze_unified_memory(apps::make_uvm_stencil(cfg, true));
  for (const UvmRangeReport& r : a.ranges) {
    EXPECT_FALSE(r.thrashing);
  }
  EXPECT_EQ(a.estimated_benefit, Duration{0});
}

TEST(UvmAnalysisTest, BlindWithoutMigrationModel) {
  // Baseline Diogenes parity: with the model off, the analysis sees
  // nothing — exactly the limitation §5.3 describes.
  apps::UvmStencilConfig cfg;
  cfg.timesteps = 5;
  ffm::Workload w = apps::make_uvm_stencil(cfg);
  w.device.model_managed_migration = false;
  const UvmAnalysis a = analyze_unified_memory(w);
  EXPECT_TRUE(a.migrations.empty());
  EXPECT_TRUE(a.ranges.empty());
}

TEST(UvmAnalysisTest, RenderAndJson) {
  apps::UvmStencilConfig cfg;
  cfg.timesteps = 10;
  const UvmAnalysis a =
      analyze_unified_memory(apps::make_uvm_stencil(cfg));
  const std::string text = render_uvm(a);
  EXPECT_NE(text.find("THRASHING"), std::string::npos);
  EXPECT_NE(text.find("first CPU fault at"), std::string::npos);
  // Ranges are named by first-migration order, never by heap address,
  // and equal stalls keep that order.
  EXPECT_NE(text.find("range #1 ("), std::string::npos);
  EXPECT_EQ(text.find("0x"), std::string::npos);
  for (std::size_t i = 1; i < a.ranges.size(); ++i) {
    const UvmRangeReport& prev = a.ranges[i - 1];
    const UvmRangeReport& cur = a.ranges[i];
    EXPECT_TRUE(prev.avoidable_stall > cur.avoidable_stall ||
                (prev.avoidable_stall == cur.avoidable_stall &&
                 prev.ordinal < cur.ordinal));
  }
  const json::Value v = a.to_json();
  EXPECT_GT(v.at("migration_count").as_int(), 0);
  EXPECT_GT(v.at("ranges").size(), 0u);
  EXPECT_NO_THROW((void)json::parse(v.dump()));
}

TEST(UvmAnalysisTest, StencilFixIsFaster) {
  apps::UvmStencilConfig cfg;
  cfg.timesteps = 30;
  EXPECT_LT(run_uninstrumented(apps::make_uvm_stencil(cfg, true)),
            run_uninstrumented(apps::make_uvm_stencil(cfg)));
}

}  // namespace
}  // namespace diog::ffm
