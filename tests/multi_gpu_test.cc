// Multi-GPU tests: the paper's Ray nodes carried four Pascal-class GPUs
// per node. Device selection, per-device streams and memory, peer
// copies, and the interaction with the tool's instrumentation.
#include <gtest/gtest.h>

#include <cstring>

#include "core/run_convert.h"
#include "core/stage1_baseline.h"
#include "core/stage2_tracing.h"
#include "eventstore/cursor.h"
#include "gpusim/api.h"
#include "gpusim/runtime.h"
#include "trace/callstack.h"

namespace gpusim {
namespace {

using diog::Duration;

DeviceConfig quad_config() {
  DeviceConfig d;
  d.device_count = 4;
  d.h2d_bandwidth_bytes_per_s = 1e9;
  d.d2h_bandwidth_bytes_per_s = 1e9;
  d.p2p_bandwidth_bytes_per_s = 4e9;
  d.transfer_latency = diog::us(10);
  d.device_memory_bytes = 4 << 20;  // small, to test capacity isolation
  return d;
}

KernelDesc kernel(Duration dur) {
  KernelDesc k;
  k.name = "k";
  k.duration = dur;
  return k;
}

class MultiGpuTest : public ::testing::Test {
 protected:
  MultiGpuTest() : rt_(quad_config()), scope_(rt_) {}
  Runtime rt_;
  RuntimeScope scope_;
};

TEST_F(MultiGpuTest, DeviceCountAndSelection) {
  int count = 0;
  ASSERT_EQ(cudaGetDeviceCount(&count), cudaSuccess);
  EXPECT_EQ(count, 4);

  int dev = -1;
  (void)cudaGetDevice(&dev);
  EXPECT_EQ(dev, 0);
  ASSERT_EQ(cudaSetDevice(3), cudaSuccess);
  (void)cudaGetDevice(&dev);
  EXPECT_EQ(dev, 3);
  EXPECT_EQ(cudaSetDevice(4), cudaError_t::cudaErrorInvalidValue);
  EXPECT_EQ(cudaSetDevice(-1), cudaError_t::cudaErrorInvalidValue);
  (void)cudaSetDevice(0);
}

TEST_F(MultiGpuTest, KernelsOnDifferentDevicesOverlap) {
  (void)cudaSetDevice(0);
  (void)cudaLaunchKernel(kernel(diog::ms(10)));
  (void)cudaSetDevice(1);
  (void)cudaLaunchKernel(kernel(diog::ms(10)));
  // Synchronize both: total well under 20 ms — the devices ran
  // concurrently.
  (void)cudaDeviceSynchronize();  // device 1
  (void)cudaSetDevice(0);
  (void)cudaDeviceSynchronize();
  EXPECT_LT(rt_.clock().now(), diog::ms(12));
}

TEST_F(MultiGpuTest, DeviceSynchronizeIsPerDevice) {
  (void)cudaSetDevice(0);
  (void)cudaLaunchKernel(kernel(diog::ms(30)));
  (void)cudaSetDevice(1);
  (void)cudaLaunchKernel(kernel(diog::ms(1)));
  (void)cudaDeviceSynchronize();  // drains only device 1
  EXPECT_LT(rt_.clock().now(), diog::ms(5));
  EXPECT_FALSE(rt_.device(0).idle());
  (void)cudaSetDevice(0);
  (void)cudaDeviceSynchronize();
  EXPECT_GE(rt_.clock().now(), diog::ms(30));
}

TEST_F(MultiGpuTest, StreamsBelongToTheirDevice) {
  (void)cudaSetDevice(0);
  StreamId s0;
  (void)cudaStreamCreate(&s0);
  (void)cudaSetDevice(1);
  StreamId s1;
  (void)cudaStreamCreate(&s1);
  EXPECT_NE(s0, s1);  // globally unique ids
  // Using device 0's stream while device 1 is current fails.
  EXPECT_EQ(cudaLaunchKernel(kernel(diog::us(10)), s0),
            cudaError_t::cudaErrorInvalidResourceHandle);
  EXPECT_EQ(cudaLaunchKernel(kernel(diog::us(10)), s1), cudaSuccess);
  (void)cudaDeviceSynchronize();
  (void)cudaStreamDestroy(s1);
  (void)cudaSetDevice(0);
  (void)cudaStreamDestroy(s0);
}

TEST_F(MultiGpuTest, PerDeviceMemoryCapacity) {
  (void)cudaSetDevice(0);
  void* a = nullptr;
  ASSERT_EQ(cudaMalloc(&a, 3 << 20), cudaSuccess);  // 3 of 4 MiB on dev 0

  // Device 0 is nearly full...
  void* b = nullptr;
  EXPECT_EQ(cudaMalloc(&b, 2 << 20),
            cudaError_t::cudaErrorMemoryAllocation);
  // ...but device 1's capacity is untouched.
  (void)cudaSetDevice(1);
  ASSERT_EQ(cudaMalloc(&b, 2 << 20), cudaSuccess);
  EXPECT_EQ(rt_.memory().device_bytes_in_use(0), 3u << 20);
  EXPECT_EQ(rt_.memory().device_bytes_in_use(1), 2u << 20);

  std::size_t free_bytes = 0, total = 0;
  (void)cudaMemGetInfo(&free_bytes, &total);  // current device = 1
  EXPECT_EQ(total - free_bytes, 2u << 20);

  (void)cudaFree(b);
  (void)cudaSetDevice(0);
  (void)cudaFree(a);
}

TEST_F(MultiGpuTest, MemcpyPeerMovesBytes) {
  (void)cudaSetDevice(0);
  void* src = nullptr;
  (void)cudaMalloc(&src, 256);
  (void)cudaSetDevice(1);
  void* dst = nullptr;
  (void)cudaMalloc(&dst, 256);

  std::memcpy(src, "peer-to-peer payload", 21);
  ASSERT_EQ(cudaMemcpyPeer(dst, 1, src, 0, 256), cudaSuccess);
  EXPECT_EQ(std::memcmp(dst, "peer-to-peer payload", 21), 0);

  (void)cudaFree(dst);
  (void)cudaSetDevice(0);
  (void)cudaFree(src);
}

TEST_F(MultiGpuTest, PeerAccessSpeedsUpPeerCopies) {
  const std::size_t bytes = 2 << 20;  // 2 MiB
  (void)cudaSetDevice(0);
  void* src = nullptr;
  (void)cudaMalloc(&src, bytes);
  (void)cudaSetDevice(1);
  void* dst = nullptr;
  (void)cudaMalloc(&dst, bytes);

  // Without peer access: staged through the host (two 1 GB/s crossings
  // ~= 4 ms).
  Duration before = rt_.clock().now();
  (void)cudaMemcpyPeer(dst, 1, src, 0, bytes);
  const Duration staged = rt_.clock().now() - before;
  EXPECT_GE(staged, diog::ms(4));

  // With peer access from device 0 to 1: the 4 GB/s fabric (~0.5 ms).
  (void)cudaSetDevice(0);
  ASSERT_EQ(cudaDeviceEnablePeerAccess(1), cudaSuccess);
  before = rt_.clock().now();
  (void)cudaMemcpyPeer(dst, 1, src, 0, bytes);
  const Duration p2p = rt_.clock().now() - before;
  EXPECT_LT(p2p, staged / 4);

  (void)cudaDeviceDisablePeerAccess(1);
  before = rt_.clock().now();
  (void)cudaMemcpyPeer(dst, 1, src, 0, bytes);
  EXPECT_GE(rt_.clock().now() - before, diog::ms(4));  // staged again

  (void)cudaFree(src);
  (void)cudaSetDevice(1);
  (void)cudaFree(dst);
}

TEST_F(MultiGpuTest, PeerValidation) {
  EXPECT_EQ(cudaDeviceEnablePeerAccess(0),  // self
            cudaError_t::cudaErrorInvalidValue);
  EXPECT_EQ(cudaDeviceEnablePeerAccess(9),
            cudaError_t::cudaErrorInvalidValue);
  void* dev = nullptr;
  (void)cudaMalloc(&dev, 64);
  char host[64];
  // Wrong device index for the pointer.
  EXPECT_EQ(cudaMemcpyPeer(dev, 1, dev, 0, 64),
            cudaError_t::cudaErrorInvalidDevicePointer);
  // Host pointers are rejected.
  EXPECT_EQ(cudaMemcpyPeer(host, 0, dev, 0, 64),
            cudaError_t::cudaErrorInvalidDevicePointer);
  (void)cudaFree(dev);
}

TEST_F(MultiGpuTest, FreeOfPeerDeviceAllocationWorks) {
  (void)cudaSetDevice(2);
  void* dev = nullptr;
  (void)cudaMalloc(&dev, 1024);
  (void)cudaSetDevice(0);
  // CUDA permits freeing from another device context.
  EXPECT_EQ(cudaFree(dev), cudaSuccess);
  EXPECT_EQ(rt_.memory().device_bytes_in_use(2), 0u);
}

// The tool keeps working on multi-GPU workloads: hidden syncs on any
// device flow through each device's wait funnel.
TEST(MultiGpuTool, StagesSeeMultiDeviceSyncs) {
  diog::ffm::Workload w;
  w.name = "multi_gpu_app";
  w.device = quad_config();
  w.body = [] {
    DIOG_APP_FRAME("mg_main", "mg.cu", 1);
    for (int d = 0; d < 2; ++d) {
      (void)cudaSetDevice(d);
      KernelDesc k;
      k.name = "k";
      k.duration = diog::ms(2);
      (void)cudaLaunchKernel(k);
      void* tmp = nullptr;
      (void)cudaMalloc(&tmp, 64);
      (void)cudaFree(tmp);  // hidden sync on device d
    }
    (void)cudaSetDevice(0);
  };

  const diog::ffm::ToolConfig cfg;
  const auto s1 = diog::ffm::run_stage1(w, cfg);
  bool free_site = false;
  for (const auto& site : s1.sync_sites) {
    if (site.api == diog::hooks::Fn::kCudaFree) free_site = true;
  }
  EXPECT_TRUE(free_site);

  diog::evstore::TraceRun run;
  diog::ffm::append_stage1(run, s1);
  diog::ffm::collect_stage2(w, cfg, s1, run);
  std::size_t free_syncs = 0;
  diog::evstore::ops(*run.store).for_each([&](const diog::evstore::Event& e) {
    if (e.fn() == diog::hooks::Fn::kCudaFree && e.aux_time > 0) ++free_syncs;
  });
  EXPECT_EQ(free_syncs, 2u);  // one hidden sync per device
}

}  // namespace
}  // namespace gpusim
