// Direct tests of the stage-3/4 memory-sync engine: guard windows,
// range lifecycle, access attribution, and hashing costs.
#include <gtest/gtest.h>

#include <memory>

#include "core/memsync_engine.h"
#include "support/error.h"
#include "gpusim/api.h"
#include "gpusim/host_buffer.h"
#include "memtrace/page_tracer.h"
#include "parallel/thread_pool.h"
#include "trace/callstack.h"

namespace diog::ffm {
namespace {

using gpusim::HostBuffer;
using gpusim::KernelDesc;
using hooks::MemcpyKind;

Stage1Result minimal_s1() {
  Stage1Result s1;
  s1.wait_fn = hooks::Fn::kInternalWaitForStream;
  // No extra sync sites: traced_fns() still covers transfers + explicit
  // syncs, enough for these tests.
  return s1;
}

TEST(MemSyncEngine, RegistersD2HDestinationsAndArmsBetweenCalls) {
  gpusim::Runtime rt;
  const ToolConfig cfg;
  MemSyncEngine engine(rt, cfg, minimal_s1(), /*hash_transfers=*/false);
  auto out = std::make_shared<HostBuffer<float>>(1024);
  {
    gpusim::RuntimeScope scope(rt);
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, out->size_bytes());
    (void)gpusim::cudaMemcpy(out->data(), dev, out->size_bytes(),
                             MemcpyKind::kDeviceToHost);
    // Between driver calls the destination range is armed.
    EXPECT_TRUE(memtrace::PageTracer::instance().armed());
    EXPECT_TRUE(memtrace::PageTracer::instance().covers(out->data()));
    (void)gpusim::cudaFree(dev);
    engine.finish();
  }
  EXPECT_FALSE(memtrace::PageTracer::instance().armed());
  EXPECT_EQ(memtrace::PageTracer::instance().range_count(), 0u);
}

TEST(MemSyncEngine, AccessAttributesToMostRecentCompletedSync) {
  gpusim::Runtime rt;
  const ToolConfig cfg;
  MemSyncEngine engine(rt, cfg, minimal_s1(), false);
  auto out = std::make_shared<HostBuffer<float>>(1024);
  {
    gpusim::RuntimeScope scope(rt);
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, out->size_bytes());
    (void)gpusim::cudaMemcpy(out->data(), dev, out->size_bytes(),
                             MemcpyKind::kDeviceToHost);  // op 0, syncs
    (void)gpusim::cudaDeviceSynchronize();                // op 1, syncs
    volatile float v = (*out)[0];  // attributed to the LATEST sync (op 1)
    (void)v;
    (void)gpusim::cudaFree(dev);
    engine.finish();
  }
  bool op1_required = false;
  for (const auto& obs : engine.syncs()) {
    if (obs.op_index == 1) {
      op1_required = obs.required;
    }
    if (obs.op_index == 0) {
      EXPECT_FALSE(obs.required);
    }
  }
  EXPECT_TRUE(op1_required);
}

TEST(MemSyncEngine, FreeingTrackedBufferForgetsRange) {
  gpusim::Runtime rt;
  const ToolConfig cfg;
  MemSyncEngine engine(rt, cfg, minimal_s1(), false);
  {
    gpusim::RuntimeScope scope(rt);
    void* dev = nullptr;
    void* pinned = nullptr;
    (void)gpusim::cudaMalloc(&dev, 4096);
    (void)gpusim::cudaMallocHost(&pinned, 4096);
    (void)gpusim::cudaMemcpy(pinned, dev, 4096, MemcpyKind::kDeviceToHost);
    EXPECT_TRUE(memtrace::PageTracer::instance().covers(pinned));
    (void)gpusim::cudaFreeHost(pinned);  // must unregister before freeing
    EXPECT_FALSE(memtrace::PageTracer::instance().covers(pinned));
    (void)gpusim::cudaFree(dev);
    engine.finish();
  }
}

TEST(MemSyncEngine, HashedUploadOfUntouchedD2HDestinationRecordsNothing) {
  // A 4 MiB view is hashed in blocks on pool workers; its protected range
  // must be lifted on the calling thread, inside the driver window.
  const std::size_t saved_threads = par::threads_override();
  par::set_threads(4);
  gpusim::Runtime rt;
  const ToolConfig cfg;
  MemSyncEngine engine(rt, cfg, minimal_s1(), /*hash_transfers=*/true);
  auto buf = std::make_shared<HostBuffer<float>>(1 << 20);
  {
    gpusim::RuntimeScope scope(rt);
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, buf->size_bytes());
    (void)gpusim::cudaMemcpy(buf->data(), dev, buf->size_bytes(),
                             MemcpyKind::kDeviceToHost);
    EXPECT_TRUE(memtrace::PageTracer::instance().armed());
    (void)gpusim::cudaMemcpy(dev, buf->data(), buf->size_bytes(),
                             MemcpyKind::kHostToDevice);
    (void)gpusim::cudaFree(dev);
    EXPECT_NO_THROW(engine.finish());
  }
  par::set_threads(saved_threads);
  EXPECT_EQ(engine.transfers_hashed(), 2u);
  ASSERT_FALSE(engine.syncs().empty());
  for (const auto& obs : engine.syncs()) EXPECT_FALSE(obs.required);
  EXPECT_GT(engine.tracer_stats().driver_lifts, 0u);
}

TEST(MemSyncEngine, FreeHostOfTrackedDestinationRecordsNothing) {
  // 1 MiB: glibc serves it from its own mapping and may unmap it on free
  // without touching it, so the range must be gone before the free.
  constexpr std::size_t kBytes = 1 << 20;
  gpusim::Runtime rt;
  const ToolConfig cfg;
  MemSyncEngine engine(rt, cfg, minimal_s1(), false);
  {
    gpusim::RuntimeScope scope(rt);
    void* dev = nullptr;
    void* pinned = nullptr;
    (void)gpusim::cudaMalloc(&dev, kBytes);
    (void)gpusim::cudaMallocHost(&pinned, kBytes);
    (void)gpusim::cudaMemcpy(pinned, dev, kBytes, MemcpyKind::kDeviceToHost);
    EXPECT_TRUE(memtrace::PageTracer::instance().covers(pinned));
    EXPECT_NO_THROW((void)gpusim::cudaFreeHost(pinned));
    EXPECT_FALSE(memtrace::PageTracer::instance().covers(pinned));
    (void)gpusim::cudaFree(dev);
    EXPECT_NO_THROW(engine.finish());
  }
  ASSERT_FALSE(engine.syncs().empty());
  for (const auto& obs : engine.syncs()) EXPECT_FALSE(obs.required);
  EXPECT_EQ(engine.tracer_stats().ranges_unmapped, 0u);
}

TEST(MemSyncEngine, CallsThatTouchNoTracedMemoryCostNoProtectCall) {
  gpusim::Runtime rt;
  const ToolConfig cfg;
  MemSyncEngine engine(rt, cfg, minimal_s1(), false);
  auto out = std::make_shared<HostBuffer<float>>(1024);
  const auto calls_now = [] {
    return memtrace::PageTracer::instance().stats().protect_calls;
  };
  {
    gpusim::RuntimeScope scope(rt);
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, out->size_bytes());
    (void)gpusim::cudaMemcpy(out->data(), dev, out->size_bytes(),
                             MemcpyKind::kDeviceToHost);
    const std::uint64_t armed_calls = calls_now();
    for (int i = 0; i < 100; ++i) (void)gpusim::cudaDeviceSynchronize();
    EXPECT_EQ(calls_now(), armed_calls);
    EXPECT_TRUE(memtrace::PageTracer::instance().armed());
    (void)gpusim::cudaFree(dev);
    engine.finish();
  }
}

TEST(MemSyncEngine, DestroyingAnUnreadBufferIsNotAUse) {
  gpusim::Runtime rt;
  const ToolConfig cfg;
  MemSyncEngine engine(rt, cfg, minimal_s1(), false);
  {
    gpusim::RuntimeScope scope(rt);
    auto out = std::make_unique<HostBuffer<float>>(1024);
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, out->size_bytes());
    (void)gpusim::cudaMemcpyAsync(out->data(), dev, out->size_bytes(),
                                  MemcpyKind::kDeviceToHost);
    (void)gpusim::cudaDeviceSynchronize();
    out.reset();  // released unread while its range is protected
    (void)gpusim::cudaFree(dev);
    EXPECT_NO_THROW(engine.finish());
  }
  ASSERT_FALSE(engine.syncs().empty());
  for (const auto& obs : engine.syncs()) EXPECT_FALSE(obs.required);
  EXPECT_EQ(engine.tracer_stats().ranges_unmapped, 1u);
  EXPECT_EQ(memtrace::PageTracer::instance().range_count(), 0u);
}

TEST(MemSyncEngine, BufferMappedAtAFreedRangesAddressIsTraced) {
  // A buffer released while protected leaves its range registered until
  // the tracer next touches it. A new buffer mapped at the same address
  // starts unprotected; a D2H into it must still arm it.
  gpusim::Runtime rt;
  const ToolConfig cfg;
  MemSyncEngine engine(rt, cfg, minimal_s1(), false);
  {
    gpusim::RuntimeScope scope(rt);
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, 4096);
    auto first = std::make_unique<HostBuffer<float>>(1024);
    (void)gpusim::cudaMemcpy(first->data(), dev, 4096,
                             MemcpyKind::kDeviceToHost);  // op 0
    first.reset();
    auto second = std::make_unique<HostBuffer<float>>(1024);
    (void)gpusim::cudaMemcpy(second->data(), dev, 4096,
                             MemcpyKind::kDeviceToHost);  // op 1
    volatile float v = (*second)[0];
    (void)v;
    (void)gpusim::cudaFree(dev);
    engine.finish();
  }
  bool op1_required = false;
  for (const auto& obs : engine.syncs()) {
    if (obs.op_index == 1) op1_required = obs.required;
  }
  EXPECT_TRUE(op1_required);
}

TEST(MemSyncEngine, HashingChargesVirtualTime) {
  auto run_with = [&](bool hashing) {
    gpusim::Runtime rt;
    const ToolConfig cfg;
    MemSyncEngine engine(rt, cfg, minimal_s1(), hashing);
    auto buf = std::make_shared<HostBuffer<float>>(1 << 20);  // 4 MiB
    Duration out;
    {
      gpusim::RuntimeScope scope(rt);
      void* dev = nullptr;
      (void)gpusim::cudaMalloc(&dev, buf->size_bytes());
      (void)gpusim::cudaMemcpy(dev, buf->data(), buf->size_bytes(),
                               MemcpyKind::kHostToDevice);
      (void)gpusim::cudaFree(dev);
      engine.finish();
      out = rt.clock().now();
    }
    return out;
  };
  const Duration without = run_with(false);
  const Duration with = run_with(true);
  // 4 MiB at the configured 1.5 GB/s hash bandwidth ~= 2.8 ms extra.
  EXPECT_GT(with - without, ms(2));
}

TEST(MemSyncEngine, ReuseRequiresFreshEngine) {
  gpusim::Runtime rt;
  const ToolConfig cfg;
  MemSyncEngine engine(rt, cfg, minimal_s1(), false);
  {
    gpusim::RuntimeScope scope(rt);
    engine.finish();
  }
  EXPECT_THROW(engine.finish(), Error);
}

TEST(MemSyncEngine, DestructorCleansUpWithoutFinish) {
  auto out = std::make_shared<HostBuffer<float>>(256);
  {
    gpusim::Runtime rt;
    const ToolConfig cfg;
    MemSyncEngine engine(rt, cfg, minimal_s1(), false);
    gpusim::RuntimeScope scope(rt);
    void* dev = nullptr;
    (void)gpusim::cudaMalloc(&dev, out->size_bytes());
    (void)gpusim::cudaMemcpy(out->data(), dev, out->size_bytes(),
                             MemcpyKind::kDeviceToHost);
    // engine destroyed armed, without finish(): must disarm + clear.
  }
  EXPECT_FALSE(memtrace::PageTracer::instance().armed());
  EXPECT_EQ(memtrace::PageTracer::instance().range_count(), 0u);
  (void)(*out)[0];  // and the memory is touchable again
}

}  // namespace
}  // namespace diog::ffm
