// Tests for the extended runtime API surface: cross-stream event
// dependencies, non-blocking queries, host registration (which changes
// the conditional-sync behaviour of async copies), 2D transfers, and
// device information.
#include <gtest/gtest.h>

#include <cstring>

#include "gpusim/api.h"
#include "gpusim/host_buffer.h"
#include "gpusim/runtime.h"

namespace gpusim {
namespace {

using diog::Duration;

class GpusimExtTest : public ::testing::Test {
 protected:
  GpusimExtTest() : rt_(make_config()), scope_(rt_) {}

  static DeviceConfig make_config() {
    DeviceConfig d;
    d.h2d_bandwidth_bytes_per_s = 1e9;
    d.d2h_bandwidth_bytes_per_s = 1e9;
    d.transfer_latency = diog::us(10);
    return d;
  }

  static KernelDesc kernel(Duration dur) {
    KernelDesc k;
    k.name = "k";
    k.duration = dur;
    return k;
  }

  Runtime rt_;
  RuntimeScope scope_;
};

// --- cudaStreamWaitEvent ------------------------------------------------------

TEST_F(GpusimExtTest, StreamWaitEventOrdersAcrossStreams) {
  StreamId producer, consumer;
  (void)cudaStreamCreate(&producer);
  (void)cudaStreamCreate(&consumer);

  (void)cudaLaunchKernel(kernel(diog::ms(10)), producer);
  EventId done;
  (void)cudaEventCreate(&done);
  (void)cudaEventRecord(done, producer);

  // The consumer's kernel must start only after the producer's finishes.
  ASSERT_EQ(cudaStreamWaitEvent(consumer, done), cudaSuccess);
  (void)cudaLaunchKernel(kernel(diog::ms(5)), consumer);

  (void)cudaStreamSynchronize(consumer);
  EXPECT_GE(rt_.clock().now(), diog::ms(15));  // serialized: 10 + 5
  (void)cudaEventDestroy(done);
  (void)cudaStreamDestroy(producer);
  (void)cudaStreamDestroy(consumer);
}

TEST_F(GpusimExtTest, StreamWaitEventDoesNotBlockCpu) {
  StreamId s;
  (void)cudaStreamCreate(&s);
  (void)cudaLaunchKernel(kernel(diog::ms(20)));
  EventId ev;
  (void)cudaEventCreate(&ev);
  (void)cudaEventRecord(ev);
  const auto before = rt_.clock().now();
  (void)cudaStreamWaitEvent(s, ev);
  EXPECT_LT(rt_.clock().now() - before, diog::ms(1));
  (void)cudaDeviceSynchronize();
}

TEST_F(GpusimExtTest, StreamWaitEventValidation) {
  EXPECT_EQ(cudaStreamWaitEvent(999, 999),
            cudaError_t::cudaErrorInvalidResourceHandle);
}

// --- Non-blocking queries --------------------------------------------------------

TEST_F(GpusimExtTest, StreamQueryReportsWithoutBlocking) {
  (void)cudaLaunchKernel(kernel(diog::ms(10)));
  const auto before = rt_.clock().now();
  EXPECT_EQ(cudaStreamQuery(kDefaultStream), cudaError_t::cudaErrorNotReady);
  EXPECT_LT(rt_.clock().now() - before, diog::ms(1));  // did not wait
  (void)cudaDeviceSynchronize();
  EXPECT_EQ(cudaStreamQuery(kDefaultStream), cudaSuccess);
}

TEST_F(GpusimExtTest, EventQueryReportsCompletion) {
  EventId ev;
  (void)cudaEventCreate(&ev);
  (void)cudaLaunchKernel(kernel(diog::ms(10)));
  (void)cudaEventRecord(ev);
  EXPECT_EQ(cudaEventQuery(ev), cudaError_t::cudaErrorNotReady);
  (void)cudaEventSynchronize(ev);
  EXPECT_EQ(cudaEventQuery(ev), cudaSuccess);
  (void)cudaEventDestroy(ev);
  EXPECT_EQ(cudaEventQuery(ev), cudaError_t::cudaErrorInvalidResourceHandle);
}

TEST_F(GpusimExtTest, QueriesDoNotPoisonLastError) {
  // cudaErrorNotReady from a query is informational in CUDA; our model
  // records it, so a GetLastError read reflects the query — verify the
  // clear-on-read contract still holds either way.
  (void)cudaLaunchKernel(kernel(diog::ms(5)));
  (void)cudaStreamQuery(kDefaultStream);
  (void)cudaGetLastError();  // drain
  EXPECT_EQ(cudaGetLastError(), cudaSuccess);
  (void)cudaDeviceSynchronize();
}

// --- cudaHostRegister ---------------------------------------------------------------

TEST_F(GpusimExtTest, HostRegisterReclassifiesAsPinned) {
  HostBuffer<char> buf(1 << 16);
  EXPECT_EQ(rt_.memory().classify(buf.data()),
            diog::hooks::MemKind::kPageable);
  ASSERT_EQ(cudaHostRegister(buf.data(), buf.size_bytes()), cudaSuccess);
  EXPECT_EQ(rt_.memory().classify(buf.data()),
            diog::hooks::MemKind::kPinned);
  EXPECT_EQ(rt_.memory().classify(buf.data() + 100),
            diog::hooks::MemKind::kPinned);
  ASSERT_EQ(cudaHostUnregister(buf.data()), cudaSuccess);
  EXPECT_EQ(rt_.memory().classify(buf.data()),
            diog::hooks::MemKind::kPageable);
}

TEST_F(GpusimExtTest, HostRegisterRemovesConditionalSync) {
  // THE point of pinning: the async D2H that silently blocked into
  // pageable memory becomes truly asynchronous after cudaHostRegister.
  void* dev = nullptr;
  (void)cudaMalloc(&dev, 1 << 16);
  HostBuffer<char> buf(1 << 16);

  // Before registration: blocks behind the kernel.
  (void)cudaLaunchKernel(kernel(diog::ms(10)));
  auto before = rt_.clock().now();
  (void)cudaMemcpyAsync(buf.data(), dev, 1 << 16,
                        diog::hooks::MemcpyKind::kDeviceToHost);
  EXPECT_GE(rt_.clock().now() - before, diog::ms(9));

  // After registration: returns immediately.
  ASSERT_EQ(cudaHostRegister(buf.data(), buf.size_bytes()), cudaSuccess);
  (void)cudaLaunchKernel(kernel(diog::ms(10)));
  before = rt_.clock().now();
  (void)cudaMemcpyAsync(buf.data(), dev, 1 << 16,
                        diog::hooks::MemcpyKind::kDeviceToHost);
  EXPECT_LT(rt_.clock().now() - before, diog::ms(1));

  (void)cudaDeviceSynchronize();
  (void)cudaHostUnregister(buf.data());
  (void)cudaFree(dev);
}

TEST_F(GpusimExtTest, HostRegisterValidation) {
  HostBuffer<char> buf(4096);
  EXPECT_EQ(cudaHostRegister(nullptr, 100),
            cudaError_t::cudaErrorInvalidValue);
  EXPECT_EQ(cudaHostRegister(buf.data(), 0),
            cudaError_t::cudaErrorInvalidValue);
  ASSERT_EQ(cudaHostRegister(buf.data(), 4096), cudaSuccess);
  // Overlapping double registration rejected.
  EXPECT_EQ(cudaHostRegister(buf.data() + 8, 16),
            cudaError_t::cudaErrorInvalidValue);
  EXPECT_EQ(cudaHostUnregister(buf.data()), cudaSuccess);
  EXPECT_EQ(cudaHostUnregister(buf.data()),
            cudaError_t::cudaErrorInvalidValue);
}

TEST_F(GpusimExtTest, HostRegisterRejectsRuntimeOwnedMemory) {
  void* pinned = nullptr;
  (void)cudaMallocHost(&pinned, 4096);
  EXPECT_EQ(cudaHostRegister(pinned, 4096),
            cudaError_t::cudaErrorInvalidValue);
  (void)cudaFreeHost(pinned);
}

// --- cudaMemcpy2D --------------------------------------------------------------------

TEST_F(GpusimExtTest, Memcpy2DCopiesStridedRows) {
  // A 4x4 source copied into an 8-byte-pitch destination.
  char src[16];
  for (int i = 0; i < 16; ++i) src[i] = static_cast<char>(i);
  char dst[32];
  std::memset(dst, 0x7F, sizeof(dst));
  ASSERT_EQ(cudaMemcpy2D(dst, 8, src, 4, 4, 4,
                         diog::hooks::MemcpyKind::kHostToHost),
            cudaSuccess);
  for (int row = 0; row < 4; ++row) {
    for (int col = 0; col < 4; ++col) {
      EXPECT_EQ(dst[row * 8 + col], static_cast<char>(row * 4 + col));
    }
    EXPECT_EQ(dst[row * 8 + 5], 0x7F);  // padding untouched
  }
}

TEST_F(GpusimExtTest, Memcpy2DDeviceRoundTrip) {
  void* dev = nullptr;
  (void)cudaMalloc(&dev, 64);
  char src[64];
  for (int i = 0; i < 64; ++i) src[i] = static_cast<char>(i * 3);
  ASSERT_EQ(cudaMemcpy2D(dev, 8, src, 8, 8, 8,
                         diog::hooks::MemcpyKind::kHostToDevice),
            cudaSuccess);
  char back[64] = {};
  ASSERT_EQ(cudaMemcpy2D(back, 8, dev, 8, 8, 8,
                         diog::hooks::MemcpyKind::kDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(std::memcmp(src, back, 64), 0);
  (void)cudaFree(dev);
}

TEST_F(GpusimExtTest, Memcpy2DImplicitlySynchronizes) {
  void* dev = nullptr;
  (void)cudaMalloc(&dev, 4096);
  char host[4096];
  (void)cudaLaunchKernel(kernel(diog::ms(15)));
  (void)cudaMemcpy2D(dev, 64, host, 64, 64, 64,
                     diog::hooks::MemcpyKind::kHostToDevice);
  EXPECT_GE(rt_.clock().now(), diog::ms(15));
  EXPECT_TRUE(rt_.device().idle());
  (void)cudaFree(dev);
}

TEST_F(GpusimExtTest, Memcpy2DValidation) {
  char a[64] = {}, b[64] = {};
  // width > pitch is illegal.
  EXPECT_EQ(cudaMemcpy2D(a, 4, b, 8, 8, 4,
                         diog::hooks::MemcpyKind::kHostToHost),
            cudaError_t::cudaErrorInvalidValue);
  EXPECT_EQ(cudaMemcpy2D(a, 8, b, 8, 8, 0,
                         diog::hooks::MemcpyKind::kHostToHost),
            cudaError_t::cudaErrorInvalidValue);
}

// --- Device information -----------------------------------------------------------------

TEST_F(GpusimExtTest, DevicePropertiesReflectConfig) {
  cudaDeviceProp prop;
  ASSERT_EQ(cudaGetDeviceProperties(&prop, 0), cudaSuccess);
  EXPECT_EQ(prop.total_global_mem, rt_.config().device_memory_bytes);
  EXPECT_EQ(prop.major, 6);  // Pascal-class, as on the paper's Ray nodes
  EXPECT_EQ(cudaGetDeviceProperties(&prop, 1),
            cudaError_t::cudaErrorInvalidValue);
  EXPECT_EQ(cudaGetDeviceProperties(nullptr, 0),
            cudaError_t::cudaErrorInvalidValue);
}

TEST_F(GpusimExtTest, MemGetInfoTracksAllocations) {
  std::size_t free_before = 0, total = 0;
  ASSERT_EQ(cudaMemGetInfo(&free_before, &total), cudaSuccess);
  EXPECT_EQ(free_before, total);

  void* dev = nullptr;
  (void)cudaMalloc(&dev, 1 << 20);
  std::size_t free_after = 0;
  (void)cudaMemGetInfo(&free_after, &total);
  EXPECT_EQ(free_before - free_after, 1u << 20);
  (void)cudaFree(dev);
  (void)cudaMemGetInfo(&free_after, &total);
  EXPECT_EQ(free_after, free_before);
}

}  // namespace
}  // namespace gpusim
