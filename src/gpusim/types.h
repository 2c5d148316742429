// Shared types of the simulated CUDA-like runtime.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "hooks/fn.h"
#include "support/clock.h"

namespace gpusim {

using diog::Duration;
using diog::TimePoint;
using diog::hooks::kDefaultStream;
using diog::hooks::MemcpyKind;
using diog::hooks::MemKind;
using diog::hooks::StreamId;

// CUDA-style status codes; the public API reports errors through these
// rather than exceptions, as the real runtime does.
enum class cudaError_t : std::int32_t {
  cudaSuccess = 0,
  cudaErrorInvalidValue = 1,
  cudaErrorMemoryAllocation = 2,
  cudaErrorInvalidDevicePointer = 17,
  cudaErrorInvalidResourceHandle = 400,
  cudaErrorNotReady = 600,
  cudaErrorTimeout = 909,
};
constexpr auto cudaSuccess = cudaError_t::cudaSuccess;
std::string_view error_name(cudaError_t e);

// A kernel to run on the simulated device.
struct KernelDesc {
  std::string name;        // source-style, possibly templated
  Duration duration{0};    // simulated GPU execution time
  // Optional host-side effect applied when the kernel's simulated
  // execution completes its enqueue (device backing memory is host
  // memory, so "GPU computation" is a callback that mutates it).
  std::function<void()> body;
  // Host-visible ranges (pinned/managed) this kernel writes; used by the
  // runtime to apply effects. The *tool* learns about GPU-writable CPU
  // ranges only from intercepted transfer/allocation calls, never from
  // this field.
  struct HostWrite {
    void* ptr;
    std::uint64_t bytes;
  };
  std::vector<HostWrite> host_writes;
  // Managed allocations this kernel touches (base pointers). Under the
  // migration model, CPU-resident ones migrate to the device before the
  // kernel runs.
  std::vector<void*> managed_accesses;
};

// Ground-truth record of one operation executed by the simulated GPU.
// Used for validation and for computing true GPU idle time in tests; the
// tool under test never reads this.
struct GpuOp {
  enum class Kind : std::uint8_t { kKernel, kTransfer, kMemset };
  Kind kind = Kind::kKernel;
  StreamId stream = kDefaultStream;
  std::string name;
  TimePoint start{0};
  TimePoint end{0};
  std::uint64_t bytes = 0;
};

// Simulated hardware + driver cost model. Defaults approximate a
// PCIe-attached Pascal-class part (the paper's Ray nodes), but every
// experiment pins the values it relies on.
struct DeviceConfig {
  // Transfer model: duration = latency + bytes / bandwidth.
  double h2d_bandwidth_bytes_per_s = 11.0e9;
  double d2h_bandwidth_bytes_per_s = 12.0e9;
  Duration transfer_latency = diog::us(8);

  // CPU-side driver costs per call (time the call consumes even when it
  // does not block on the GPU).
  Duration malloc_cost = diog::us(40);
  Duration free_cost = diog::us(45);
  Duration launch_cost = diog::us(9);
  Duration memcpy_setup_cost = diog::us(12);
  Duration memset_setup_cost = diog::us(10);
  Duration sync_call_cost = diog::us(3);
  Duration misc_api_cost = diog::us(2);
  // Extra CPU cost when an async H2D copy from pageable memory must be
  // staged through a pinned bounce buffer.
  Duration pageable_staging_cost_per_mib = diog::us(25);

  // Device memory capacity per device (allocation failures are real).
  std::uint64_t device_memory_bytes = 16ull << 30;

  // Number of GPUs (the paper's Ray nodes carried four Pascal parts).
  int device_count = 1;
  // Peer-to-peer transfer model: NVLink-class when peer access is
  // enabled, staged through host memory otherwise.
  double p2p_bandwidth_bytes_per_s = 35.0e9;
  Duration p2p_latency = diog::us(10);

  // Watchdog used only under probe mode (stage-1 discovery): a wait that
  // would never complete advances the clock by this much, then aborts the
  // probe run.
  Duration probe_watchdog = diog::secs(1.0);

  // --- Unified-memory migration model (opt-in extension, §5.3) -----------
  // When enabled, managed allocations have a residency side (CPU/GPU):
  // kernels declaring managed accesses trigger H2D page migration before
  // they run, and CPU touches of GPU-resident managed memory stall on a
  // fault-driven D2H migration — hidden time no vendor record describes.
  bool model_managed_migration = false;
  double uvm_bandwidth_bytes_per_s = 8.0e9;
  Duration uvm_fault_latency = diog::us(25);
};

// Thrown when probe mode trips the watchdog (the stage-1 discovery run
// intentionally deadlocks the device and then kills the application).
struct ProbeTimeout {
  diog::hooks::Fn blocked_in;
};

// Pretty type names for the thrust-like templated frames.
template <typename T>
constexpr std::string_view type_name();
template <> constexpr std::string_view type_name<float>() { return "float"; }
template <> constexpr std::string_view type_name<double>() { return "double"; }
template <> constexpr std::string_view type_name<int>() { return "int"; }
template <> constexpr std::string_view type_name<unsigned>() { return "unsigned int"; }
template <> constexpr std::string_view type_name<long>() { return "long"; }
template <> constexpr std::string_view type_name<char>() { return "char"; }

}  // namespace gpusim
