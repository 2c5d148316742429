// Quickstart: point Diogenes at a small CUDA-style application and read
// its findings.
//
// The application below commits the classic sin: it launches a kernel,
// then immediately calls cudaDeviceSynchronize and tears down a
// temporary with cudaFree — both of which stall the CPU — before finally
// copying the result back and using it. Diogenes runs it five times
// (four collection stages + analysis) and reports which of those stalls
// are worth fixing and by how much.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "core/diogenes.h"
#include "core/report.h"
#include "gpusim/api.h"
#include "gpusim/host_buffer.h"
#include "obs/telemetry.h"
#include "support/strings.h"
#include "trace/callstack.h"

using namespace diog;

namespace {

// The workload: written exactly like a CUDA program, with DIOG_APP_FRAME
// markers standing in for the debug info a real binary would carry.
struct MyApp {
  std::shared_ptr<gpusim::HostBuffer<float>> result =
      std::make_shared<gpusim::HostBuffer<float>>(1024);

  void operator()() const {
    DIOG_APP_FRAME("main", "my_app.cu", 12);

    void* d_data = nullptr;
    void* d_temp = nullptr;
    (void)gpusim::cudaMalloc(&d_data, result->size_bytes());

    for (int step = 0; step < 5; ++step) {
      DIOG_APP_FRAME("simulate_step", "my_app.cu", 30);
      (void)gpusim::cudaMalloc(&d_temp, 4096);

      gpusim::KernelDesc kernel;
      kernel.name = "simulate_kernel";
      kernel.duration = ms(10);
      float* out = static_cast<float*>(d_data);
      kernel.body = [out, step] { out[0] = static_cast<float>(step); };
      (void)gpusim::cudaLaunchKernel(kernel);

      {
        // Habitual, unnecessary: the readback below already waits.
        DIOG_APP_FRAME("simulate_step", "my_app.cu", 41);
        (void)gpusim::cudaDeviceSynchronize();
      }
      {
        // Hidden synchronization: freeing device memory drains the GPU.
        DIOG_APP_FRAME("simulate_step", "my_app.cu", 44);
        (void)gpusim::cudaFree(d_temp);
      }

      gpusim::cpu_work(ms(12));  // prepare the next step on the CPU

      {
        DIOG_APP_FRAME("simulate_step", "my_app.cu", 49);
        (void)gpusim::cudaMemcpy(result->data(), d_data,
                                 result->size_bytes(),
                                 hooks::MemcpyKind::kDeviceToHost);
      }
      volatile float sink = (*result)[0];  // the data IS used right away
      (void)sink;
    }
    (void)gpusim::cudaFree(d_data);
  }
};

}  // namespace

int main() {
  ffm::Workload workload;
  workload.name = "quickstart";
  workload.device = gpusim::DeviceConfig{};  // a Pascal-class default
  workload.body = MyApp{};

  // Run all five FFM stages. No interaction is needed between stages.
  // Narrate the stages on stderr.
  obs::Telemetry::global().logger().set_level(obs::LogLevel::kInfo);
  ffm::ToolConfig config;
  ffm::Diogenes tool(workload, config);
  const ffm::AnalysisResult result = tool.analyze();

  // 1. The overview: problem groupings sorted by expected benefit.
  std::printf("%s\n", ffm::render_overview(result).c_str());

  // 2. Per-API savings — compare against what a profiler would tell you:
  //    cudaDeviceSynchronize consumed the most time, yet the benefit of
  //    removing it is near zero (its wait would migrate to the
  //    readback); the cudaFree stalls are the real win.
  std::printf("%s\n", ffm::render_api_savings(result).c_str());

  // 3. Everything is exportable as JSON for other tools.
  const json::Value exported = ffm::export_json(result);
  std::printf("export: %zu top-level keys, %s total estimated benefit\n",
              exported.as_object().size(),
              format_seconds(result.benefit.total).c_str());

  std::printf("\ncollection cost: %.1fx the baseline run (4 stages)\n",
              result.overhead_factor);
  return 0;
}
