// Figures 1 & 2 — the FFM pipeline walkthrough.
//
// Figure 1 is the model diagram: five stages, each feeding the next.
// This bench runs the stages one at a time on cumf_als and prints what
// each collected and handed forward — the diagram, regenerated from a
// live run. Figure 2 is the three-step illustration of identifying a
// problematic synchronization (capture GPU-writable ranges; load/store
// analysis after the sync; store the accessing instruction); the second
// half walks those steps on a minimal two-outcome program.
#include <memory>

#include "bench_common.h"
#include "core/run_convert.h"
#include "core/stage1_baseline.h"
#include "core/stage2_tracing.h"
#include "core/stage3_memhash.h"
#include "core/stage4_syncuse.h"
#include "gpusim/api.h"
#include "gpusim/host_buffer.h"
#include "trace/callstack.h"

using namespace diog;
using namespace diog::bench;

namespace {

void figure1_walkthrough() {
  print_header("Figure 1 — the five FFM stages, data handed forward",
               "SC'19 Figure 1");
  apps::CumfAlsConfig cfg;
  cfg.iterations = 20;
  const ffm::Workload w = apps::make_cumf_als(cfg);
  const ffm::ToolConfig tool_cfg;

  std::printf("\n[run 1] Stage 1 — Baseline Measurement\n");
  const ffm::Stage1Result s1 = ffm::run_stage1(w, tool_cfg);
  std::printf("  wait function discovered by probe: %s\n",
              std::string(hooks::fn_name(s1.wait_fn)).c_str());
  std::printf("  application execution time: %s\n",
              format_seconds(s1.exec_time).c_str());
  std::printf("  synchronizing (API, stack) sites: %zu\n",
              s1.sync_sites.size());
  std::printf("  -> feeds forward: the list of functions to trace\n");

  std::printf("\n[run 2] Stage 2 — Detailed Tracing\n");
  const ffm::Stage2Result s2 = ffm::run_stage2(w, tool_cfg, s1);
  std::size_t syncs = 0, transfers = 0;
  Duration wait_total{0};
  for (const auto& op : s2.ops) {
    if (op.performed_sync) ++syncs;
    if (op.performed_transfer) ++transfers;
    wait_total += op.sync_wait;
  }
  std::printf("  traced calls: %zu (%zu syncs, %zu transfers), total "
              "blocked time %s\n",
              s2.ops.size(), syncs, transfers,
              format_seconds(wait_total).c_str());
  std::printf("  -> feeds forward: per-call timing + stacks\n");

  std::printf("\n[run 3] Stage 3 — Memory Tracing and Data Hashing\n");
  const ffm::Stage3Result s3 = ffm::run_stage3(w, tool_cfg, s1);
  std::size_t required = 0;
  for (const auto& c : s3.syncs) required += c.required ? 1 : 0;
  std::printf("  sync classifications: %zu (%zu required, %zu "
              "unnecessary)\n",
              s3.syncs.size(), required, s3.syncs.size() - required);
  std::printf("  transfers hashed: %llu (%s); duplicates: %zu\n",
              static_cast<unsigned long long>(s3.transfers_hashed),
              format_bytes(s3.bytes_hashed).c_str(),
              s3.duplicate_transfers.size());
  std::printf("  -> feeds forward: problem classification + access sites\n");

  std::printf("\n[run 4] Stage 4 — Sync-Use Analysis\n");
  const ffm::Stage4Result s4 = ffm::run_stage4(w, tool_cfg, s1);
  std::printf("  sync-to-first-use gaps measured: %zu\n", s4.uses.size());
  std::printf("  -> feeds forward: FirstUseTime per required sync\n");

  std::printf("\n[no run] Stage 5 — Analysis\n");
  const ffm::AnalysisResult r =
      ffm::run_analysis(ffm::build_run(w.name, s1, s2, s3, s4), tool_cfg);
  std::printf("  graph: %zu CPU nodes; problematic: %zu\n",
              r.graph.size(), r.graph.problematic_indices().size());
  std::printf("  expected benefit: %s (%s) -> sorted report + JSON\n",
              format_seconds(r.benefit.total).c_str(),
              format_percent(r.fraction_of_exec(r.benefit.total)).c_str());
}

void figure2_walkthrough() {
  print_header("Figure 2 — identifying a problematic synchronization",
               "SC'19 Figure 2");

  // The figure's program: an async D2H into CPU_Mem, a synchronize, then
  // (in one variant) a read of CPU_Mem. Two variants, two verdicts.
  auto run_variant = [](bool access_data) {
    auto cpu_mem = std::make_shared<gpusim::HostBuffer<float>>(4096);
    ffm::Workload w;
    w.name = access_data ? "fig2_with_access" : "fig2_without_access";
    w.device = gpusim::DeviceConfig{};
    w.body = [cpu_mem, access_data] {
      DIOG_APP_FRAME("fig2_main", "fig2.cu", 1);
      void* dev = nullptr;
      void* pinned = nullptr;
      (void)gpusim::cudaMalloc(&dev, cpu_mem->size_bytes());
      (void)gpusim::cudaMallocHost(&pinned, cpu_mem->size_bytes());
      gpusim::KernelDesc k;
      k.name = "producer";
      k.duration = ms(2);
      (void)gpusim::cudaLaunchKernel(k);
      // Step 1's capture point: the D2H transfer declares CPU_Mem as a
      // range GPU computation may change.
      (void)gpusim::cudaMemcpyAsync(pinned, dev, cpu_mem->size_bytes(),
                                    hooks::MemcpyKind::kDeviceToHost);
      (void)gpusim::cudaMemcpy(cpu_mem->data(), dev, cpu_mem->size_bytes(),
                               hooks::MemcpyKind::kDeviceToHost);
      gpusim::cpu_work(us(80));
      if (access_data) {
        DIOG_APP_FRAME("consume", "fig2.cu", 21);
        volatile float v = (*cpu_mem)[0];  // step 2's load
        (void)v;
      }
      (void)gpusim::cudaFreeHost(pinned);
      (void)gpusim::cudaFree(dev);
    };

    const ffm::ToolConfig cfg;
    const ffm::Stage1Result s1 = ffm::run_stage1(w, cfg);
    const ffm::Stage3Result s3 = ffm::run_stage3(w, cfg, s1);
    std::printf("\nvariant: %s\n", w.name.c_str());
    for (const auto& c : s3.syncs) {
      std::printf("  sync op #%llu: %s",
                  static_cast<unsigned long long>(c.op_index),
                  c.required ? "REQUIRED for correctness" : "unnecessary");
      if (c.required && c.access_stack.leaf() != nullptr) {
        std::printf("  (step 3: access stored at %s)",
                    c.access_stack.leaf()->pretty().c_str());
      }
      std::printf("\n");
    }
  };

  run_variant(true);
  std::printf("  [step 1: CPU_Mem captured from the D2H transfer;\n"
              "   step 2: the load after the sync faults and is logged;\n"
              "   step 3: the instruction + stack are stored]\n");
  run_variant(false);
  std::printf("  [no access follows: every sync protecting the range is\n"
              "   unnecessary — the Figure 2 decision, inverted]\n");
}

}  // namespace

int main() {
  figure1_walkthrough();
  figure2_walkthrough();
  return 0;
}
