// Extension bench — unified-memory transfer analysis (paper §5.3 future
// work: "we are looking at methods to expand Diogenes to directly detect
// problems with unified memory transfers").
//
// The UVM stencil workload's halo buffer ping-pongs between the CPU and
// the GPU every timestep. Nothing in the vendor interface describes the
// fault stalls; baseline Diogenes (with the migration path untraced) is
// equally blind — the extension instruments the driver's internal
// migration function directly and prices the thrash.
#include "baselines/profilers.h"
#include "bench_common.h"
#include "core/uvm_analysis.h"

int main() {
  using namespace diog;
  using namespace diog::bench;

  print_header("Unified-memory thrash detection (extension)",
               "SC'19 §5.3 future work");

  apps::UvmStencilConfig cfg;
  const ffm::Workload path = apps::make_uvm_stencil(cfg);
  const ffm::Workload fixed = apps::make_uvm_stencil(cfg, true);

  const Duration native = ffm::run_uninstrumented(path);
  const Duration fixed_time = ffm::run_uninstrumented(fixed);
  std::printf("\npathological: %s   staged-halo fix: %s   actual benefit: "
              "%s (%.1f%%)\n",
              format_seconds(native).c_str(),
              format_seconds(fixed_time).c_str(),
              format_seconds(native - fixed_time).c_str(),
              100.0 * static_cast<double>((native - fixed_time).count()) /
                  static_cast<double>(native.count()));

  // What a consumption profiler sees: nothing attributable.
  const baselines::ProfileResult nv = baselines::run_nvprof_like(path);
  std::printf("\nnvprof_like's view of the pathological run:\n%s",
              baselines::render_profile(nv, 5).c_str());
  std::printf("(the fault stalls appear in no API call: the run just "
              "looks slow)\n");

  // The extension's view.
  const ffm::UvmAnalysis a = ffm::analyze_unified_memory(path);
  std::printf("\n%s", ffm::render_uvm(a).c_str());
  std::printf("\nestimate vs actual: %s vs %s (%.0f%% accuracy)\n",
              format_seconds(a.estimated_benefit).c_str(),
              format_seconds(native - fixed_time).c_str(),
              ffm::estimate_accuracy(a.estimated_benefit,
                                     native - fixed_time) *
                  100.0);

  // And confirmation that the fix eliminates the thrash.
  const ffm::UvmAnalysis af = ffm::analyze_unified_memory(fixed);
  std::printf("\nafter the fix: %zu migrations, estimated benefit %s\n",
              af.migrations.size(),
              format_seconds(af.estimated_benefit).c_str());
  return 0;
}
