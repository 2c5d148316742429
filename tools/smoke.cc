// Calibration smoke: run Diogenes + baselines on every app, print the key numbers.
#include <cstdio>
#include "apps/apps.h"
#include "baselines/profilers.h"
#include "core/diogenes.h"
#include "core/report.h"
#include "support/strings.h"

using namespace diog;

int main(int argc, char** argv) {
  const std::string only = argc > 1 ? argv[1] : "";
  for (auto& app : apps::all_apps()) {
    if (!only.empty() && app.name != only) continue;
    std::printf("=== %s ===\n", app.name.c_str());
    const Duration native = ffm::run_uninstrumented(app.pathological);
    const Duration fixed = ffm::run_uninstrumented(app.fixed);
    std::printf("native: %s   fixed: %s   actual benefit: %s (%.2f%%)\n",
                format_seconds(native).c_str(), format_seconds(fixed).c_str(),
                format_seconds(native - fixed).c_str(),
                100.0 * (native - fixed).count() / double(native.count()));
    ffm::Diogenes tool(app.pathological);
    auto r = tool.analyze();
    std::printf("stage exec times: s1=%s s2=%s s3=%s s4=%s overhead=%.1fx\n",
                format_seconds(r.run.meta.s1_exec).c_str(),
                format_seconds(r.run.meta.s2_exec).c_str(),
                format_seconds(r.run.meta.s3_exec).c_str(),
                format_seconds(r.run.meta.s4_exec).c_str(),
                r.overhead_factor);
    std::printf("total est benefit: %s (%.2f%%)  sync=%s transfer=%s\n",
                format_seconds(r.benefit.total).c_str(),
                100.0 * r.fraction_of_exec(r.benefit.total),
                format_seconds(r.benefit.sync_benefit).c_str(),
                format_seconds(r.benefit.transfer_benefit).c_str());
    std::printf("%s", ffm::render_api_savings(r).c_str());
    std::printf("%s", ffm::render_overview(r, 6).c_str());
    auto nv = baselines::run_nvprof_like(app.pathological);
    std::printf("%s", baselines::render_profile(nv, 8).c_str());
    auto hp = baselines::run_hpctoolkit_like(app.pathological);
    std::printf("%s", baselines::render_profile(hp, 8).c_str());
    std::printf("\n");
  }
  return 0;
}
