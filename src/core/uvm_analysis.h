// Unified-memory transfer analysis — the §5.3 future-work extension.
//
// The paper: "Diogenes has a limited ability to analyze applications
// using CUDA's unified memory. ... the source and destination of a
// unified memory transfer are not known until after the transfer
// completes. ... We have indirectly detected issues with unified memory
// transfers in AMG and we are looking at methods to expand Diogenes to
// directly detect problems with unified memory transfers."
//
// This extension instruments the driver's page-migration path directly
// (the internal kInternalUvmMigrate function — the same binary-
// instrumentation trick stage 1 applies to the wait funnel) and
// collects, per managed allocation:
//   * every migration with direction, bytes, CPU stall and call stack;
//   * ping-pong ("thrashing") detection — a range bouncing CPU<->GPU
//     once per loop iteration;
//   * an expected-benefit estimate: the fault stalls of every
//     round-trip beyond the first are avoidable by keeping the data
//     resident on one side (or staging it explicitly).
//
// Requires the workload's DeviceConfig to enable
// model_managed_migration; with the model off, the analysis reports an
// empty result (matching baseline Diogenes' blindness).
#pragma once

#include <string>
#include <vector>

#include "core/model.h"
#include "core/tool_config.h"
#include "core/workload.h"

namespace diog::ffm {

struct UvmMigration {
  std::uint64_t range_addr = 0;  // managed allocation base
  std::uint64_t bytes = 0;
  bool to_gpu = false;
  Duration stall{0};          // CPU time lost (to-CPU faults only)
  Duration transfer_time{0};  // the migration itself (bus time)
  TimePoint time{0};
  trace::StackTrace stack;
};

struct UvmRangeReport {
  std::size_t ordinal = 0;  // k-th range to migrate, from 1 ("range #k")
  std::uint64_t range_addr = 0;
  std::uint64_t bytes = 0;
  std::size_t to_gpu_migrations = 0;
  std::size_t to_cpu_migrations = 0;
  Duration total_stall{0};
  // The estimated benefit of eliminating round trips beyond the first:
  // the bus time of the repeat migrations. (The remainder of a fault
  // stall is the device draining its queue, which the next kernel would
  // have waited for anyway — the same migrating-wait effect Figure 4
  // shows for synchronizations.)
  Duration avoidable_stall{0};
  bool thrashing = false;
  // The app-side stack of the first faulting CPU access.
  trace::StackTrace fault_stack;

  [[nodiscard]] json::Value to_json() const;
};

struct UvmAnalysis {
  Duration exec_time{0};
  std::vector<UvmMigration> migrations;
  std::vector<UvmRangeReport> ranges;  // by avoidable stall, then ordinal
  Duration total_stall{0};
  Duration estimated_benefit{0};

  [[nodiscard]] json::Value to_json() const;
};

struct UvmOptions {
  // A range is thrashing when it completes at least this many
  // CPU<->GPU round trips.
  std::size_t thrash_round_trips = 3;
  Duration probe_cost = us(2);
};

// A dedicated collection run (the extension's own stage), instrumenting
// the migration path only.
UvmAnalysis analyze_unified_memory(const Workload& w,
                                   const UvmOptions& opts = {});

std::string render_uvm(const UvmAnalysis& a);

}  // namespace diog::ffm
