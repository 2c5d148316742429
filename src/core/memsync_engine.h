// The shared memory/synchronization tracking engine behind stages 3
// and 4.
//
// Both stages observe the same things — which synchronizations protect
// data the CPU later touches, and when the first touch happens — but at
// different instrumentation weights: stage 3 additionally hashes every
// transferred buffer (heavy, perturbs timing), stage 4 repeats the
// memory tracing alone so the sync-to-first-use gaps are measured under
// light instrumentation. This engine implements the common machinery:
//
//   * a guard probe on every driver entry point that runs the call in a
//     driver window of the page tracer: ranges stay protected across
//     calls, a range the driver (or a kernel body) touches is lifted
//     without a record, and leaving the window re-protects only the
//     lifted and newly registered ranges — so a call pays an mprotect
//     only when it really touches traced memory;
//   * registration of GPU-written host ranges (D2H transfer
//     destinations) with the page tracer;
//   * attribution of each recorded first-access to the most recent
//     completed synchronization;
//   * optional content hashing + dedup of transfers.
//
// Unified-memory blind spot (kept deliberately, matching §5.3): kernel
// writes to managed memory are NOT tracked — managed ranges become
// dirty only through explicit transfers. This is why the AMG
// cudaMemset-on-managed sync classifies as unnecessary, exactly as the
// real tool (indirectly) found.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/model.h"
#include "core/tool_config.h"
#include "core/workload.h"
#include "hashing/dedup_store.h"
#include "memtrace/page_tracer.h"

namespace diog::ffm {

class MemSyncEngine {
 public:
  struct SyncObservation {
    std::uint64_t op_index = 0;
    TimePoint t_exit{0};
    bool required = false;
    trace::StackTrace access_stack;
    std::uint64_t access_ip = 0;  // module offset, see SyncClassification
    Duration first_use_time{0};
  };

  MemSyncEngine(gpusim::Runtime& rt, const ToolConfig& cfg,
                const Stage1Result& s1, bool hash_transfers);
  ~MemSyncEngine();
  MemSyncEngine(const MemSyncEngine&) = delete;
  MemSyncEngine& operator=(const MemSyncEngine&) = delete;

  // Call after the workload body returns: disarms the tracer and drains
  // the remaining accesses.
  void finish();

  [[nodiscard]] const std::vector<SyncObservation>& syncs() const {
    return syncs_;
  }
  [[nodiscard]] const std::vector<DuplicateTransfer>& duplicates() const {
    return duplicates_;
  }
  [[nodiscard]] std::uint64_t transfers_hashed() const {
    return transfers_hashed_;
  }
  [[nodiscard]] std::uint64_t bytes_hashed() const { return bytes_hashed_; }
  // What the page tracer cost this run (valid after finish()).
  [[nodiscard]] const memtrace::TracerStats& tracer_stats() const {
    return tracer_stats_;
  }

 private:
  void install_probes();
  void on_guard_entry(const hooks::HookContext& ctx);
  void on_guard_exit();
  void on_traced_exit(const hooks::HookContext& ctx);
  void drain_accesses();
  void register_dirty_range(void* ptr, std::uint64_t bytes);
  void forget_range(const void* ptr);
  void hash_transfer(const hooks::HookContext& ctx);

  gpusim::Runtime& rt_;
  const ToolConfig& cfg_;
  bool hash_transfers_;
  Duration probe_cost_;

  memtrace::PageTracer& tracer_;
  memtrace::TracerStats stats_at_start_;
  memtrace::TracerStats tracer_stats_;
  // Live dirty ranges: allocation start address -> tracer range id.
  std::unordered_map<const void*, memtrace::RangeId> dirty_ranges_;

  std::vector<SyncObservation> syncs_;
  std::vector<DuplicateTransfer> duplicates_;
  hash::DedupStore dedup_;
  std::uint64_t transfers_hashed_ = 0;
  std::uint64_t bytes_hashed_ = 0;
  std::uint64_t next_op_index_ = 0;
  bool finished_ = false;
};

}  // namespace diog::ffm
