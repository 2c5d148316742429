// Shared data model of the FFM stages.
//
// The source of truth for a run is the unified columnar store
// (eventstore/run.h) that every collection stage appends into. Stage1Result
// is stage 1's product and the input of stages 2-4; the other stage
// structs are read-only views that stageN_view() (core/run_convert.h)
// materializes from the run. export_json renders its stage sections
// straight from the run's metadata and cursors, not from these structs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hashing/content_hash.h"
#include "hooks/fn.h"
#include "json/json.h"
#include "support/clock.h"
#include "trace/callstack.h"

namespace diog::ffm {

// The problem taxonomy of §3 (plus kNone for healthy operations).
enum class ProblemType : std::uint8_t {
  kNone,
  kUnnecessarySync,
  kMisplacedSync,
  kUnnecessaryTransfer,
};
std::string_view to_string(ProblemType p);

// --- Stage 1: Baseline Measurement -----------------------------------------

// A distinct (API function, call stack) pair observed performing a GPU
// synchronization.
struct SyncSite {
  hooks::Fn api;
  trace::StackTrace stack;
  std::uint64_t hits = 0;
};

struct Stage1Result {
  // The internal driver function discovered to implement the wait.
  hooks::Fn wait_fn = hooks::Fn::kCount_;
  Duration exec_time{0};
  std::vector<SyncSite> sync_sites;

  // The set of API functions that will be traced in later stages: every
  // function seen synchronizing, the documented transfer functions, and
  // the explicit sync entry points.
  [[nodiscard]] std::vector<hooks::Fn> traced_fns() const;
};

// --- Stage 2: Detailed Tracing ----------------------------------------------

// One traced top-level driver call.
struct OpRecord {
  std::uint64_t index = 0;  // ordinal among traced ops (stable across runs)
  hooks::Fn api = hooks::Fn::kCount_;
  trace::StackTrace stack;
  TimePoint t_enter{0};
  TimePoint t_exit{0};
  Duration sync_wait{0};
  bool performed_sync = false;
  bool performed_transfer = false;
  std::uint64_t bytes = 0;
  hooks::MemcpyKind direction = hooks::MemcpyKind::kHostToHost;
  bool async_requested = false;
  hooks::MemKind dst_mem = hooks::MemKind::kPageable;
  hooks::MemKind src_mem = hooks::MemKind::kPageable;
  hooks::StreamId stream = hooks::kDefaultStream;
  Duration gpu_op_duration{0};

  [[nodiscard]] Duration call_duration() const { return t_exit - t_enter; }
};

struct Stage2Result {
  Duration exec_time{0};
  std::vector<OpRecord> ops;
};

// --- Stage 3: Memory Tracing and Data Hashing --------------------------------

// Classification of one synchronizing op.
struct SyncClassification {
  std::uint64_t op_index = 0;
  // True when an instruction was observed accessing data protected by
  // this synchronization — the sync is required for correctness.
  bool required = false;
  // First-access provenance (meaningful when required). `access_ip` is
  // the faulting instruction as an offset into the loaded object that
  // contains it (0 when none does), so it is the same in every process.
  trace::StackTrace access_stack;
  std::uint64_t access_ip = 0;
};

// One duplicate transfer detected by content hashing.
struct DuplicateTransfer {
  std::uint64_t op_index = 0;        // the duplicate
  std::uint64_t first_op_index = 0;  // where the content first moved
  hash::Digest digest = 0;
  std::uint64_t bytes = 0;
};

struct Stage3Result {
  Duration exec_time{0};
  std::vector<SyncClassification> syncs;
  std::vector<DuplicateTransfer> duplicate_transfers;
  std::uint64_t transfers_hashed = 0;
  std::uint64_t bytes_hashed = 0;
};

// --- Stage 4: Sync-Use Analysis ------------------------------------------------

struct SyncUse {
  std::uint64_t op_index = 0;
  Duration first_use_time{0};
};

struct Stage4Result {
  Duration exec_time{0};
  std::vector<SyncUse> uses;
};

// --- JSON helper shared by the reports ---------------------------------------

json::Value duration_to_json(Duration d);

}  // namespace diog::ffm
