// Page-protection load/store tracing.
//
// Stages 3 and 4 need "the location of the instruction that first
// accesses a memory location containing data that could be modified by
// the GPU" and the time between a synchronization and that access. The
// real Diogenes gets this from binary load/store instrumentation; this
// reproduction gets it from the MMU: registered ranges are mprotect'd to
// PROT_NONE after a synchronization, and the first touch of a range
// raises SIGSEGV. The handler records the faulting address, the faulting
// instruction pointer, the virtual timestamp and the logical call stack,
// un-protects the range, and resumes — the access then retries
// successfully. (The paper itself leans on mprotect for fix validation,
// §5.1.)
//
// The tracer arms once and stays armed across driver calls. A driver
// call runs inside a *driver window* (enter_driver() .. leave_driver()):
// the driver or a kernel body may legally touch registered memory there,
// so a fault inside a window lifts its range without a record, and
// leaving the window re-protects only the ranges that are not protected
// (the ones lifted or newly registered during the call). A call that
// touches no traced memory therefore costs no mprotect at all.
//
// Constraints honored outside a driver window (async-signal-safety):
//   * no allocation — the access log is pre-reserved at arm() and
//     leave_driver() time, and records beyond capacity are counted as
//     drops;
//   * no locks — the simulation is single-threaded, and registration,
//     unregistration and clearing the log are forbidden while armed.
// Inside a window the handler only lifts (no record), and the mutations
// above are allowed. The caller must lift a range before other threads
// read it inside a window (lift()), so the handler never runs on them.
//
// A registered range the application unmapped (mprotect fails with
// ENOMEM) is dropped and counted in stats().ranges_unmapped; every other
// mprotect failure is a broken invariant.
#pragma once

#include <csignal>
#include <cstdint>
#include <vector>

#include "support/clock.h"
#include "trace/callstack.h"

namespace diog::memtrace {

using RangeId = std::uint32_t;
inline constexpr RangeId kInvalidRange = 0;

inline constexpr std::size_t kMaxStackDepth = 32;

struct AccessRecord {
  RangeId range = kInvalidRange;
  std::uint64_t user_tag = 0;         // caller's identifier for the range
  const void* fault_address = nullptr;
  std::uintptr_t instruction_pointer = 0;
  TimePoint time{0};
  bool is_write = false;              // decoded from the fault error code
  const trace::Frame* frames[kMaxStackDepth] = {};
  std::size_t depth = 0;

  [[nodiscard]] trace::StackTrace stack() const;
};

// Process-lifetime tracer counters (callers diff snapshots).
struct TracerStats {
  std::uint64_t protect_calls = 0;    // mprotect syscalls, either direction
  std::uint64_t driver_lifts = 0;     // ranges lifted inside a driver window
  std::uint64_t ranges_unmapped = 0;  // ranges dropped: the app unmapped them

  [[nodiscard]] TracerStats since(const TracerStats& start) const {
    return {protect_calls - start.protect_calls,
            driver_lifts - start.driver_lifts,
            ranges_unmapped - start.ranges_unmapped};
  }
};

class PageTracer {
 public:
  // A process-wide singleton: the SIGSEGV handler needs a global anchor.
  static PageTracer& instance();

  PageTracer(const PageTracer&) = delete;
  PageTracer& operator=(const PageTracer&) = delete;

  // Register a page-aligned range for tracing. `user_tag` is echoed in
  // access records (stages use it to map back to allocations/transfers).
  // Must not be called while armed outside a driver window.
  RangeId register_range(void* ptr, std::size_t bytes, std::uint64_t user_tag);
  // Unprotects the range first if it is protected. Allowed where
  // register_range is.
  void unregister_range(RangeId id);
  void unregister_all();
  [[nodiscard]] std::size_t range_count() const;

  // Protect every registered range; the first access to each records and
  // unprotects it. `expected_accesses` pre-reserves the log.
  void arm(std::size_t expected_accesses = 1024);
  // Remove protection from all ranges without recording, and close any
  // open driver window.
  void disarm();
  [[nodiscard]] bool armed() const { return armed_; }

  // Open a driver window (see the header comment).
  void enter_driver();
  // Close it: re-protect every registered range that is not protected,
  // pre-reserving `expected_accesses` log slots. Afterwards the tracer
  // is armed exactly when a range is registered.
  void leave_driver(std::size_t expected_accesses);
  [[nodiscard]] bool in_driver() const { return in_driver_ != 0; }
  // Inside a driver window: lift every protected range overlapping
  // [ptr, ptr + bytes) without recording.
  void lift(const void* ptr, std::size_t bytes);

  [[nodiscard]] const std::vector<AccessRecord>& accesses() const {
    return accesses_;
  }
  [[nodiscard]] std::uint64_t dropped_accesses() const { return dropped_; }
  // Allowed where register_range is.
  void clear_accesses();

  [[nodiscard]] const TracerStats& stats() const { return stats_; }

  // Whether `ptr` falls inside a registered range (diagnostics/tests).
  [[nodiscard]] bool covers(const void* ptr) const;

 private:
  PageTracer();

  struct Range {
    RangeId id;
    std::uintptr_t begin;  // page-aligned
    std::uintptr_t end;    // page-aligned (exclusive)
    std::uint64_t user_tag;
    bool protected_now;
  };

  static void signal_handler(int sig, void* siginfo, void* ucontext);
  bool handle_fault(void* fault_addr, std::uintptr_t ip, bool is_write);
  void install_handler();
  [[nodiscard]] bool mutable_now() const { return !armed_ || in_driver_; }
  // mprotect one range; false (and counted) if the app unmapped it.
  bool set_protection(Range& r, bool protect);
  void protect_unprotected(std::size_t expected_accesses);

  std::vector<Range> ranges_;
  std::vector<AccessRecord> accesses_;
  std::uint64_t dropped_ = 0;
  TracerStats stats_;
  RangeId next_id_ = 1;
  bool armed_ = false;
  volatile std::sig_atomic_t in_driver_ = 0;  // read by the handler
  bool handler_installed_ = false;
};

}  // namespace diog::memtrace
