// Virtual time for the Diogenes reproduction.
//
// Every component of the simulated stack (GPU runtime, tool stages,
// workloads) shares one virtual clock. CPU work is modeled by explicit
// `advance` calls; synchronization with the simulated GPU advances the
// clock to the completion time of outstanding device work. Using a
// virtual clock makes every experiment deterministic and lets the
// benchmarks reproduce the paper's minutes-long executions in
// milliseconds of real time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace diog {

using Duration = std::chrono::nanoseconds;
// A point on the virtual timeline, expressed as nanoseconds since the
// start of the current simulated run.
using TimePoint = std::chrono::nanoseconds;

// Sentinel for "never completes" (the never-completing probe kernel used
// by stage-1 sync-function discovery launches work with this duration).
inline constexpr Duration kInfiniteDuration{std::numeric_limits<std::int64_t>::max() / 4};
inline constexpr TimePoint kNeverTime{std::numeric_limits<std::int64_t>::max() / 2};

inline constexpr Duration ns(std::int64_t v) { return Duration{v}; }
inline constexpr Duration us(std::int64_t v) { return Duration{v * 1000}; }
inline constexpr Duration ms(std::int64_t v) { return Duration{v * 1000 * 1000}; }
inline constexpr Duration secs(double v) {
  return Duration{static_cast<std::int64_t>(v * 1e9)};
}
inline constexpr double to_seconds(Duration d) {
  return static_cast<double>(d.count()) / 1e9;
}

// Real wall-clock time in milliseconds since the Unix epoch. Only for
// stamps that leave the process (run-file footers, heartbeats, archive
// ingest, a run's age), never for the simulated timeline.
inline std::int64_t wall_clock_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// The single virtual clock for a simulated run. One instance lives inside
// each gpusim::Runtime; a global mirror of the current reading is kept in
// an atomic so that async-signal contexts (the page-protection tracer's
// SIGSEGV handler) can timestamp accesses without taking locks.
class VirtualClock {
 public:
  VirtualClock() { publish(); }

  [[nodiscard]] TimePoint now() const { return now_; }

  // Advance by a (non-negative) amount of simulated work.
  void advance(Duration d);

  // Advance to an absolute virtual time; no-op if `t` is in the past.
  void advance_to(TimePoint t);

  // Reset to t=0 (used between the tool's separate runs of a workload).
  void reset();

  // Reading usable from a signal handler: the most recently published
  // virtual time across all clocks (single-threaded simulation, so there
  // is exactly one live clock at a time).
  static TimePoint signal_safe_now() {
    return TimePoint{published_now_ns_.load(std::memory_order_relaxed)};
  }

 private:
  void publish() {
    published_now_ns_.store(now_.count(), std::memory_order_relaxed);
  }

  TimePoint now_{0};
  static std::atomic<std::int64_t> published_now_ns_;
};

}  // namespace diog
