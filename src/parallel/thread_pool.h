// A small fixed-size thread pool with chunked work distribution and a
// determinism contract.
//
// parallel_for(n, fn) runs fn(0..n-1) across the configured number of
// threads. The caller participates, indices are claimed from a shared
// atomic counter, and — the load-bearing property — every consumer
// stores its result BY INDEX and reduces in index order, so the merged
// output is identical at any thread count. Exceptions thrown by tasks
// are captured per index and the one with the LOWEST index is rethrown
// after the batch drains: error selection is deterministic too, and a
// failure on a worker thread surfaces as the same classified error the
// serial path would raise.
//
// Thread count resolution: set_threads() (the --threads flag) wins,
// then hardware_concurrency. A count of 1 bypasses the pool entirely —
// parallel_for degenerates to a plain serial loop, which IS the
// pre-parallel code path. Nested parallel_for calls (a task that itself
// fans out) also run inline on the worker, so composition can never
// deadlock the fixed-size pool.
#pragma once

#include <cstddef>
#include <functional>

namespace diog::par {

// max(1, std::thread::hardware_concurrency()).
std::size_t hardware_threads();

// Effective thread count: the override if set, else hardware.
std::size_t configured_threads();

// Programmatic override (the --threads flag). 0 restores hardware
// concurrency. Takes effect on the next parallel_for; the shared pool is
// rebuilt lazily when the size changes.
void set_threads(std::size_t n);
[[nodiscard]] std::size_t threads_override();

// Runs fn(i) for every i in [0, n), distributing indices over the
// configured threads; blocks until all complete. Serial (and identical
// to a plain loop) when the configured count is 1, n < 2, or the caller
// is itself a pool worker.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

// Worker-local reusable state: one instance per OS thread (pool workers
// and callers alike), default-constructed on first use and reused
// across batches. This is the arena hook for parallel encode/decode —
// scratch that would otherwise be allocated per work item lives here
// for the thread's lifetime instead.
template <typename T>
T& worker_local() {
  thread_local T v;
  return v;
}

}  // namespace diog::par
