#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/telemetry.h"

namespace diog::par {

namespace {

constexpr std::size_t kMaxThreads = 1024;

std::atomic<std::size_t> g_override{0};
thread_local bool t_pool_worker = false;

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

// One parallel_for invocation. Indices are claimed from `next`; the
// caller and the workers all drain the same counter. The first
// exception BY INDEX (not by completion time) is kept, so the rethrown
// error does not depend on scheduling.
struct Batch {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* fn = nullptr;

  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> busy_ns{0};

  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t finished = 0;
  std::exception_ptr exc;
  std::size_t exc_index = std::numeric_limits<std::size_t>::max();

  [[nodiscard]] bool exhausted() const {
    return next.load(std::memory_order_relaxed) >= n;
  }

  void drain() {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t done_here = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*fn)(i);
        ++done_here;
      } catch (...) {
        ++done_here;
        std::lock_guard<std::mutex> lock(mu);
        if (i < exc_index) {
          exc = std::current_exception();
          exc_index = i;
        }
      }
    }
    if (done_here == 0) return;
    busy_ns.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    finished += done_here;
    if (finished == n) done_cv.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return finished == n; });
  }
};

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads) : threads_(threads) {
    workers_.reserve(threads_ - 1);
    for (std::size_t i = 0; i + 1 < threads_; ++i) {
      workers_.emplace_back([this] { worker(); });
    }
    if (obs::Telemetry::enabled()) {
      obs::Telemetry::global().metrics().gauge("parallel.pool.size").set(
          static_cast<std::int64_t>(threads_));
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t threads() const { return threads_; }

  void run(std::size_t n, const std::function<void(std::size_t)>& fn) {
    const auto batch = std::make_shared<Batch>();
    batch->n = n;
    batch->fn = &fn;
    // Start the wall clock BEFORE the batch becomes visible: workers can
    // finish the whole batch while the caller is preempted right after
    // notify_all, and a t0 taken later would undercount wall so badly
    // that busy/(wall*threads) reads as thousands of percent.
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(batch);
    }
    cv_.notify_all();

    batch->drain();  // the caller is one of the pool's threads
    batch->wait();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (*it == batch) {
          queue_.erase(it);
          break;
        }
      }
    }

    if (obs::Telemetry::enabled()) {
      const std::uint64_t wall = elapsed_ns(t0);
      const std::uint64_t busy =
          batch->busy_ns.load(std::memory_order_relaxed);
      auto& m = obs::Telemetry::global().metrics();
      m.counter("parallel.batches").inc();
      m.counter("parallel.tasks").inc(n);
      m.counter("parallel.busy_ns").inc(busy);
      m.counter("parallel.wall_ns").inc(wall);
      if (wall > 0) {
        // Fraction of the pool's capacity this batch actually used.
        m.gauge("parallel.utilization_pct")
            .set(static_cast<std::int64_t>(
                busy * 100 / (wall * threads_)));
      }
    }
    if (batch->exc) std::rethrow_exception(batch->exc);
  }

 private:
  void worker() {
    t_pool_worker = true;
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        if (queue_.empty()) continue;
        batch = queue_.front();
        if (batch->exhausted()) {
          // Fully claimed; the owning run() erases it, but drop it from
          // the front so later batches become visible.
          queue_.pop_front();
          continue;
        }
      }
      batch->drain();
    }
  }

  const std::size_t threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Batch>> queue_;
  bool stop_ = false;
};

// The shared pool, rebuilt when the configured size changes. Callers
// hold a shared_ptr across run() so a concurrent rebuild cannot destroy
// a pool that is mid-batch.
std::shared_ptr<ThreadPool> acquire_pool(std::size_t want) {
  static std::mutex mu;
  static std::shared_ptr<ThreadPool> pool;
  std::lock_guard<std::mutex> lock(mu);
  if (!pool || pool->threads() != want) {
    pool.reset();  // join the old workers before spawning the new set
    pool = std::make_shared<ThreadPool>(want);
  }
  return pool;
}

}  // namespace

std::size_t hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t configured_threads() {
  if (const std::size_t o = g_override.load(std::memory_order_relaxed);
      o != 0) {
    return o;
  }
  return hardware_threads();
}

void set_threads(std::size_t n) {
  g_override.store(std::min(n, kMaxThreads), std::memory_order_relaxed);
}

std::size_t threads_override() {
  return g_override.load(std::memory_order_relaxed);
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t threads = configured_threads();
  if (threads <= 1 || n == 1 || t_pool_worker) {
    // The serial path: index order, first failure propagates — which is
    // also the lowest-index failure, matching the pool's contract.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  acquire_pool(threads)->run(n, fn);
}

}  // namespace diog::par
