#include "obs/heartbeat.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "obs/telemetry.h"
#include "support/clock.h"
#include "support/error.h"

namespace diog::obs {

namespace {

std::atomic<std::uint64_t> g_request_seq{0};
std::atomic<const char*> g_current_stage{""};

void on_sigusr1(int /*signo*/) {
  // The only thing a handler may do here: bump a lock-free atomic. The
  // reporter thread and the flight recorder poll the sequence.
  g_request_seq.fetch_add(1, std::memory_order_relaxed);
}

std::mutex g_reporters_mu;
std::vector<HeartbeatReporter*>& live_reporters() {
  static auto* v = new std::vector<HeartbeatReporter*>();
  return *v;
}

}  // namespace

void install_checkpoint_signal_handler() {
  struct sigaction sa{};
  sa.sa_handler = on_sigusr1;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGUSR1, &sa, nullptr);
}

void request_checkpoint() {
  g_request_seq.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t checkpoint_request_seq() {
  return g_request_seq.load(std::memory_order_relaxed);
}

void set_current_stage(const char* name) {
  g_current_stage.store(name != nullptr ? name : "",
                        std::memory_order_relaxed);
}

const char* current_stage() {
  return g_current_stage.load(std::memory_order_relaxed);
}

HeartbeatReporter::HeartbeatReporter(Options opts, Provider provider)
    : opts_(std::move(opts)), provider_(std::move(provider)) {
  if (opts_.interval.count() <= 0) {
    opts_.interval = std::chrono::milliseconds(1000);
  }
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(opts_.path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  f_ = std::fopen(opts_.path.c_str(), "wb");
  DIOG_CHECK(f_ != nullptr,
             "heartbeat: cannot open '" + opts_.path + "' for writing");

  {
    std::lock_guard<std::mutex> lock(g_reporters_mu);
    live_reporters().push_back(this);
  }
  // Exit hardening even without --telemetry: the first reporter ever
  // constructed wires stop_all into atexit.
  static const bool hooks = [] {
    std::atexit([] { HeartbeatReporter::stop_all(); });
    return true;
  }();
  (void)hooks;

  last_request_seq_ = checkpoint_request_seq();
  {
    // First record immediately: followers see a live file right away.
    std::lock_guard<std::mutex> lock(mu_);
    emit_locked(/*final=*/false);
  }
  thread_ = std::thread(&HeartbeatReporter::thread_main, this);
}

HeartbeatReporter::~HeartbeatReporter() { stop(); }

void HeartbeatReporter::thread_main() {
  std::unique_lock<std::mutex> lock(mu_);
  auto last_emit = std::chrono::steady_clock::now();
  while (!stop_requested_) {
    // Short wait slices so a SIGUSR1 bump is noticed well inside one
    // interval (the handler cannot notify a condition variable).
    const auto slice =
        std::min(opts_.interval, std::chrono::milliseconds(20));
    cv_.wait_for(lock, slice);
    if (stop_requested_) break;
    const std::uint64_t seq = checkpoint_request_seq();
    const auto now = std::chrono::steady_clock::now();
    if (seq != last_request_seq_ || now - last_emit >= opts_.interval) {
      last_request_seq_ = seq;
      emit_locked(/*final=*/false);
      last_emit = now;
    }
  }
}

void HeartbeatReporter::emit_locked(bool final) {
  if (f_ == nullptr) return;
  json::Object o = provider_ ? provider_() : json::Object{};
  o["schema"] = schema_id("heartbeat");
  o["type"] = "heartbeat";
  o["t_wall_ms"] = wall_clock_ms();
  o["seq"] = emitted_;
  o["stage"] = std::string(current_stage());
  o["checkpoint_requests"] = checkpoint_request_seq();
  // Additive v1-compatible section (same shape as the metrics document):
  // a fleet scraper tailing heartbeats sees pool utilization without
  // waiting for the final telemetry flush.
  o["parallel"] = parallel_pool_summary(Telemetry::global().metrics());
  if (final) o["final"] = true;
  const std::string line = json::Value(std::move(o)).dump() + "\n";
  // One whole line per write, flushed: a crash between heartbeats never
  // leaves a torn record.
  std::fwrite(line.data(), 1, line.size(), f_);
  std::fflush(f_);
  ++emitted_;
}

void HeartbeatReporter::emit_now() {
  std::lock_guard<std::mutex> lock(mu_);
  emit_locked(/*final=*/false);
}

std::uint64_t HeartbeatReporter::emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emitted_;
}

void HeartbeatReporter::stop() {
  std::thread t;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
    t.swap(thread_);
  }
  cv_.notify_all();
  if (t.joinable()) t.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    emit_locked(/*final=*/true);
    if (f_ != nullptr) {
      std::fclose(f_);
      f_ = nullptr;
    }
  }
  std::lock_guard<std::mutex> lock(g_reporters_mu);
  auto& v = live_reporters();
  v.erase(std::remove(v.begin(), v.end(), this), v.end());
}

void HeartbeatReporter::stop_all() {
  std::vector<HeartbeatReporter*> copy;
  {
    std::lock_guard<std::mutex> lock(g_reporters_mu);
    copy = live_reporters();
  }
  for (HeartbeatReporter* r : copy) r->stop();
}

}  // namespace diog::obs
