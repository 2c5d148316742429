#include "obs/telemetry.h"

#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>

#include "obs/heartbeat.h"
#include "support/error.h"

namespace diog::obs {

std::string schema_id(std::string_view name) {
  return "diogenes." + std::string(name) + ".v1";
}

Telemetry& Telemetry::global() {
  static Telemetry t;
  return t;
}

json::Object parallel_pool_summary(const MetricsRegistry& m) {
  std::uint64_t tasks = 0;
  std::uint64_t batches = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t wall_ns = 0;
  std::int64_t pool_size = 0;
  std::int64_t utilization_pct = 0;
  for (const CounterSnapshot& c : m.counters()) {
    if (c.name == "parallel.tasks") tasks = c.value;
    if (c.name == "parallel.batches") batches = c.value;
    if (c.name == "parallel.busy_ns") busy_ns = c.value;
    if (c.name == "parallel.wall_ns") wall_ns = c.value;
  }
  for (const GaugeSnapshot& g : m.gauges()) {
    if (g.name == "parallel.pool.size") pool_size = g.value;
    if (g.name == "parallel.utilization_pct") utilization_pct = g.value;
  }
  json::Object o;
  o["tasks"] = tasks;
  o["batches"] = batches;
  o["busy_ns"] = busy_ns;
  o["wall_ns"] = wall_ns;
  o["pool_size"] = pool_size;
  o["utilization_pct"] = utilization_pct;
  return o;
}

void Telemetry::reset() {
  metrics_.reset();
  spans_.reset();
  logger_.reset();
  accountant_.reset();
}

json::Value Telemetry::to_json() const {
  json::Object root;
  root["metrics"] = metrics_.to_json();
  json::Array spans;
  for (const SpanRecord& s : spans_.snapshot()) spans.push_back(s.to_json());
  root["spans"] = std::move(spans);
  root["overhead"] = accountant_.to_json();
  json::Array logs;
  for (const LogRecord& r : logger_.records()) logs.push_back(r.to_json());
  root["logs"] = std::move(logs);
  return json::Value(std::move(root));
}

json::Value Telemetry::metrics_document() const {
  json::Object o;
  o["schema"] = schema_id("metrics");
  o["metrics"] = metrics_.to_json();
  o["overhead"] = accountant_.to_json();
  // Additive v1-compatible section: pool utilization surfaced in a
  // fixed shape (the raw parallel.* instruments are still under
  // "metrics" when the pool ran).
  o["parallel"] = parallel_pool_summary(metrics_);
  return json::Value(std::move(o));
}

std::string Telemetry::to_jsonl() const {
  std::string out;
  auto emit = [&out](const json::Value& v) {
    out += v.dump();
    out += '\n';
  };

  for (const CounterSnapshot& c : metrics_.counters()) emit(c.to_json());
  for (const GaugeSnapshot& g : metrics_.gauges()) emit(g.to_json());
  for (const HistogramSnapshot& h : metrics_.histograms()) {
    emit(h.to_json());
  }
  for (const SpanRecord& s : spans_.snapshot()) {
    json::Value v = s.to_json();
    v["type"] = "span";
    emit(v);
  }
  for (const StageOverhead& s : accountant_.snapshot()) {
    emit(s.to_json());  // carries "type": "stage_overhead"
  }
  for (const LogRecord& r : logger_.records()) {
    emit(r.to_json());  // carries "type": "log"
  }
  return out;
}

void Telemetry::save_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("telemetry: cannot write file '" + path + "'");
  out << to_jsonl();
}

namespace {

std::mutex g_exit_mu;
std::string g_exit_path;  // NOLINT: intentionally leaked at exit
bool g_exit_hooks_installed = false;
std::terminate_handler g_prev_terminate = nullptr;

void flush_on_exit() { Telemetry::flush_exit_files(); }

[[noreturn]] void flush_on_terminate() {
  Telemetry::flush_exit_files();
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

void Telemetry::set_exit_flush(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_exit_mu);
  g_exit_path = path;
  if (!g_exit_hooks_installed) {
    g_exit_hooks_installed = true;
    // Construct the session before registering the hook: statics die in
    // reverse order of registration, so the flush runs while it lives.
    global();
    std::atexit(flush_on_exit);
    g_prev_terminate = std::set_terminate(flush_on_terminate);
  }
}

void Telemetry::flush_exit_files() {
  // Stop reporters first: their threads must not race the final flush,
  // and stopping terminates the heartbeat streams cleanly.
  HeartbeatReporter::stop_all();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(g_exit_mu);
    path.swap(g_exit_path);  // flush once, even if hooks fire twice
  }
  if (path.empty()) return;
  try {
    global().save_jsonl(path);
  } catch (...) {
    // Exit paths must not throw; a failed flush just loses telemetry.
  }
}

}  // namespace diog::obs
