#include "obs/span.h"

#include <sys/resource.h>

#include "obs/telemetry.h"

namespace diog::obs {

namespace {

// Per-thread stack of open span indices (into the global collector).
thread_local std::vector<std::int64_t> t_open_spans;

std::int64_t process_minflt() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

}  // namespace

json::Value SpanRecord::to_json() const {
  json::Object o;
  o["name"] = name;
  o["start_ns"] = start_ns;
  o["dur_ns"] = duration_ns();
  o["depth"] = depth;
  o["parent"] = parent;
  o["minflt"] = minflt;
  return json::Value(std::move(o));
}

SpanCollector::SpanCollector() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t SpanCollector::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::vector<SpanRecord> SpanCollector::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t SpanCollector::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void SpanCollector::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  open_minflt_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

std::int64_t SpanCollector::open(std::string_view name) {
  const std::int64_t faults = process_minflt();
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord r;
  r.name = std::string(name);
  r.start_ns = start;
  r.depth = static_cast<int>(t_open_spans.size());
  r.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  const auto index = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(std::move(r));
  open_minflt_.push_back(faults);
  t_open_spans.push_back(index);
  return index;
}

void SpanCollector::close(std::int64_t index) {
  const std::int64_t end = now_ns();
  const std::int64_t faults = process_minflt();
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= 0 && index < static_cast<std::int64_t>(spans_.size())) {
    const auto i = static_cast<std::size_t>(index);
    spans_[i].end_ns = end;
    spans_[i].minflt = faults - open_minflt_[i];
  }
  if (!t_open_spans.empty() && t_open_spans.back() == index) {
    t_open_spans.pop_back();
  }
}

Span::Span(std::string_view name) {
#if DIOG_OBS_ENABLED
  if (Telemetry::enabled()) {
    index_ = Telemetry::global().spans().open(name);
  }
#else
  (void)name;
#endif
}

Span::~Span() {
#if DIOG_OBS_ENABLED
  if (index_ >= 0) Telemetry::global().spans().close(index_);
#endif
}

}  // namespace diog::obs
