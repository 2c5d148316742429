// RAII span instrumentation for the tool's own code paths.
//
//   DIOG_SPAN("stage2.trace_sync");
//
// opens a span that closes at scope exit. Spans nest (a thread-local
// stack tracks the parent), are timed on the host's steady clock — this
// is *tool* time, not the simulation's virtual time — and land in a
// SpanCollector that the chrome_trace exporter renders as a dedicated
// "diogenes-internal" track. With DIOG_OBS_ENABLED=0 the macro expands
// to nothing.
//
// Each span also records `minflt`, the minor page faults taken while it
// was open: the getrusage(RUSAGE_SELF) ru_minflt delta between open and
// close. RUSAGE_SELF counts every thread of the process, so a span
// includes its pool workers' faults, and a span on one thread also
// counts faults that other threads took meanwhile. Fault counts are not
// deterministic, so they appear in --telemetry JSONL only, never in run
// files, exports or the oracle.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.h"
#include "obs/obs.h"

namespace diog::obs {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  // steady-clock ns since the collector epoch
  std::int64_t end_ns = -1;   // -1 while the span is still open
  int depth = 0;              // 0 = top-level
  std::int64_t parent = -1;   // index into the collector, -1 for roots
  std::int64_t minflt = 0;    // minor faults while open (0 until closed)

  [[nodiscard]] std::int64_t duration_ns() const {
    return end_ns < start_ns ? 0 : end_ns - start_ns;
  }
  [[nodiscard]] json::Value to_json() const;
};

class SpanCollector {
 public:
  SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  // Nanoseconds of host time since this collector was constructed (or
  // last reset).
  [[nodiscard]] std::int64_t now_ns() const;

  // Records in open order; still-open spans have end_ns == -1.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  [[nodiscard]] std::size_t size() const;

  void reset();

  // Span bookkeeping (public so tests can drive it without the macro).
  std::int64_t open(std::string_view name);
  void close(std::int64_t index);

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_minflt_;  // ru_minflt at each span's open
  std::chrono::steady_clock::time_point epoch_;
};

// The RAII handle. Inactive (records nothing) when telemetry is
// runtime-disabled or compiled out.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;  // -1 = inactive
};

#if DIOG_OBS_ENABLED
#define DIOG_OBS_CONCAT_INNER(a, b) a##b
#define DIOG_OBS_CONCAT(a, b) DIOG_OBS_CONCAT_INNER(a, b)
#define DIOG_SPAN(name) \
  ::diog::obs::Span DIOG_OBS_CONCAT(diog_obs_span_, __LINE__) { name }
#else
#define DIOG_SPAN(name) ((void)0)
#endif

}  // namespace diog::obs
