// Event-store microbenchmarks: append/scan throughput, storage density,
// and the allocation-free-append contract, at 10K / 100K / 1M events.
//
// The store is the carrier for everything the pipeline observes, so its
// hot append path runs inside instrumentation callbacks — the numbers
// here bound the tool-side perturbation per observed event (the paper's
// honesty criterion applied to our own data plane).
//
// Modes:
//   bench_eventstore                      full sweep, prints a table and
//                                         writes BENCH_eventstore.json
//   bench_eventstore --out FILE           JSON to FILE instead
//   bench_eventstore --events N --stress-file PATH
//                                         CI stress: append N synthetic
//                                         events, save to PATH, reopen,
//                                         verify; exit nonzero on any
//                                         mismatch.
//   bench_eventstore --min-scan-speedup X --min-save-speedup Y
//                                         CI perf bar: exit nonzero if
//                                         the 8-thread full-extent
//                                         bin_events (save) speedup
//                                         over 1 thread (row medians)
//                                         falls below the floor. Only
//                                         meaningful on multi-core
//                                         hardware; the CI job gates on
//                                         hardware_concurrency.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eventstore/aggregate.h"
#include "eventstore/cursor.h"
#include "eventstore/event_store.h"
#include "eventstore/run_io.h"
#include "json/json.h"
#include "parallel/thread_pool.h"
#include "support/strings.h"
#include "trace/callstack.h"

// Global allocation counter so the bench can report allocations per
// appended event (the contract is zero on the hot path).
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Compiled out under sanitizers: replacing global new/delete conflicts
// with their allocator interposition (allocs/ev then reports 0).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DIOG_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DIOG_COUNT_ALLOCS 0
#endif
#endif
#ifndef DIOG_COUNT_ALLOCS
#define DIOG_COUNT_ALLOCS 1
#endif

#if DIOG_COUNT_ALLOCS
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // DIOG_COUNT_ALLOCS

namespace diog::evstore {
namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A realistic event stream in the order the staged pipeline actually
// writes it: the op stream first (stages 1-2, as the app runs), then
// the sync-classification pass (stage 3), then the tool's own internal
// spans (stage 5). Long single-kind runs are what make the store's
// per-segment/per-block kind masks selective — a round-robin
// interleaving would leave every mask all-inclusive and pushdown could
// never skip anything, which is how this bench used to (honestly)
// report filtered_segments_skipped: 0 at every size.
struct Synthesizer {
  std::vector<StackId> stacks;
  NameId span_name = kNoName;
  std::uint64_t ops_end = 0;  // rows [0, ops_end) are kOp
  std::uint64_t cls_end = 0;  // rows [ops_end, cls_end) classifications

  void prepare(EventStore& store, std::uint64_t n) {
    for (int s = 0; s < 16; ++s) {
      const trace::Frame* frames[3];
      frames[0] = trace::FrameTable::instance().intern("bench_main",
                                                       "bench.cu", 10);
      frames[1] = trace::FrameTable::instance().intern(
          "phase_" + std::to_string(s % 4), "bench.cu", 50 + s % 4);
      frames[2] = trace::FrameTable::instance().intern(
          "site_" + std::to_string(s), "bench.cu", 100 + s);
      stacks.push_back(store.intern_stack(frames, 3));
    }
    span_name = store.intern_name("bench.span");
    ops_end = std::max<std::uint64_t>(1, n * 3 / 5);
    cls_end = std::max<std::uint64_t>(ops_end, n * 9 / 10);
  }

  Event make(std::uint64_t i) const {
    Event e;
    if (i >= cls_end) {
      e.kind = EventKind::kInternalSpan;
      e.name = span_name;
      e.t_start = static_cast<std::int64_t>(i * 100);
      e.t_end = e.t_start + 400;
    } else if (i >= ops_end) {
      e.kind = EventKind::kSyncClassification;
      e.op_index = (i - ops_end) % ops_end;
      e.set(flag::kSyncRequired, i % 2 == 1);
    } else {
      e.kind = EventKind::kOp;
      e.set_fn(i % 3 == 0 ? hooks::Fn::kCudaMemcpy : hooks::Fn::kCudaFree);
      e.op_index = i;
      e.t_start = static_cast<std::int64_t>(i * 100);
      e.t_end = e.t_start + 80;
      e.aux_time = static_cast<std::int64_t>(i % 50);
      e.bytes = (i % 7) * 4096;
      if (i % 3 == 0) {
        e.set(flag::kPerformedTransfer);
        e.set_direction(hooks::MemcpyKind::kHostToDevice);
      }
    }
    e.stack = stacks[i % stacks.size()];
    return e;
  }
};

struct SizeResult {
  std::uint64_t events = 0;
  double append_ms = 0;
  double scan_ms = 0;
  double filtered_scan_ms = 0;
  double bytes_per_event = 0;
  double allocs_per_event = 0;
  std::uint64_t segments = 0;
  std::uint64_t filtered_segments_skipped = 0;
  std::uint64_t filtered_blocks_skipped = 0;
};

SizeResult bench_size(std::uint64_t n) {
  SizeResult r;
  r.events = n;

  EventStore store;
  Synthesizer syn;
  syn.prepare(store, n);

  // Warm the first segment so the measured loop sees the steady state.
  store.append(syn.make(0));

  const std::size_t allocs_before = g_allocations.load();
  const double t0 = now_ms();
  for (std::uint64_t i = 1; i < n; ++i) store.append(syn.make(i));
  r.append_ms = now_ms() - t0;
  r.allocs_per_event =
      static_cast<double>(g_allocations.load() - allocs_before) /
      static_cast<double>(n - 1);

  const double t1 = now_ms();
  std::uint64_t checksum = 0;
  Cursor all(store);
  all.for_each([&](const Event& e) { checksum += e.op_index + e.bytes; });
  r.scan_ms = now_ms() - t1;

  const double t2 = now_ms();
  Cursor filtered = Cursor(store)
                        .kind(EventKind::kOp)
                        .api(hooks::Fn::kCudaMemcpy)
                        .flags_all(flag::kPerformedTransfer);
  std::uint64_t matched = 0;
  filtered.for_each([&](const Event&) { ++matched; });
  r.filtered_scan_ms = now_ms() - t2;
  r.filtered_segments_skipped = filtered.segments_skipped();
  r.filtered_blocks_skipped = filtered.blocks_skipped();

  r.bytes_per_event = static_cast<double>(store.bytes_reserved()) /
                      static_cast<double>(store.size());
  r.segments = store.segment_count();
  if (checksum == 0 && matched == 0) std::printf("(unexpected empty scan)\n");
  return r;
}

double events_per_s(std::uint64_t n, double ms) {
  return ms > 0 ? static_cast<double>(n) / (ms / 1000.0) : 0.0;
}

// Flight-recorder variant: same synthetic stream, but the store runs as
// a bounded ring. Measures the eviction tax on append throughput and
// proves the resident-byte bound holds while events keep flowing.
struct RingResult {
  std::uint64_t events = 0;
  std::uint64_t measured = 0;
  std::uint64_t retained = 0;
  std::uint64_t dropped = 0;
  std::uint64_t evicted_segments = 0;
  double append_ms = 0;
  double allocs_per_event = 0;
  std::uint64_t bytes_reserved_hwm = 0;
};

RingResult bench_ring(std::uint64_t n, std::uint64_t max_events) {
  RingResult r;
  r.events = n;

  EventStore store;
  store.set_retention(RetentionPolicy{.max_events = max_events});
  Synthesizer syn;
  syn.prepare(store, n);

  // Warm past the first full ring so the measured loop is all
  // steady-state: every segment boundary crossed evicts one in front.
  const std::uint64_t warm = max_events + kSegmentRows;
  std::uint64_t i = 0;
  for (; i < warm && i < n; ++i) store.append(syn.make(i));

  const std::size_t allocs_before = g_allocations.load();
  const double t0 = now_ms();
  for (; i < n; ++i) {
    store.append(syn.make(i));
    if (i % kSegmentRows == 0) {
      r.bytes_reserved_hwm =
          std::max(r.bytes_reserved_hwm,
                   static_cast<std::uint64_t>(store.bytes_reserved()));
    }
  }
  r.append_ms = now_ms() - t0;
  r.measured = n > warm ? n - warm : 0;
  r.allocs_per_event =
      r.measured > 0
          ? static_cast<double>(g_allocations.load() - allocs_before) /
                static_cast<double>(r.measured)
          : 0.0;
  r.bytes_reserved_hwm =
      std::max(r.bytes_reserved_hwm,
               static_cast<std::uint64_t>(store.bytes_reserved()));
  r.retained = store.size();
  r.dropped = store.dropped_events();
  r.evicted_segments = store.evicted_segments();
  return r;
}

// One row of the thread sweep: the same 1M-event store binned, saved,
// and reopened through the parallel paths at a pinned thread count.
// The scans are the explorer's production scan — bin_events over the
// run's full extent at 1024 bins, the /api/timeline full-view request —
// unfiltered and with a kind/api/flags filter. The byte-identity
// contract (oracle-enforced) means every row computes the same answers;
// only the wall clock may move.
struct ParallelResult {
  std::size_t threads = 0;
  double bin_ms = 0;
  double filtered_bin_ms = 0;
  double save_ms = 0;
  double open_ms = 0;
  std::uint64_t matched = 0;
  std::uint64_t filtered_segments_skipped = 0;
  std::uint64_t filtered_blocks_skipped = 0;
};

ParallelResult bench_parallel(const TraceRun& run, std::size_t tc) {
  ParallelResult r;
  r.threads = tc;
  par::set_threads(tc);
  const EventStore& store = *run.store;
  const TimeExtent ext = time_extent(store, Cursor(store));
  constexpr std::uint32_t kBins = 1024;

  const double t0 = now_ms();
  const std::uint64_t total =
      bin_events(store, Cursor(store), ext.t_min, ext.t_max + 1, kBins)
          .matched;
  r.bin_ms = now_ms() - t0;

  const double t1 = now_ms();
  const BinnedSpans filtered =
      bin_events(store,
                 Cursor(store)
                     .kind(EventKind::kOp)
                     .api(hooks::Fn::kCudaMemcpy)
                     .flags_all(flag::kPerformedTransfer),
                 ext.t_min, ext.t_max + 1, kBins);
  r.filtered_bin_ms = now_ms() - t1;
  r.matched = filtered.matched;
  r.filtered_segments_skipped = filtered.stats.segments_skipped;
  r.filtered_blocks_skipped = filtered.stats.blocks_skipped;

  const std::string tmp =
      "bench_eventstore_par_" + std::to_string(tc) + ".dgtrace";
  const double t2 = now_ms();
  save_run(tmp, run);
  r.save_ms = now_ms() - t2;
  const double t3 = now_ms();
  const TraceRun back = open_run(tmp);
  r.open_ms = now_ms() - t3;
  std::remove(tmp.c_str());
  if (total != store.size() || back.store->size() != store.size()) {
    std::printf("(parallel row at %zu threads saw a size mismatch!)\n", tc);
  }
  return r;
}

int run_sweep(const std::string& out_path, double min_scan_speedup,
              double min_save_speedup) {
  std::printf("event store bench: append/scan throughput, density\n");
  std::printf("%10s %12s %12s %12s %10s %10s\n", "events", "append/s",
              "scan/s", "filt scan/s", "bytes/ev", "allocs/ev");

  json::Array sizes;
  for (const std::uint64_t n : {std::uint64_t{10'000}, std::uint64_t{100'000},
                                std::uint64_t{1'000'000}}) {
    const SizeResult r = bench_size(n);
    std::printf("%10llu %12.3g %12.3g %12.3g %10.1f %10.4f\n",
                static_cast<unsigned long long>(n),
                events_per_s(n, r.append_ms), events_per_s(n, r.scan_ms),
                events_per_s(n, r.filtered_scan_ms), r.bytes_per_event,
                r.allocs_per_event);
    json::Object o;
    o["events"] = static_cast<std::int64_t>(r.events);
    o["append_ms"] = r.append_ms;
    o["append_events_per_s"] = events_per_s(n, r.append_ms);
    o["scan_ms"] = r.scan_ms;
    o["scan_events_per_s"] = events_per_s(n, r.scan_ms);
    o["filtered_scan_ms"] = r.filtered_scan_ms;
    o["filtered_segments_skipped"] =
        static_cast<std::int64_t>(r.filtered_segments_skipped);
    o["filtered_blocks_skipped"] =
        static_cast<std::int64_t>(r.filtered_blocks_skipped);
    o["bytes_per_event"] = r.bytes_per_event;
    o["allocs_per_event"] = r.allocs_per_event;
    o["segments"] = static_cast<std::int64_t>(r.segments);
    sizes.emplace_back(std::move(o));
  }

  // Ring (flight-recorder) mode: 1M events through a 2-segment window.
  const RingResult ring = bench_ring(1'000'000, 2 * kSegmentRows);
  std::printf("ring mode (%llu-event window): %llu events, append %.3g/s, "
              "%.4f allocs/ev, %llu dropped in %llu segment(s), "
              "resident hwm %s\n",
              static_cast<unsigned long long>(2 * kSegmentRows),
              static_cast<unsigned long long>(ring.events),
              events_per_s(ring.measured, ring.append_ms),
              ring.allocs_per_event,
              static_cast<unsigned long long>(ring.dropped),
              static_cast<unsigned long long>(ring.evicted_segments),
              format_bytes(static_cast<std::size_t>(ring.bytes_reserved_hwm))
                  .c_str());

  // Save/open round trip at 1M events: the CI stress path, timed.
  TraceRun run;
  run.meta.workload = "bench_eventstore";
  Synthesizer syn;
  const std::uint64_t n = 1'000'000;
  syn.prepare(*run.store, n);
  for (std::uint64_t i = 0; i < n; ++i) run.store->append(syn.make(i));
  const std::string tmp = "bench_eventstore_tmp.dgtrace";
  const double t0 = now_ms();
  save_run(tmp, run);
  const double save_ms = now_ms() - t0;
  RunFileInfo finfo;
  const double t1 = now_ms();
  const TraceRun back = open_run(tmp, ReadMode::kAuto, &finfo);
  const double open_ms = now_ms() - t1;
  std::remove(tmp.c_str());
  std::printf("1M-event run file: save %.1f ms, open %.1f ms, %s on disk "
              "(v%u, columns %.2fx compressed)\n",
              save_ms, open_ms,
              format_bytes(static_cast<std::size_t>(finfo.bytes_consumed))
                  .c_str(),
              finfo.format_version, finfo.compression_ratio());

  // Thread sweep over the same 1M-event run: full-extent bin_events,
  // filtered bin_events (with pushdown counters), save, open at 1/2/8
  // threads. Each row is the median of kSweepRounds samples taken in
  // interleaved rounds (1, 2, 8 threads per round), so a slow minute on
  // a shared machine lands on every thread count alike.
  constexpr std::size_t kSweepRounds = 5;
  const std::size_t thread_counts[] = {1, 2, 8};
  std::vector<std::vector<ParallelResult>> samples(std::size(thread_counts));
  const std::size_t ambient = par::threads_override();
  for (std::size_t round = 0; round < kSweepRounds; ++round) {
    for (std::size_t t = 0; t < std::size(thread_counts); ++t) {
      samples[t].push_back(bench_parallel(run, thread_counts[t]));
    }
  }
  par::set_threads(ambient);

  std::printf("%8s %12s %14s %10s %10s %10s  (median of %zu)\n", "threads",
              "bin/s", "filt bin/s", "seg skip", "save ms", "open ms",
              kSweepRounds);
  json::Array par_rows;
  std::vector<ParallelResult> medians;
  for (const std::vector<ParallelResult>& rows : samples) {
    ParallelResult p = rows.front();
    json::Object po;
    po["threads"] = static_cast<std::int64_t>(p.threads);
    po["samples"] = static_cast<std::int64_t>(rows.size());
    for (const auto& [key, field] :
         {std::pair{"bin_ms", &ParallelResult::bin_ms},
          std::pair{"filtered_bin_ms", &ParallelResult::filtered_bin_ms},
          std::pair{"save_ms", &ParallelResult::save_ms},
          std::pair{"open_ms", &ParallelResult::open_ms}}) {
      std::vector<double> v;
      for (const ParallelResult& r : rows) v.push_back(r.*field);
      std::sort(v.begin(), v.end());
      p.*field = (v[(v.size() - 1) / 2] + v[v.size() / 2]) / 2;
      po[key] = p.*field;
      po[std::string(key) + "_min"] = v.front();
      po[std::string(key) + "_max"] = v.back();
    }
    po["bin_events_per_s"] = events_per_s(n, p.bin_ms);
    po["filtered_matched"] = static_cast<std::int64_t>(p.matched);
    po["filtered_segments_skipped"] =
        static_cast<std::int64_t>(p.filtered_segments_skipped);
    po["filtered_blocks_skipped"] =
        static_cast<std::int64_t>(p.filtered_blocks_skipped);
    par_rows.emplace_back(std::move(po));
    std::printf("%8zu %12.3g %14.3g %10llu %10.1f %10.1f\n", p.threads,
                events_per_s(n, p.bin_ms),
                events_per_s(n, p.filtered_bin_ms),
                static_cast<unsigned long long>(p.filtered_segments_skipped),
                p.save_ms, p.open_ms);
    medians.push_back(p);
  }

  // 8-thread speedup over the 1-thread row (medians), for the CI perf
  // bar. The filtered bin is too fast (pushdown skips nearly
  // everything) to time stably, so the bar watches the full-extent bin
  // and the save.
  const ParallelResult& one = medians.front();
  const ParallelResult& eight = medians.back();
  const double bin_speedup =
      eight.bin_ms > 0 ? one.bin_ms / eight.bin_ms : 0.0;
  const double save_speedup =
      eight.save_ms > 0 ? one.save_ms / eight.save_ms : 0.0;
  std::printf("8-thread speedup: bin_events %.2fx, save %.2fx "
              "(%u hardware thread(s))\n",
              bin_speedup, save_speedup,
              std::thread::hardware_concurrency());

  json::Object root;
  root["bench"] = std::string("eventstore");
  root["sizes"] = std::move(sizes);
  json::Object ring_o;
  ring_o["events"] = static_cast<std::int64_t>(ring.events);
  ring_o["window_events"] = static_cast<std::int64_t>(2 * kSegmentRows);
  ring_o["append_ms"] = ring.append_ms;
  ring_o["append_events_per_s"] = events_per_s(ring.measured, ring.append_ms);
  ring_o["allocs_per_event"] = ring.allocs_per_event;
  ring_o["retained_events"] = static_cast<std::int64_t>(ring.retained);
  ring_o["dropped_events"] = static_cast<std::int64_t>(ring.dropped);
  ring_o["evicted_segments"] = static_cast<std::int64_t>(ring.evicted_segments);
  ring_o["bytes_reserved_hwm"] =
      static_cast<std::int64_t>(ring.bytes_reserved_hwm);
  root["ring_1m"] = std::move(ring_o);
  json::Object io;
  io["events"] = static_cast<std::int64_t>(n);
  io["save_ms"] = save_ms;
  io["open_ms"] = open_ms;
  io["reopened_events"] = static_cast<std::int64_t>(back.store->size());
  io["file_bytes"] = static_cast<std::int64_t>(finfo.bytes_consumed);
  io["format_version"] = static_cast<std::int64_t>(finfo.format_version);
  io["compression_ratio"] = finfo.compression_ratio();
  root["run_file_1m"] = std::move(io);
  root["parallel_1m"] = std::move(par_rows);
  json::Object sp;
  sp["hardware_threads"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  sp["bin_events_8t"] = bin_speedup;
  sp["save_8t"] = save_speedup;
  root["speedup_1m"] = std::move(sp);
  json::save_file(out_path, json::Value(std::move(root)));
  std::printf("wrote %s\n", out_path.c_str());

  int rc = 0;
  if (min_scan_speedup > 0 && bin_speedup < min_scan_speedup) {
    std::fprintf(stderr,
                 "perf bar FAILED: 8-thread bin_events speedup %.2fx < "
                 "%.2fx\n",
                 bin_speedup, min_scan_speedup);
    rc = 1;
  }
  if (min_save_speedup > 0 && save_speedup < min_save_speedup) {
    std::fprintf(stderr,
                 "perf bar FAILED: 8-thread save speedup %.2fx < %.2fx\n",
                 save_speedup, min_save_speedup);
    rc = 1;
  }
  return rc;
}

// CI stress: generate + persist + reopen N events, verifying counts.
int run_stress(std::uint64_t n, const std::string& path) {
  TraceRun run;
  run.meta.workload = "stress";
  Synthesizer syn;
  syn.prepare(*run.store, n);
  const double t0 = now_ms();
  for (std::uint64_t i = 0; i < n; ++i) run.store->append(syn.make(i));
  const double append_ms = now_ms() - t0;

  save_run(path, run);
  const TraceRun back = open_run(path);
  const double total_ms = now_ms() - t0;

  if (back.store->size() != n) {
    std::fprintf(stderr, "stress FAILED: reopened %llu of %llu events\n",
                 static_cast<unsigned long long>(back.store->size()),
                 static_cast<unsigned long long>(n));
    return 1;
  }
  for (const EventKind k :
       {EventKind::kOp, EventKind::kSyncClassification,
        EventKind::kInternalSpan}) {
    if (back.store->count_of(k) != run.store->count_of(k)) {
      std::fprintf(stderr, "stress FAILED: %s count mismatch\n",
                   std::string(to_string(k)).c_str());
      return 1;
    }
  }
  std::printf("stress OK: %llu events appended in %.1f ms, "
              "saved+reopened in %.1f ms total\n",
              static_cast<unsigned long long>(n), append_ms, total_ms);
  return 0;
}

}  // namespace
}  // namespace diog::evstore

int main(int argc, char** argv) {
  std::uint64_t stress_events = 0;
  std::string stress_file;
  std::string out_path = "BENCH_eventstore.json";
  double min_scan_speedup = 0;
  double min_save_speedup = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      stress_events = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--stress-file") == 0 && i + 1 < argc) {
      stress_file = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-scan-speedup") == 0 &&
               i + 1 < argc) {
      min_scan_speedup = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--min-save-speedup") == 0 &&
               i + 1 < argc) {
      min_save_speedup = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: bench_eventstore [--out FILE] "
                   "[--min-scan-speedup X] [--min-save-speedup Y] "
                   "[--events N --stress-file PATH]\n");
      return 2;
    }
  }
  if (stress_events > 0 && !stress_file.empty()) {
    return diog::evstore::run_stress(stress_events, stress_file);
  }
  return diog::evstore::run_sweep(out_path, min_scan_speedup,
                                  min_save_speedup);
}
