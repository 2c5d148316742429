// The parallel subsystem (src/parallel/) and its consumers: the
// parallel one-shot save/open paths and blockwise content hashing —
// plus the contract everything hangs on: output is byte-identical at
// any thread count. Also covers predicate-pushdown segment/block
// skipping, the FrameTable shared-lock fast path, and fault injection
// surfacing cleanly from worker threads. The segment-parallel scan is
// covered through bin_events in explore_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "core/diogenes.h"
#include "core/report.h"
#include "eventstore/cursor.h"
#include "eventstore/event_store.h"
#include "eventstore/run_io.h"
#include "hashing/content_hash.h"
#include "parallel/thread_pool.h"
#include "support/error.h"
#include "testkit/fault_plan.h"
#include "trace/callstack.h"

namespace {

using namespace diog;
namespace fs = std::filesystem;

// Every test restores the global thread override so ordering inside the
// binary cannot leak one test's pin into another.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_override_ = par::threads_override(); }
  void TearDown() override { par::set_threads(saved_override_); }

  static std::string temp_dir() {
    const std::string dir =
        (fs::temp_directory_path() /
         ("diog-parallel-" +
          std::to_string(::testing::UnitTest::GetInstance()
                             ->random_seed()) +
          "-" +
          ::testing::UnitTest::GetInstance()
              ->current_test_info()
              ->name()))
            .string();
    fs::create_directories(dir);
    return dir;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

 private:
  std::size_t saved_override_ = 0;
};

// --- Pool mechanics ----------------------------------------------------------

TEST_F(ParallelTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t tc : {std::size_t{1}, std::size_t{2},
                               std::size_t{8}}) {
    par::set_threads(tc);
    constexpr std::size_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    par::parallel_for(kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at threads " << tc;
    }
  }
}

TEST_F(ParallelTest, LowestIndexExceptionWinsAtAnyThreadCount) {
  for (const std::size_t tc : {std::size_t{1}, std::size_t{2},
                               std::size_t{8}}) {
    par::set_threads(tc);
    try {
      par::parallel_for(1'000, [](std::size_t i) {
        if (i == 17 || i == 500 || i == 999) {
          throw Error("task " + std::to_string(i) + " failed");
        }
      });
      FAIL() << "expected an Error at threads " << tc;
    } catch (const Error& e) {
      // Deterministic error selection: always the lowest failing index,
      // never whichever thread happened to throw first.
      EXPECT_STREQ(e.what(), "task 17 failed") << "threads " << tc;
    }
  }
}

TEST_F(ParallelTest, NestedParallelForRunsInlineWithoutDeadlock) {
  par::set_threads(4);
  std::atomic<std::size_t> total{0};
  par::parallel_for(8, [&](std::size_t) {
    // A fixed-size pool deadlocks if nested fan-outs queue behind their
    // own parents; the contract is that nesting runs inline.
    par::parallel_for(8, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST_F(ParallelTest, ThreadCountResolutionPrefersOverride) {
  par::set_threads(3);
  EXPECT_EQ(par::configured_threads(), 3u);
  par::set_threads(0);
  EXPECT_EQ(par::configured_threads(), par::hardware_threads());
  EXPECT_EQ(par::hardware_threads(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

// --- Predicate pushdown -----------------------------------------------------

// Multi-segment store with PHASE-ORDERED kinds, the shape the real
// pipeline produces (each collection stage appends its own event kinds
// in a burst, not interleaved row-by-row).
void fill_phased(evstore::EventStore& store, std::uint64_t per_phase) {
  evstore::Event e;
  e.kind = evstore::EventKind::kOp;
  for (std::uint64_t i = 0; i < per_phase; ++i) {
    e.t_start = static_cast<std::int64_t>(i);
    e.t_end = e.t_start + 5;
    store.append(e);
  }
  e = evstore::Event{};
  e.kind = evstore::EventKind::kSyncUse;
  e.aux_time = 42;
  for (std::uint64_t i = 0; i < per_phase; ++i) store.append(e);
  e = evstore::Event{};
  e.kind = evstore::EventKind::kInternalSpan;
  for (std::uint64_t i = 0; i < per_phase; ++i) store.append(e);
}

// ISSUE satellite: a single-kind filter over a mixed-kind multi-segment
// store must actually skip segments (the bench used to report
// filtered_segments_skipped: 0).
TEST_F(ParallelTest, KindFilterSkipsWholeSegmentsInPhasedStore) {
  evstore::EventStore store;
  fill_phased(store, evstore::kSegmentRows + 100);  // >3 segments

  evstore::Cursor c(store);
  c.kind(evstore::EventKind::kInternalSpan);  // only the last phase
  (void)c.count();
  EXPECT_GE(c.segments_skipped(), 1u)
      << "segment-stats pushdown rejected nothing on a store where whole "
         "segments contain no matching kind";
}

// At sub-segment scale (the 10K-event case), segment stats cannot help —
// the whole store is one segment — but the finer block stats must.
TEST_F(ParallelTest, KindFilterSkipsBlocksInsideOneSegment) {
  evstore::EventStore store;
  static_assert(evstore::kBlockRows < evstore::kSegmentRows);
  fill_phased(store, 3 * evstore::kBlockRows);  // 3 phases, 1 segment

  evstore::Cursor c(store);
  c.kind(evstore::EventKind::kInternalSpan);
  const std::uint64_t n = c.count();
  EXPECT_EQ(n, 3 * evstore::kBlockRows);
  EXPECT_EQ(c.segments_skipped(), 0u);  // single segment, can't skip
  EXPECT_GE(c.blocks_skipped(), 1u)
      << "block-stats pushdown rejected nothing inside the segment";
}

// --- Save / open determinism (ISSUE satellite 3) -----------------------------

evstore::TraceRun synthetic_run(std::uint64_t events) {
  evstore::TraceRun run;
  run.meta.workload = "parallel-test";
  const trace::Frame* f = trace::FrameTable::instance().intern(
      "kernel_launch", "app.cu", 42);
  const trace::StackTrace st({f});
  const evstore::StackId sid = run.store->intern_stack(st);
  const evstore::NameId nid = run.store->intern_name("axpy");
  evstore::Event e;
  for (std::uint64_t i = 0; i < events; ++i) {
    e.kind = i % 7 == 0 ? evstore::EventKind::kSyncUse
                        : evstore::EventKind::kOp;
    e.stack = sid;
    e.name = nid;
    e.op_index = i;
    e.t_start = static_cast<std::int64_t>(i * 10);
    e.t_end = e.t_start + 7;
    e.aux_time = static_cast<std::int64_t>(i % 13);
    e.bytes = i * 3;
    e.value = i;
    run.store->append(e);
  }
  return run;
}

TEST_F(ParallelTest, SavedFileBytesAreIdenticalAtThreads128) {
  const std::string dir = temp_dir();
  const evstore::TraceRun run =
      synthetic_run(2 * evstore::kSegmentRows + 777);  // 3 chunks

  std::string ref;
  for (const std::size_t tc : {std::size_t{1}, std::size_t{2},
                               std::size_t{8}}) {
    par::set_threads(tc);
    const std::string path =
        dir + "/save-t" + std::to_string(tc) + ".dgtrace";
    evstore::save_run(path, run, evstore::SaveOptions{.footer_wall_ms = 7});
    const std::string bytes = slurp(path);
    ASSERT_FALSE(bytes.empty());
    if (ref.empty()) {
      ref = bytes;
    } else {
      EXPECT_EQ(bytes, ref) << "threads " << tc
                            << " produced different file bytes";
    }
  }
  fs::remove_all(dir);
}

TEST_F(ParallelTest, ParallelOpenMatchesSerialOpen) {
  const std::string dir = temp_dir();
  const evstore::TraceRun run = synthetic_run(evstore::kSegmentRows + 999);
  const std::string path = dir + "/roundtrip.dgtrace";
  par::set_threads(1);
  evstore::save_run(path, run, evstore::SaveOptions{.footer_wall_ms = 0});

  std::string ref_stats;
  for (const std::size_t tc : {std::size_t{1}, std::size_t{2},
                               std::size_t{8}}) {
    par::set_threads(tc);
    evstore::RunFileInfo info;
    const evstore::TraceRun reread =
        evstore::open_run(path, evstore::ReadMode::kAuto, &info);
    EXPECT_TRUE(info.clean && info.finalized);
    ASSERT_EQ(reread.store->size(), run.store->size());
    const std::string stats = reread.store->stat_json().dump();
    if (ref_stats.empty()) {
      ref_stats = stats;
    } else {
      EXPECT_EQ(stats, ref_stats)
          << "threads " << tc << " reopened to a different store";
    }
    // Spot-check row content survived the parallel column copy.
    const evstore::Event last =
        reread.store->event(reread.store->size() - 1);
    const evstore::Event expect_last =
        run.store->event(run.store->size() - 1);
    EXPECT_EQ(last.t_start, expect_last.t_start);
    EXPECT_EQ(last.value, expect_last.value);
  }
  fs::remove_all(dir);
}

TEST_F(ParallelTest, AnalysisExportIsByteIdenticalAtThreads128) {
  const std::string dir = temp_dir();
  const apps::AppPair app = apps::all_apps().at(0);
  ffm::ToolConfig cfg;
  ffm::Diogenes tool(app.pathological, cfg);
  const ffm::AnalysisResult base = tool.analyze();
  const std::string expected = ffm::export_json(base).dump();

  const std::string save_path = dir + "/analysis.dgtrace";
  std::string ref_bytes;
  for (const std::size_t tc : {std::size_t{1}, std::size_t{2},
                               std::size_t{8}}) {
    par::set_threads(tc);
    const ffm::AnalysisResult again = ffm::run_analysis(base.run, cfg);
    EXPECT_EQ(ffm::export_json(again).dump(), expected)
        << "analysis diverged at threads " << tc;
    evstore::save_run(save_path, base.run,
                      evstore::SaveOptions{.footer_wall_ms = 0});
    const std::string bytes = slurp(save_path);
    if (ref_bytes.empty()) {
      ref_bytes = bytes;
    } else {
      EXPECT_EQ(bytes, ref_bytes) << "saved bytes diverged at threads " << tc;
    }
  }
  fs::remove_all(dir);
}

// --- Fault injection from worker threads (ISSUE satellite 3) -----------------

TEST_F(ParallelTest, SegmentAllocFaultDuringParallelOpenIsACleanError) {
  const std::string dir = temp_dir();
  const evstore::TraceRun run = synthetic_run(evstore::kSegmentRows + 500);
  const std::string path = dir + "/faulted.dgtrace";
  evstore::save_run(path, run, evstore::SaveOptions{.footer_wall_ms = 0});

  for (const std::size_t tc : {std::size_t{2}, std::size_t{8}}) {
    par::set_threads(tc);
    testkit::FaultPlan plan(1);
    testkit::FaultSpec s;
    s.site = "event_store.segment_alloc";
    s.action = testkit::FaultAction::kFail;
    s.max_fires = 1;
    plan.add(s);
    testkit::FaultScope scope(plan);
    // The fault fires on whichever worker claims that chunk; it must
    // surface as the same classified Error a serial open would raise —
    // no crash, no deadlock, no std::terminate from a joined thread.
    EXPECT_THROW((void)evstore::open_run(path), Error) << "threads " << tc;
    EXPECT_GE(plan.fires("event_store.segment_alloc"), 1u);
  }
  // The injection plane must not have poisoned later opens.
  evstore::RunFileInfo info;
  const evstore::TraceRun ok = evstore::open_run(path, evstore::ReadMode::kAuto,
                                                 &info);
  EXPECT_TRUE(info.clean && info.finalized);
  EXPECT_EQ(ok.store->size(), run.store->size());
  fs::remove_all(dir);
}

TEST_F(ParallelTest, BadAllocFaultPropagatesTypeFromWorkerThread) {
  const std::string dir = temp_dir();
  const evstore::TraceRun run = synthetic_run(evstore::kSegmentRows + 500);
  const std::string path = dir + "/faulted-ba.dgtrace";
  evstore::save_run(path, run, evstore::SaveOptions{.footer_wall_ms = 0});

  par::set_threads(8);
  testkit::FaultPlan plan(1);
  testkit::FaultSpec s;
  s.site = "event_store.segment_alloc";
  s.action = testkit::FaultAction::kBadAlloc;
  s.max_fires = 1;
  plan.add(s);
  testkit::FaultScope scope(plan);
  EXPECT_THROW((void)evstore::open_run(path), std::bad_alloc);
  fs::remove_all(dir);
}

// --- FrameTable multi-reader fast path (ISSUE satellite 1) -------------------

TEST_F(ParallelTest, FrameTableConcurrentInternStaysConsistent) {
  // Mixed readers and writers racing over an overlapping key set: every
  // thread must observe one canonical Frame* per distinct key.
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  std::vector<std::vector<const trace::Frame*>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] {
      auto& mine = seen[t];
      mine.resize(kKeys);
      for (int round = 0; round < 50; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          const trace::Frame* f = trace::FrameTable::instance().intern(
              "mt_fn_" + std::to_string(k), "mt.cu", k);
          if (mine[k] == nullptr) mine[k] = f;
          // Stable: repeated interning never re-allocates the frame.
          ASSERT_EQ(mine[k], f);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int k = 0; k < kKeys; ++k) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][k], seen[0][k]) << "thread " << t << " key " << k;
    }
  }
}

TEST_F(ParallelTest, FrameTableMultiReaderThroughput) {
  // Warm the table, then hammer it with pure readers. The assertion is
  // a conservative throughput floor — shared-lock lookups must sustain
  // well beyond pathological-serialization rates even on one core —
  // plus a hard liveness bound.
  constexpr int kKeys = 128;
  for (int k = 0; k < kKeys; ++k) {
    (void)trace::FrameTable::instance().intern(
        "ro_fn_" + std::to_string(k), "ro.cu", k);
  }
  constexpr int kThreads = 4;
  constexpr int kLookupsPerThread = 50'000;
  std::atomic<std::uint64_t> total{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&total] {
      std::uint64_t n = 0;
      for (int i = 0; i < kLookupsPerThread; ++i) {
        const int k = i % kKeys;
        if (trace::FrameTable::instance().intern(
                "ro_fn_" + std::to_string(k), "ro.cu", k) != nullptr) {
          ++n;
        }
      }
      total.fetch_add(n, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(total.load(),
            static_cast<std::uint64_t>(kThreads) * kLookupsPerThread);
  const double per_sec = static_cast<double>(total.load()) / secs;
  // 200k single-frame lookups across 4 readers: anything below 50k/s
  // total means readers are serializing pathologically (or worse).
  EXPECT_GT(per_sec, 50'000.0) << "multi-reader intern throughput collapsed";
}

// --- Blockwise content hashing ----------------------------------------------

TEST_F(ParallelTest, BlockedHashMatchesPlainHashForSmallBuffers) {
  std::vector<std::byte> buf(hash::kHashBlockBytes);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 31 + 7);
  }
  EXPECT_EQ(hash::hash64_blocked(buf), hash::hash64(buf));
  const std::span<const std::byte> half(buf.data(), buf.size() / 2);
  EXPECT_EQ(hash::hash64_blocked(half), hash::hash64(half));
}

TEST_F(ParallelTest, BlockedHashIsThreadCountInvariant) {
  std::vector<std::byte> buf(3 * hash::kHashBlockBytes + 12345);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i ^ (i >> 8));
  }
  par::set_threads(1);
  const hash::Digest serial = hash::hash64_blocked(buf);
  for (const std::size_t tc : {std::size_t{2}, std::size_t{8}}) {
    par::set_threads(tc);
    EXPECT_EQ(hash::hash64_blocked(buf), serial) << "threads " << tc;
  }
  // Content sensitivity survives the blocking.
  buf[2 * hash::kHashBlockBytes + 99] ^= std::byte{1};
  EXPECT_NE(hash::hash64_blocked(buf), serial);
}

}  // namespace
