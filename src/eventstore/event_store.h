// The columnar event store.
//
// SoA storage for the unified schema (schema.h): each Event field lives
// in its own arena-backed column (columns.h), and variable-size payloads
// (stacks, names) live in per-store dictionaries referenced by 32-bit
// ids. Per 64K-row segment the store keeps summary statistics (kind
// mask, api mask, flag union, t_start range) that cursors use to skip
// whole segments — predicate pushdown without an index.
//
// Threading: the store is single-writer (the simulated pipeline is
// single-threaded; hook callbacks append from the application thread).
// Frame interning underneath (trace::FrameTable) is fully thread-safe,
// so captured frame pointers may originate from any thread; the store's
// own dictionaries and columns must be appended from one thread at a
// time. Readers may scan concurrently with each other once appending is
// done. While appending is live, only the atomic accounting (size(),
// count_of(), the drop counters) may be read from another thread — the
// heartbeat reporter relies on exactly that.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "eventstore/columns.h"
#include "eventstore/schema.h"
#include "json/json.h"
#include "trace/callstack.h"

namespace diog::evstore {

// Interns call stacks as sequences of dictionary frame ids. Interning an
// already-known stack performs no heap allocation (hash probe only),
// which keeps the hot append path allocation-free; new stacks amortize
// into pooled storage.
class StackDict {
 public:
  StackDict();

  StackId intern(const trace::StackTrace& s);
  // Allocation-free lookup path for hook callbacks: `frames` is a
  // borrowed array of interned Frame pointers (CallContext::capture_into).
  StackId intern(const trace::Frame* const* frames, std::size_t n);

  [[nodiscard]] std::uint32_t stack_count() const {
    return static_cast<std::uint32_t>(stacks_.size());
  }
  [[nodiscard]] std::size_t depth(StackId id) const;
  [[nodiscard]] const trace::Frame* frame(StackId id, std::size_t i) const;
  [[nodiscard]] const trace::Frame* leaf(StackId id) const;
  // Materializes a StackTrace (allocates; analysis-side only).
  [[nodiscard]] trace::StackTrace stack_trace(StackId id) const;

  // Frame dictionary (serialization order).
  [[nodiscard]] std::uint32_t frame_count() const {
    return static_cast<std::uint32_t>(frames_.size());
  }
  [[nodiscard]] const trace::Frame* frame_at(std::uint32_t idx) const {
    return frames_[idx];
  }

  // Run-reader entry points: rebuild the dictionaries in serialized
  // order so stored ids stay valid.
  void load_frame(const trace::Frame* f);
  StackId load_stack(const std::uint32_t* frame_ids, std::size_t n);
  [[nodiscard]] std::size_t stack_frame_id(StackId id, std::size_t i) const;

  [[nodiscard]] std::uint64_t bytes_reserved() const;

 private:
  std::uint32_t frame_id(const trace::Frame* f);

  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
  };
  std::vector<Span> stacks_;         // [0] = the empty stack
  std::vector<std::uint32_t> pool_;  // frame-dictionary ids, concatenated
  std::unordered_map<std::uint64_t, std::vector<StackId>> by_hash_;
  std::vector<const trace::Frame*> frames_;
  std::unordered_map<const trace::Frame*, std::uint32_t> frame_index_;
};

// Flight-recorder retention: when either bound is non-zero the store
// runs as a ring of segments, evicting whole 64K-row segments FIFO once
// resident memory (or retained event count) exceeds the bound. Eviction
// happens only on the cold path (a segment boundary crossing) and
// recycles the evicted buffers, so the hot append path stays
// allocation-free in ring mode too. Granularity is one whole segment:
// the store always retains at least the segment being filled.
struct RetentionPolicy {
  std::uint64_t max_bytes = 0;   // 0 = unbounded
  std::uint64_t max_events = 0;  // 0 = unbounded
  [[nodiscard]] bool bounded() const {
    return max_bytes != 0 || max_events != 0;
  }
};

class EventStore {
 public:
  EventStore();
  EventStore(const EventStore&) = delete;
  EventStore& operator=(const EventStore&) = delete;

  // --- Append (hot path) --------------------------------------------------
  // No per-event heap allocation: columns allocate once per 64K rows,
  // segment stats once per segment.
  void append(const Event& e);

  // --- Retention (flight-recorder ring mode) ------------------------------
  void set_retention(RetentionPolicy p) { retention_ = p; }
  [[nodiscard]] const RetentionPolicy& retention() const {
    return retention_;
  }
  // Index (into the ever-appended stream) of the oldest retained event;
  // 0 unless ring eviction has discarded history.
  [[nodiscard]] std::uint64_t first_index() const {
    return evicted_events_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_appended() const {
    return first_index() + size();
  }
  [[nodiscard]] std::uint64_t dropped_events() const {
    return evicted_events_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped_of(EventKind k) const {
    return dropped_per_kind_[static_cast<std::size_t>(k)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evicted_segments() const {
    return evicted_segments_.load(std::memory_order_relaxed);
  }

  // Invoked (on the appending thread) every time a 64K-row segment
  // fills; this is the flight recorder's cold-path hook for time- and
  // signal-driven checkpoints.
  void set_segment_seal_callback(std::function<void()> cb) {
    seal_cb_ = std::move(cb);
  }

  StackId intern_stack(const trace::StackTrace& s) {
    return stacks_dict_.intern(s);
  }
  StackId intern_stack(const trace::Frame* const* frames, std::size_t n) {
    return stacks_dict_.intern(frames, n);
  }
  NameId intern_name(std::string_view name);

  // --- Read ---------------------------------------------------------------
  // Retained event count. In ring mode this is the current window, not
  // the total ever appended (total_appended()). The count is an atomic
  // so the heartbeat thread may read it while the owning thread appends;
  // column *data* is still single-writer, no-concurrent-read.
  [[nodiscard]] std::uint64_t size() const {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] Event event(std::uint64_t i) const;

  [[nodiscard]] const StackDict& stacks() const { return stacks_dict_; }
  [[nodiscard]] StackDict& stacks() { return stacks_dict_; }
  [[nodiscard]] trace::StackTrace stack_trace(StackId id) const {
    return stacks_dict_.stack_trace(id);
  }
  [[nodiscard]] std::string_view name(NameId id) const;
  [[nodiscard]] std::uint32_t name_count() const {
    return static_cast<std::uint32_t>(names_.size());
  }

  // --- Per-segment statistics (cursor pushdown) ---------------------------
  struct SegmentStats {
    std::uint32_t kinds_mask = 0;  // bit per EventKind present
    std::uint32_t flags_or = 0;    // union of row flags
    std::uint64_t api_mask = 0;    // bit per Fn value present
    std::int64_t min_t = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_t = std::numeric_limits<std::int64_t>::min();
  };
  [[nodiscard]] std::size_t segment_count() const { return stats_.size(); }
  [[nodiscard]] const SegmentStats& segment_stats(std::size_t s) const {
    return stats_[s];
  }
  // Sub-segment pushdown: the same statistics per kBlockRows-row block,
  // so a filtered scan can skip runs of rows inside a segment that
  // mixes kinds (a store smaller than one segment is the common case
  // where segment-level stats alone can never skip anything).
  [[nodiscard]] std::size_t block_count() const {
    return block_stats_.size();
  }
  [[nodiscard]] const SegmentStats& block_stats(std::size_t b) const {
    return block_stats_[b];
  }

  // --- Column access (cursors and the run writer) -------------------------
  [[nodiscard]] const Column<std::uint8_t>& col_kind() const { return kind_; }
  [[nodiscard]] const Column<std::uint16_t>& col_api() const { return api_; }
  [[nodiscard]] const Column<std::uint32_t>& col_flags() const {
    return flags_;
  }
  [[nodiscard]] const Column<std::uint32_t>& col_stream() const {
    return stream_;
  }
  [[nodiscard]] const Column<std::uint32_t>& col_stack() const {
    return stack_;
  }
  [[nodiscard]] const Column<std::uint32_t>& col_aux_stack() const {
    return aux_stack_;
  }
  [[nodiscard]] const Column<std::uint32_t>& col_name() const { return name_; }
  [[nodiscard]] const Column<std::uint64_t>& col_op_index() const {
    return op_index_;
  }
  [[nodiscard]] const Column<std::int64_t>& col_t_start() const {
    return t_start_;
  }
  [[nodiscard]] const Column<std::int64_t>& col_t_end() const {
    return t_end_;
  }
  [[nodiscard]] const Column<std::int64_t>& col_aux_time() const {
    return aux_time_;
  }
  [[nodiscard]] const Column<std::int64_t>& col_gpu_time() const {
    return gpu_time_;
  }
  [[nodiscard]] const Column<std::uint64_t>& col_bytes() const {
    return bytes_;
  }
  [[nodiscard]] const Column<std::uint64_t>& col_value() const {
    return value_;
  }
  [[nodiscard]] const Column<std::uint64_t>& col_link() const { return link_; }

  // Run-reader entry points: raw column loads, then finish_bulk_load(),
  // which validates and folds into the stats the rows loaded since its
  // last call. Counts across columns must agree (checked).
  struct BulkLoader;
  void finish_bulk_load();

  // --- Accounting ---------------------------------------------------------
  // Arena bytes reserved across all columns and dictionaries.
  [[nodiscard]] std::uint64_t bytes_reserved() const;
  [[nodiscard]] std::uint64_t count_of(EventKind k) const;
  // {"events": N, "segments": S, "per_kind": {...}, ...}
  [[nodiscard]] json::Value stat_json() const;

 private:
  friend struct BulkLoader;
  // The event_store.segment_alloc injection point: throws when armed.
  static void fire_segment_alloc_fault();
  // Folds one row into its segment's and its block's stats.
  static void fold_row(SegmentStats& segment, SegmentStats& block,
                       std::uint32_t kind, std::uint16_t api,
                       std::uint32_t flags, std::int64_t t_start);
  void note_segment_metrics();
  void enforce_retention();
  void evict_front_segment();

  Column<std::uint8_t> kind_;
  Column<std::uint16_t> api_;
  Column<std::uint32_t> flags_;
  Column<std::uint32_t> stream_;
  Column<std::uint32_t> stack_;
  Column<std::uint32_t> aux_stack_;
  Column<std::uint32_t> name_;
  Column<std::uint64_t> op_index_;
  Column<std::int64_t> t_start_;
  Column<std::int64_t> t_end_;
  Column<std::int64_t> aux_time_;
  Column<std::int64_t> gpu_time_;
  Column<std::uint64_t> bytes_;
  Column<std::uint64_t> value_;
  Column<std::uint64_t> link_;

  StackDict stacks_dict_;
  std::vector<std::string> names_;  // [0] = ""
  std::unordered_map<std::string, NameId> name_index_;

  std::vector<SegmentStats> stats_;
  std::vector<SegmentStats> block_stats_;
  std::uint64_t bulk_loaded_ = 0;  // rows finish_bulk_load() has folded
  // Atomics so the heartbeat thread can sample counts live; all writes
  // still come from the single appending thread.
  std::atomic<std::uint64_t> size_{0};
  std::atomic<std::uint64_t> per_kind_[kEventKindCount]{};

  RetentionPolicy retention_;
  std::function<void()> seal_cb_;
  std::atomic<std::uint64_t> evicted_events_{0};
  std::atomic<std::uint64_t> evicted_segments_{0};
  std::atomic<std::uint64_t> dropped_per_kind_[kEventKindCount]{};
  std::uint64_t resident_bytes_hwm_ = 0;
  std::uint64_t resident_events_hwm_ = 0;
};

// Raw column loads used by the run reader (run_io.cc). Kept out of the
// public surface so normal producers go through append().
struct EventStore::BulkLoader {
  EventStore& store;
  // reserve() grows every column by `extra` rows in one serial step;
  // the reader then fills disjoint row ranges, which is safe from
  // different threads concurrently because it only writes into the
  // reserved segments.
  void reserve(std::uint64_t extra);
  // Gives back reserved rows a failed load never wrote: every column
  // and size() return to `rows`.
  void unreserve(std::uint64_t rows);

  // Calls f(column) for each column as its own Column<T>, in format
  // order (run_format.h), so a chunk decodes at each column's type
  // straight into its reserved rows. The segment_alloc fault fires
  // first, so a chunk trips an armed plan exactly once, on the thread
  // that would have owned the allocation.
  template <typename F>
  void visit_columns(F&& f) {
    fire_segment_alloc_fault();
    EventStore& s = store;
    std::apply([&](auto&... col) { (f(col), ...); },
               std::tie(s.kind_, s.api_, s.flags_, s.stream_, s.stack_,
                        s.aux_stack_, s.name_, s.op_index_, s.t_start_,
                        s.t_end_, s.aux_time_, s.gpu_time_, s.bytes_,
                        s.value_, s.link_));
  }

 private:
  void resize(std::uint64_t rows);
};

}  // namespace diog::evstore
