// Arena-backed fixed-width columns.
//
// A column is a chain of segments of kSegmentRows values each. push()
// touches the heap only when it crosses a segment boundary — one
// allocation per 64K rows per column — so the store's append path makes
// no per-event heap allocation, which is what lets hook callbacks feed
// it directly. Segment addresses are stable once allocated (readers may
// hold pointers across appends).
//
// Segments are not value-initialised (make_unique_for_overwrite): every
// row is written before size() counts it, by push() or, on the run
// reader's path, through rows_in_segment() or write_rows() into rows
// resize_rows() reserved (a failed load gives them back). So opening a
// 1M-row run does not zero-fill ~90 MB that decode overwrites at once,
// and no reader may look past size().
//
// Ring mode (EventStore retention) evicts whole segments from the front
// with drop_front_segment(); the evicted buffer is stashed and reused by
// the next boundary-crossing push, so a steady-state ring appends
// without touching the allocator at all.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "support/error.h"

namespace diog::evstore {

inline constexpr std::size_t kSegmentRows = 64 * 1024;
// Pushdown-statistics granularity inside a segment (event_store.h
// block_stats): must divide kSegmentRows.
inline constexpr std::size_t kBlockRows = 4 * 1024;
static_assert(kSegmentRows % kBlockRows == 0);

template <typename T>
class Column {
  static_assert(std::is_trivially_copyable_v<T>,
                "columns hold fixed-width scalar data");

 public:
  void push(T v) {
    const std::size_t slot = size_ % kSegmentRows;
    if (slot == 0) open_segment();
    segments_.back()[slot] = v;
    ++size_;
  }

  [[nodiscard]] T get(std::uint64_t i) const {
    return segments_[i / kSegmentRows][i % kSegmentRows];
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] const T* segment(std::size_t s) const {
    return segments_[s].get();
  }
  [[nodiscard]] std::size_t rows_in_segment(std::size_t s) const {
    if (s + 1 < segments_.size()) return kSegmentRows;
    const std::size_t tail = size_ % kSegmentRows;
    return tail == 0 && size_ > 0 ? kSegmentRows : tail;
  }

  [[nodiscard]] std::uint64_t bytes_reserved() const {
    return (static_cast<std::uint64_t>(segments_.size()) +
            (spare_ ? 1 : 0)) *
           kSegmentRows * sizeof(T);
  }

  // Sets the column to `new_size` rows. Growing allocates the segments
  // up front and leaves the new rows indeterminate until write_rows
  // fills them; shrinking gives back rows a failed load never wrote (a
  // freed segment becomes the spare). Serial (single caller); pairs with
  // write_rows for the run reader's parallel decode: once the segments
  // exist, disjoint row ranges may be filled from different threads.
  void resize_rows(std::uint64_t new_size) {
    const auto need =
        static_cast<std::size_t>((new_size + kSegmentRows - 1) / kSegmentRows);
    while (segments_.size() < need) open_segment();
    if (segments_.size() > need) {
      spare_ = std::move(segments_[need]);
      segments_.resize(need);
    }
    size_ = new_size;
  }

  // Rows [first, first + count) as one writable array when they lie in
  // one segment, else nullptr (the caller stages them for write_rows).
  // The rows must already exist (resize_rows); like write_rows, safe
  // from different threads for disjoint ranges.
  [[nodiscard]] T* rows_in_segment(std::uint64_t first, std::uint64_t count) {
    const std::uint64_t slot = first % kSegmentRows;
    if (count > kSegmentRows - slot) return nullptr;
    return segments_[static_cast<std::size_t>(first / kSegmentRows)].get() +
           slot;
  }

  // Fills rows [first, first + count) from `src`. The rows must already
  // exist (resize_rows). Thread-safe for disjoint ranges: only memcpy
  // into preallocated segments.
  void write_rows(std::uint64_t first, const T* src, std::uint64_t count) {
    std::uint64_t done = 0;
    while (done < count) {
      const std::uint64_t i = first + done;
      const std::size_t seg = static_cast<std::size_t>(i / kSegmentRows);
      const std::size_t slot = static_cast<std::size_t>(i % kSegmentRows);
      const std::uint64_t room = kSegmentRows - slot;
      const std::uint64_t take =
          count - done < room ? count - done : room;
      std::memcpy(segments_[seg].get() + slot, src + done,
                  static_cast<std::size_t>(take) * sizeof(T));
      done += take;
    }
  }

  // Copies rows [first, first + count) into `dst` (run-writer staging;
  // cold path). Rows are addressed in the column's current window.
  void copy_rows(std::uint64_t first, std::uint64_t count, T* dst) const {
    std::uint64_t done = 0;
    while (done < count) {
      const std::uint64_t i = first + done;
      const std::size_t seg = static_cast<std::size_t>(i / kSegmentRows);
      const std::size_t slot = static_cast<std::size_t>(i % kSegmentRows);
      const std::uint64_t room = kSegmentRows - slot;
      const std::uint64_t take =
          count - done < room ? count - done : room;
      std::memcpy(dst + done, segments_[seg].get() + slot,
                  static_cast<std::size_t>(take) * sizeof(T));
      done += take;
    }
  }

  // Ring eviction: drops the (full) front segment and keeps its buffer
  // as the spare for the next boundary-crossing push. Only legal when at
  // least two segments exist, which keeps the eviction invariant "every
  // retained front segment is full" — and with it the size_-modulo slot
  // arithmetic — intact.
  void drop_front_segment() {
    spare_ = std::move(segments_.front());
    segments_.erase(segments_.begin());
    size_ -= kSegmentRows;
  }

  void clear() {
    segments_.clear();
    spare_.reset();
    size_ = 0;
  }

 private:
  void open_segment() {
    segments_.push_back(spare_ ? std::move(spare_)
                               : std::make_unique_for_overwrite<T[]>(
                                     kSegmentRows));
  }

  std::vector<std::unique_ptr<T[]>> segments_;
  std::unique_ptr<T[]> spare_;  // recycled by the next segment open
  std::uint64_t size_ = 0;
};

}  // namespace diog::evstore
