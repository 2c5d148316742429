// Streaming typed cursors over the event store.
//
// A cursor scans the store in append order, applying its predicates
// against the fixed-width columns *before* materializing an Event, and
// against the per-segment statistics before touching a segment at all —
// a filter on a kind, api, flag set, or time range skips 64K rows per
// stats probe when the segment cannot match. This is what the analysis
// stages, exporters, and CLI consume instead of re-walking per-stage
// record vectors.
//
// Inside a block the predicates run as branch-free SoA kernels: each
// active predicate is one tight compare loop over the block's column
// slice (blocks never straddle segments, so every slice is contiguous),
// writing 0/1 bytes that are then packed into a 64-words-of-64 match
// bitmask. The loops carry no data-dependent branches, so the compiler
// auto-vectorizes them; next_row() just walks set bits, next() adds the
// Event materialization, and count() adds popcounts without
// materializing events at all.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>

#include "eventstore/event_store.h"
#include "eventstore/schema.h"

namespace diog::evstore {

class Cursor {
 public:
  explicit Cursor(const EventStore& store) : store_(&store) {}

  // --- Predicates (pushed down to segment stats) --------------------------
  Cursor& kind(EventKind k) {
    kinds_mask_ = 1u << static_cast<std::uint32_t>(k);
    return *this;
  }
  Cursor& kinds(std::initializer_list<EventKind> ks) {
    kinds_mask_ = 0;
    for (const EventKind k : ks) {
      kinds_mask_ |= 1u << static_cast<std::uint32_t>(k);
    }
    return *this;
  }
  Cursor& api(hooks::Fn f) {
    api_ = static_cast<std::uint16_t>(f);
    return *this;
  }
  // All bits of `mask` must be set on a matching row.
  Cursor& flags_all(std::uint32_t mask) {
    flags_all_ |= mask;
    return *this;
  }
  Cursor& t_start_at_least(std::int64_t t) {
    t_min_ = t;
    return *this;
  }
  Cursor& t_start_below(std::int64_t t) {
    t_max_ = t;
    return *this;
  }

  // Restricts iteration to rows [begin, end) of the store's resident
  // window (end is clamped to the store size at iteration time). The
  // segment-parallel scan uses this to hand each shard a disjoint,
  // segment-aligned range; stats probes still fire only on block and
  // segment boundaries, so an unaligned begin simply scans rows until
  // the next boundary.
  Cursor& limit_rows(std::uint64_t begin, std::uint64_t end) {
    begin_ = begin;
    end_ = end;
    pos_ = begin;
    mask_base_ = mask_end_ = 0;
    return *this;
  }

  // --- Iteration ----------------------------------------------------------
  // Advances to the next matching row and stores its index (into the
  // resident window) in `row`; returns false at end-of-store. Callers
  // that need only a few fields read them with store.col_*().get(row)
  // instead of materializing the whole Event.
  bool next_row(std::uint64_t& row);
  // next_row plus store.event(row).
  bool next(Event& out) {
    std::uint64_t row = 0;
    if (!next_row(row)) return false;
    out = store_->event(row);
    return true;
  }
  void reset() {
    pos_ = begin_;
    mask_base_ = mask_end_ = 0;
    segments_skipped_ = 0;
    blocks_skipped_ = 0;
  }

  // Consumes the remainder of the cursor. Pure popcount over the match
  // bitmasks — no per-row bit walk, no Event materialization.
  std::uint64_t count();
  template <typename F>
  void for_each(F&& f) {
    Event e;
    while (next(e)) f(e);
  }

  // Number of whole segments the segment-stats probe rejected (pushdown
  // effectiveness; exposed for tests and benchmarks).
  [[nodiscard]] std::uint64_t segments_skipped() const {
    return segments_skipped_;
  }
  // Number of kBlockRows-row blocks rejected by the finer-grained probe
  // (inside segments the segment probe could not rule out).
  [[nodiscard]] std::uint64_t blocks_skipped() const {
    return blocks_skipped_;
  }

 private:
  [[nodiscard]] bool segment_may_match(const EventStore::SegmentStats& st)
      const;
  // Probes stats for the block containing pos_ and, when it survives,
  // runs the predicate kernels over it into mask_. Returns false when
  // the probe skipped the block/segment (pos_ already advanced past it).
  bool fill_block(std::uint64_t n);
  void scan_block(std::uint64_t base, std::uint64_t limit);

  static constexpr std::size_t kMaskWords = kBlockRows / 64;

  const EventStore* store_;
  std::uint64_t pos_ = 0;
  std::uint64_t begin_ = 0;
  std::uint64_t end_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t segments_skipped_ = 0;
  std::uint64_t blocks_skipped_ = 0;

  // Match bitmask for rows [mask_base_, mask_end_); row r maps to bit
  // (r - mask_base_). Equal bounds mean no block has been scanned.
  std::uint64_t mask_base_ = 0;
  std::uint64_t mask_end_ = 0;
  std::uint64_t mask_[kMaskWords];

  std::uint32_t kinds_mask_ = ~0u;
  std::uint32_t flags_all_ = 0;
  std::uint32_t api_ = kNoApiFilter;
  std::int64_t t_min_ = std::numeric_limits<std::int64_t>::min();
  std::int64_t t_max_ = std::numeric_limits<std::int64_t>::max();

  static constexpr std::uint32_t kNoApiFilter = ~0u;
};

// Shorthand constructors for the common streams.
inline Cursor ops(const EventStore& s) {
  return Cursor(s).kind(EventKind::kOp);
}
inline Cursor sync_sites(const EventStore& s) {
  return Cursor(s).kind(EventKind::kSyncSite);
}
inline Cursor sync_classifications(const EventStore& s) {
  return Cursor(s).kind(EventKind::kSyncClassification);
}
inline Cursor duplicate_transfers(const EventStore& s) {
  return Cursor(s).kind(EventKind::kDuplicateTransfer);
}
inline Cursor sync_uses(const EventStore& s) {
  return Cursor(s).kind(EventKind::kSyncUse);
}
inline Cursor internal_spans(const EventStore& s) {
  return Cursor(s).kind(EventKind::kInternalSpan);
}

}  // namespace diog::evstore
