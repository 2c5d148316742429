#include "eventstore/cursor.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace diog::evstore {

namespace {

// One row-predicate kernel per active filter. Each is a standalone
// branch-free loop over a contiguous column slice so the compiler can
// vectorize it in isolation; chaining through the 0/1 byte array beats
// one fused loop because inactive predicates cost nothing at all.
//
// The kind filter is almost always a single kind (every shorthand
// cursor), which is a plain byte-equality compare. A variable shift by
// the kind value would block vectorization, so the rare multi-kind
// mask goes through a 256-byte lookup instead.
void kernel_kind_eq(std::uint8_t* match, const std::uint8_t* k,
                    std::size_t rows, std::uint8_t want) {
  for (std::size_t r = 0; r < rows; ++r) {
    match[r] = static_cast<std::uint8_t>(k[r] == want);
  }
}

void kernel_kind_lut(std::uint8_t* match, const std::uint8_t* k,
                     std::size_t rows, std::uint32_t kinds_mask) {
  std::uint8_t lut[256];
  for (std::size_t v = 0; v < 256; ++v) {
    // Defined for any byte value: kinds >= 32 (impossible today, but
    // this is reader-side code) simply never match.
    lut[v] = static_cast<std::uint8_t>(
        (v < 32) & ((kinds_mask >> (v & 31)) & 1u));
  }
  for (std::size_t r = 0; r < rows; ++r) match[r] = lut[k[r]];
}

void kernel_api(std::uint8_t* match, const std::uint16_t* a,
                std::size_t rows, std::uint16_t want) {
  for (std::size_t r = 0; r < rows; ++r) {
    match[r] &= static_cast<std::uint8_t>(a[r] == want);
  }
}

void kernel_flags(std::uint8_t* match, const std::uint32_t* f,
                  std::size_t rows, std::uint32_t all) {
  for (std::size_t r = 0; r < rows; ++r) {
    match[r] &= static_cast<std::uint8_t>((f[r] & all) == all);
  }
}

void kernel_time(std::uint8_t* match, const std::int64_t* t,
                 std::size_t rows, std::int64_t t_min, std::int64_t t_max) {
  for (std::size_t r = 0; r < rows; ++r) {
    match[r] &= static_cast<std::uint8_t>((t[r] >= t_min) & (t[r] < t_max));
  }
}

}  // namespace

bool Cursor::segment_may_match(const EventStore::SegmentStats& st) const {
  if ((st.kinds_mask & kinds_mask_) == 0) return false;
  if ((st.flags_or & flags_all_) != flags_all_) return false;
  if (api_ != kNoApiFilter && api_ < 64 &&
      (st.api_mask & (1ull << api_)) == 0) {
    return false;
  }
  if (st.max_t < t_min_ || st.min_t >= t_max_) return false;
  return true;
}

void Cursor::scan_block(std::uint64_t base, std::uint64_t limit) {
  const auto rows = static_cast<std::size_t>(limit - base);
  const auto seg = static_cast<std::size_t>(base / kSegmentRows);
  const auto off = static_cast<std::size_t>(base % kSegmentRows);

  std::uint8_t match[kBlockRows];
  if (kinds_mask_ == ~0u) {
    std::memset(match, 1, rows);
  } else if (std::has_single_bit(kinds_mask_)) {
    kernel_kind_eq(match, store_->col_kind().segment(seg) + off, rows,
                   static_cast<std::uint8_t>(std::countr_zero(kinds_mask_)));
  } else {
    kernel_kind_lut(match, store_->col_kind().segment(seg) + off, rows,
                    kinds_mask_);
  }
  if (api_ != kNoApiFilter) {
    kernel_api(match, store_->col_api().segment(seg) + off, rows,
               static_cast<std::uint16_t>(api_));
  }
  if (flags_all_ != 0) {
    kernel_flags(match, store_->col_flags().segment(seg) + off, rows,
                 flags_all_);
  }
  if (t_min_ != std::numeric_limits<std::int64_t>::min() ||
      t_max_ != std::numeric_limits<std::int64_t>::max()) {
    kernel_time(match, store_->col_t_start().segment(seg) + off, rows,
                t_min_, t_max_);
  }
  if (rows < kBlockRows) std::memset(match + rows, 0, kBlockRows - rows);

  // Pack the 0/1 bytes into the bitmask, 64 rows per word.
  for (std::size_t w = 0; w < kMaskWords; ++w) {
    std::uint64_t bits = 0;
    const std::uint8_t* m = match + w * 64;
    for (std::size_t b = 0; b < 64; ++b) {
      bits |= static_cast<std::uint64_t>(m[b] & 1u) << b;
    }
    mask_[w] = bits;
  }
  mask_base_ = base;
  mask_end_ = limit;
}

bool Cursor::fill_block(std::uint64_t n) {
  if (pos_ % kSegmentRows == 0) {
    // Segment boundary: probe the stats before touching any column.
    const auto& st = store_->segment_stats(pos_ / kSegmentRows);
    if (!segment_may_match(st)) {
      ++segments_skipped_;
      pos_ += kSegmentRows;
      return false;
    }
  }
  if (pos_ % kBlockRows == 0) {
    // The segment as a whole may match; the block might still not
    // (mixed-kind segments, e.g. a stage boundary or a sub-segment
    // store).
    const auto& bst = store_->block_stats(pos_ / kBlockRows);
    if (!segment_may_match(bst)) {
      ++blocks_skipped_;
      pos_ += kBlockRows;
      return false;
    }
  }
  const std::uint64_t base = pos_ - pos_ % kBlockRows;
  scan_block(base, std::min(n, base + kBlockRows));
  return true;
}

bool Cursor::next_row(std::uint64_t& row) {
  const std::uint64_t n = std::min(store_->size(), end_);
  while (pos_ < n) {
    if (pos_ < mask_base_ || pos_ >= mask_end_) {
      if (!fill_block(n)) continue;
    }
    // Walk set bits from pos_ to the end of the scanned block.
    const std::uint64_t rel = pos_ - mask_base_;
    std::size_t w = static_cast<std::size_t>(rel >> 6);
    std::uint64_t word = mask_[w] & (~std::uint64_t{0} << (rel & 63));
    const auto words =
        static_cast<std::size_t>((mask_end_ - mask_base_ + 63) >> 6);
    while (word == 0 && ++w < words) word = mask_[w];
    if (word == 0) {
      pos_ = mask_end_;
      continue;
    }
    const std::uint64_t i = mask_base_ + (static_cast<std::uint64_t>(w) << 6) +
                            static_cast<std::uint64_t>(std::countr_zero(word));
    pos_ = i + 1;
    row = i;
    return true;
  }
  return false;
}

std::uint64_t Cursor::count() {
  const std::uint64_t n = std::min(store_->size(), end_);
  std::uint64_t total = 0;
  while (pos_ < n) {
    if (pos_ < mask_base_ || pos_ >= mask_end_) {
      if (!fill_block(n)) continue;
    }
    // Sum whole words; mask off bits below pos_ in the first word (a
    // resumed cursor may sit mid-block).
    const std::uint64_t rel = pos_ - mask_base_;
    std::size_t w = static_cast<std::size_t>(rel >> 6);
    const auto words =
        static_cast<std::size_t>((mask_end_ - mask_base_ + 63) >> 6);
    total += static_cast<std::uint64_t>(
        std::popcount(mask_[w] & (~std::uint64_t{0} << (rel & 63))));
    while (++w < words) {
      total += static_cast<std::uint64_t>(std::popcount(mask_[w]));
    }
    pos_ = mask_end_;
  }
  return total;
}

}  // namespace diog::evstore
