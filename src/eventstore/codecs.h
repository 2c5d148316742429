// Per-column light-weight compression codecs for format v3 chunks.
//
// Three codecs, one byte each in the column entry (ids in run_format.h):
//
//   kCodecRaw    — width * count bytes, exactly the v2 column body.
//   kCodecVarint — LEB128: 7 value bits per byte, high bit = continue.
//                  Interned ids, stream ids, and small magnitudes are
//                  one byte instead of four or eight.
//   kCodecDelta  — delta + zigzag + bitpack for monotone-ish i64/u64
//                  columns (timestamps, op indices, durations):
//                    varint zigzag(first value)
//                    then miniblocks of up to 128 deltas:
//                      u8 bit width W, then ceil(k*W/8) bytes of
//                      LSB-first packed zigzag deltas.
//                  W == 0 means all deltas in the block are zero and no
//                  data bytes follow; W == 64 means the block stores k
//                  raw 8-byte little-endian zigzag deltas (packing
//                  57..63-bit values saves nothing and would need
//                  128-bit shifts); any other W > 56 is invalid.
//
// Encoders are pure byte assembly into a caller-owned, reusable buffer
// (no allocation after warm-up). They size the buffer once per value
// run (a varint, a miniblock), write through a pointer, then trim, so
// no byte pays for a push_back. Decoders are the adversarial side:
// every read is bounds-checked against the declared encoded length and
// every structural violation — varint overrun, truncated miniblock,
// invalid bit width, trailing bytes — throws diog::Error with a message
// the fuzzer's error classifier can bucket. A decoder never reads past
// `end` and never writes more than `count` values.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "support/error.h"

namespace diog::evstore::codec {

inline constexpr std::size_t kDeltaMiniblock = 128;
// Bit widths in (kRawDeltaWidth-8, kRawDeltaWidth) are never emitted:
// the encoder jumps straight to raw 8-byte deltas.
inline constexpr unsigned kMaxPackedWidth = 56;
inline constexpr unsigned kRawDeltaWidth = 64;

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

// --- Varint ------------------------------------------------------------------

inline constexpr std::size_t kMaxVarintBytes = 10;

// Writes `v` at `p` (room for kMaxVarintBytes) and returns the byte
// after it.
inline char* put_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

inline void put_varint(std::string& out, std::uint64_t v) {
  char bytes[kMaxVarintBytes];
  out.append(bytes, put_varint(bytes, v));
}

// Reads one varint from [*p, end); advances *p. Throws on a varint that
// runs past `end` or encodes more than 64 bits.
inline std::uint64_t get_varint(const unsigned char** p,
                                const unsigned char* end) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  const unsigned char* q = *p;
  for (;;) {
    if (q == end) {
      throw Error("run file corrupted: varint runs past column data");
    }
    const unsigned char b = *q++;
    if (shift == 63 && (b & 0xfe) != 0) {
      throw Error("run file corrupted: varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) {
      throw Error("run file corrupted: varint overflows 64 bits");
    }
  }
  *p = q;
  return v;
}

// --- Delta + zigzag + bitpack ------------------------------------------------

// Encodes `count` 64-bit values (already widened; signed columns pass
// their bit pattern) as first + zigzag deltas. `scratch` holds the
// current miniblock's zigzag deltas between the width scan and the
// packing pass; it is caller-owned so repeated chunks reuse it.
inline void put_delta_u64(std::string& out, const std::uint64_t* v,
                          std::uint64_t count, std::uint64_t* scratch) {
  if (count == 0) return;
  put_varint(out, zigzag(static_cast<std::int64_t>(v[0])));
  std::uint64_t prev = v[0];
  std::uint64_t i = 1;
  while (i < count) {
    const std::uint64_t k =
        count - i < kDeltaMiniblock ? count - i : kDeltaMiniblock;
    std::uint64_t any_bits = 0;
    for (std::uint64_t j = 0; j < k; ++j) {
      // Unsigned wraparound keeps decreasing sequences well-defined;
      // zigzag folds the sign back into a small magnitude.
      const std::uint64_t d = v[i + j] - prev;
      prev = v[i + j];
      scratch[j] = zigzag(static_cast<std::int64_t>(d));
      any_bits |= scratch[j];
    }
    // The widest delta's bit count.
    const auto width = static_cast<unsigned>(std::bit_width(any_bits));
    // Room for the widest form (k raw deltas) plus the 8-byte store
    // below past the last packed byte; trimmed to what was written.
    const std::size_t at = out.size();
    out.resize(at + 1 + static_cast<std::size_t>(k) * 8 + 8);
    char* p = out.data() + at;
    if (width > kMaxPackedWidth) {
      *p++ = static_cast<char>(kRawDeltaWidth);
      std::memcpy(p, scratch, static_cast<std::size_t>(k) * 8);
      p += static_cast<std::size_t>(k) * 8;
    } else {
      *p++ = static_cast<char>(width);
      std::uint64_t acc = 0;
      unsigned bits = 0;
      for (std::uint64_t j = 0; j < k; ++j) {
        // bits < 8 and width <= 56, so acc never overflows 64 bits.
        // Store all 8 bytes of acc (little-endian, like every integer
        // in the format) and keep the partial byte for the next value.
        acc |= scratch[j] << bits;
        bits += width;
        std::memcpy(p, &acc, 8);
        p += bits >> 3;
        acc >>= bits & ~7u;
        bits &= 7;
      }
      if (bits > 0) *p++ = static_cast<char>(acc & 0xff);
    }
    out.resize(static_cast<std::size_t>(p - out.data()));
    i += k;
  }
}

// Decodes exactly `count` values from [p, end) into `out`; the encoded
// stream must end exactly at `end` (the column entry declares its
// length, so trailing bytes are corruption, not padding).
inline void get_delta_u64(const unsigned char* p, const unsigned char* end,
                          std::uint64_t* out, std::uint64_t count) {
  if (count == 0) {
    if (p != end) {
      throw Error("run file corrupted: trailing bytes in delta column");
    }
    return;
  }
  std::uint64_t prev =
      static_cast<std::uint64_t>(unzigzag(get_varint(&p, end)));
  out[0] = prev;
  std::uint64_t i = 1;
  while (i < count) {
    const std::uint64_t k =
        count - i < kDeltaMiniblock ? count - i : kDeltaMiniblock;
    if (p == end) {
      throw Error("run file corrupted: delta column truncated at miniblock");
    }
    const unsigned width = *p++;
    if (width == 0) {
      for (std::uint64_t j = 0; j < k; ++j) out[i + j] = prev;
    } else if (width == kRawDeltaWidth) {
      if (static_cast<std::size_t>(end - p) < static_cast<std::size_t>(k) * 8) {
        throw Error("run file corrupted: delta column truncated at miniblock");
      }
      for (std::uint64_t j = 0; j < k; ++j) {
        std::uint64_t zz;
        std::memcpy(&zz, p, 8);
        p += 8;
        prev += static_cast<std::uint64_t>(unzigzag(zz));
        out[i + j] = prev;
      }
    } else if (width <= kMaxPackedWidth) {
      const std::size_t need = (static_cast<std::size_t>(k) * width + 7) / 8;
      if (static_cast<std::size_t>(end - p) < need) {
        throw Error("run file corrupted: delta column truncated at miniblock");
      }
      std::uint64_t acc = 0;
      unsigned bits = 0;
      const std::uint64_t mask = (1ull << width) - 1;
      for (std::uint64_t j = 0; j < k; ++j) {
        while (bits < width) {
          acc |= static_cast<std::uint64_t>(*p++) << bits;
          bits += 8;
        }
        prev += static_cast<std::uint64_t>(unzigzag(acc & mask));
        acc >>= width;
        bits -= width;
        out[i + j] = prev;
      }
      // Padding bits in the final partial byte must be zero — a stray
      // bit there is a mutation the round-trip would otherwise mask.
      if (acc != 0) {
        throw Error("run file corrupted: nonzero padding in delta miniblock");
      }
    } else {
      throw Error("run file corrupted: invalid delta bit width " +
                  std::to_string(width));
    }
    i += k;
  }
  if (p != end) {
    throw Error("run file corrupted: trailing bytes in delta column");
  }
}

}  // namespace diog::evstore::codec
