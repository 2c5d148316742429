#include "testkit/dgtrace_builder.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "eventstore/run_format.h"
#include "eventstore/schema.h"
#include "hooks/fn.h"
#include "support/error.h"
#include "support/input_file.h"

namespace diog::testkit {

namespace {

namespace fmt = evstore::format;

void put_bytes(Bytes& out, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  out.insert(out.end(), p, p + n);
}
void put_u8(Bytes& out, std::uint8_t v) { put_bytes(out, &v, 1); }
void put_u32(Bytes& out, std::uint32_t v) { put_bytes(out, &v, 4); }
void put_u64(Bytes& out, std::uint64_t v) { put_bytes(out, &v, 8); }
void put_i64(Bytes& out, std::int64_t v) { put_bytes(out, &v, 8); }

std::uint32_t read_u32(const Bytes& data, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, data.data() + off, 4);
  return v;
}
std::uint64_t read_u64(const Bytes& data, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, data.data() + off, 8);
  return v;
}

}  // namespace

FileShape scan_shape(const Bytes& data) {
  FileShape shape;
  if (data.size() < fmt::kHeaderBytes ||
      std::memcmp(data.data(), fmt::kMagic, sizeof(fmt::kMagic)) != 0) {
    return shape;
  }
  shape.has_header = true;
  std::size_t off = fmt::kHeaderBytes;
  for (;;) {
    shape.tail_offset = off;
    if (data.size() - off < 4) break;
    const std::uint32_t magic = read_u32(data, off);
    if (magic == fmt::kFooterMagic) {
      if (data.size() - off < fmt::kFooterBytes) break;
      shape.footer_offset = off;
      shape.has_footer = true;
      shape.tail_offset = off + fmt::kFooterBytes;
      break;
    }
    if (magic != fmt::kChunkMagic) break;
    ChunkSpan span;
    span.offset = off;
    if (data.size() - off < fmt::kChunkEnvelopeBytes) {
      shape.chunks.push_back(span);
      break;
    }
    span.payload_len = read_u64(data, off + 4);
    if (span.payload_len > (1ull << 40) ||
        data.size() - off < fmt::kChunkEnvelopeBytes + span.payload_len) {
      shape.chunks.push_back(span);
      break;
    }
    span.complete = true;
    shape.chunks.push_back(span);
    off += fmt::kChunkEnvelopeBytes + static_cast<std::size_t>(span.payload_len);
  }
  return shape;
}

Bytes make_header(std::uint32_t version) {
  Bytes out;
  put_bytes(out, fmt::kMagic, sizeof(fmt::kMagic));
  put_u32(out, version);
  put_u32(out, 0);
  return out;
}

Bytes make_raw_chunk(const Bytes& payload) {
  Bytes out;
  put_u32(out, fmt::kChunkMagic);
  put_u64(out, payload.size());
  put_bytes(out, payload.data(), payload.size());
  put_u64(out, fmt::fnv1a(fmt::kFnvSeed, payload.data(), payload.size()));
  return out;
}

Bytes make_chunk(const ChunkParams& params) {
  Bytes payload;
  put_u64(payload, params.meta_json.size());
  put_bytes(payload, params.meta_json.data(), params.meta_json.size());
  put_u32(payload, 0);  // new frames
  put_u32(payload, 0);  // new stacks
  put_u32(payload, 0);  // new names
  put_u64(payload, params.first_event_index);
  put_u64(payload, params.event_count);
  put_u8(payload, static_cast<std::uint8_t>(fmt::kColumnCount));
  if (params.version >= 3) put_u8(payload, fmt::kChunkEncodingRaw);
  for (std::size_t c = 0; c < fmt::kColumnCount; ++c) {
    put_u8(payload, static_cast<std::uint8_t>(c));
    put_u8(payload, fmt::kColumnWidths[c]);
    // Zero-filled rows: kind 0 / empty stack / no name are all valid.
    payload.insert(payload.end(),
                   static_cast<std::size_t>(params.event_count) *
                       fmt::kColumnWidths[c],
                   0);
  }
  return make_raw_chunk(payload);
}

namespace {

// Independent re-implementation of the v3 column codecs (codecs.h is
// the production one). Varint is LEB128; delta is varint(zigzag(first))
// followed by miniblocks of up to 128 zigzagged deltas, each a width
// byte and LSB-first bitpacked values (width 0 = all zero, width 64 =
// raw 8-byte deltas).
void put_vu(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(out, static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  put_u8(out, static_cast<std::uint8_t>(v));
}

std::uint64_t zigzag64(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

Bytes encode_varint_body(const std::vector<std::uint64_t>& vals) {
  Bytes out;
  for (const std::uint64_t v : vals) put_vu(out, v);
  return out;
}

Bytes encode_delta_body(const std::vector<std::uint64_t>& vals) {
  Bytes out;
  if (vals.empty()) return out;
  put_vu(out, zigzag64(static_cast<std::int64_t>(vals[0])));
  std::size_t i = 1;
  while (i < vals.size()) {
    const std::size_t m = std::min<std::size_t>(128, vals.size() - i);
    std::uint64_t z[128];
    unsigned width = 0;
    for (std::size_t j = 0; j < m; ++j) {
      z[j] = zigzag64(
          static_cast<std::int64_t>(vals[i + j] - vals[i + j - 1]));
      unsigned b = 0;
      for (std::uint64_t t = z[j]; t != 0; t >>= 1) ++b;
      width = std::max(width, b);
    }
    if (width > 56) {
      put_u8(out, 64);
      for (std::size_t j = 0; j < m; ++j) put_bytes(out, &z[j], 8);
    } else {
      put_u8(out, static_cast<std::uint8_t>(width));
      std::uint64_t acc = 0;
      unsigned bits = 0;
      for (std::size_t j = 0; j < m; ++j) {
        acc |= z[j] << bits;
        bits += width;
        while (bits >= 8) {
          put_u8(out, static_cast<std::uint8_t>(acc));
          acc >>= 8;
          bits -= 8;
        }
      }
      if (bits > 0) put_u8(out, static_cast<std::uint8_t>(acc));
    }
    i += m;
  }
  return out;
}

}  // namespace

Bytes make_coded_chunk(const CodedChunkParams& params) {
  using Corruption = CodedChunkParams::Corruption;
  Bytes payload;
  put_u64(payload, params.meta_json.size());
  put_bytes(payload, params.meta_json.data(), params.meta_json.size());
  put_u32(payload, 0);  // new frames
  put_u32(payload, 0);  // new stacks
  put_u32(payload, 0);  // new names
  put_u64(payload, params.first_event_index);
  put_u64(payload, params.event_count);
  put_u8(payload, static_cast<std::uint8_t>(fmt::kColumnCount));
  put_u8(payload, params.encoding_byte);

  const auto n = static_cast<std::size_t>(params.event_count);
  for (std::size_t c = 0; c < fmt::kColumnCount; ++c) {
    std::uint8_t codec = fmt::kColumnCodecs[c];
    // Varied but in-dictionary values: kinds cycle, dictionary-id
    // columns (stack, aux_stack, name) stay 0, counters ascend.
    std::vector<std::uint64_t> vals(n);
    for (std::size_t r = 0; r < n; ++r) {
      if (c == 0) {
        vals[r] = r % 3;
      } else if (c == 1) {
        // api ids stay within hooks::Fn unless the test wants them past
        // it (kUnknownApi keeps the ids the builder used to write).
        vals[r] = (7 * r + c) % (params.corruption == Corruption::kUnknownApi
                                     ? 100
                                     : hooks::kFnCount);
      } else if (c == 4 || c == 5 || c == 6) {
        vals[r] = 0;
      } else if (codec == fmt::kCodecDelta) {
        vals[r] = 1000 * c + 7 * r;
      } else {
        vals[r] = (7 * r + c) % 100;
      }
    }

    Bytes body;
    if (codec == fmt::kCodecVarint) {
      body = encode_varint_body(vals);
    } else if (codec == fmt::kCodecDelta) {
      body = encode_delta_body(vals);
    } else {
      for (const std::uint64_t v : vals) {
        put_bytes(body, &v, fmt::kColumnWidths[c]);
      }
    }

    if (c == params.corrupt_column) {
      switch (params.corruption) {
        case Corruption::kNone:
        case Corruption::kUnknownApi:
          break;
        case Corruption::kBadCodec:
          codec = fmt::kCodecCount + 6;
          break;
        case Corruption::kTruncatedDelta:
          // Chop into the bitpacked miniblock; enc_len below stays
          // consistent with the chopped body, so only the codec's own
          // bounds checking can catch it.
          codec = fmt::kCodecDelta;
          if (body.size() > 2) body.resize(body.size() - 2);
          break;
        case Corruption::kVarintOverrun:
          // Every byte flags continuation: the value never terminates
          // inside the declared body.
          codec = fmt::kCodecVarint;
          body.assign(3, 0xFF);
          break;
        case Corruption::kVarintTooWide:
        case Corruption::kDeltaTooWide:
          if (n > 0) vals[0] = 1ull << (8 * fmt::kColumnWidths[c]);
          if (params.corruption == Corruption::kVarintTooWide) {
            codec = fmt::kCodecVarint;
            body = encode_varint_body(vals);
          } else {
            codec = fmt::kCodecDelta;
            body = encode_delta_body(vals);
          }
          break;
        case Corruption::kRawLengthMismatch:
          codec = fmt::kCodecRaw;
          body.resize(n * fmt::kColumnWidths[c] + 1);
          break;
      }
    }

    put_u8(payload, static_cast<std::uint8_t>(c));
    put_u8(payload, fmt::kColumnWidths[c]);
    put_u8(payload, codec);
    put_u64(payload, body.size());
    put_bytes(payload, body.data(), body.size());
  }
  return make_raw_chunk(payload);
}

Bytes make_footer(bool final, std::uint64_t total_events,
                  std::uint64_t chunk_count, std::int64_t wall_ms) {
  Bytes out;
  put_u32(out, fmt::kFooterMagic);
  put_u32(out, final ? fmt::kFooterFlagFinal : 0u);
  put_u64(out, total_events);
  put_u64(out, chunk_count);
  put_i64(out, wall_ms);
  put_u64(out, fmt::fnv1a(fmt::kFnvSeed, out.data(), out.size()));
  put_bytes(out, fmt::kEndMagic, sizeof(fmt::kEndMagic));
  return out;
}

void append(Bytes& out, const Bytes& part) {
  out.insert(out.end(), part.begin(), part.end());
}

void fix_chunk_checksum(Bytes& data, const ChunkSpan& span) {
  if (!span.complete) return;
  const std::size_t payload_off = span.offset + 12;
  const auto len = static_cast<std::size_t>(span.payload_len);
  if (payload_off + len + 8 > data.size()) return;
  const std::uint64_t sum =
      fmt::fnv1a(fmt::kFnvSeed, data.data() + payload_off, len);
  std::memcpy(data.data() + payload_off + len, &sum, 8);
}

Bytes make_minimal_run(std::uint64_t event_count, std::uint32_t version) {
  Bytes out = make_header(version);
  ChunkParams params;
  params.event_count = event_count;
  params.version = version;
  append(out, make_chunk(params));
  append(out, make_footer(/*final=*/true, event_count, 1));
  return out;
}

Bytes read_file(const std::string& path) {
  const std::optional<std::string> bytes = support::read_file(path);
  DIOG_CHECK(bytes.has_value(), "cannot open file: " + path);
  return Bytes(bytes->begin(), bytes->end());
}

void write_file(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DIOG_CHECK(out.good(), "cannot open file for writing: " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  DIOG_CHECK(out.good(), "write failed: " + path);
}

}  // namespace diog::testkit
