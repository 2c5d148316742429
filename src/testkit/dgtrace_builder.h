// Byte-level construction and inspection of v2 chunked .dgtrace files.
//
// This is a deliberately independent implementation of the on-disk
// format (run_format.h constants only, none of the writer code), so the
// fuzzer and the regression-corpus generator can produce both valid
// files and precisely malformed ones — zero-length chunks, overlapping
// event ranges, checksum-fixed mutations — that the production writer
// could never emit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace diog::testkit {

using Bytes = std::vector<unsigned char>;

// --- Scanning ---------------------------------------------------------------

// One envelope discovered by a forgiving walk of the chunk stream. The
// scanner never throws: malformed regions end the walk, exactly like the
// production reader's torn-tail handling, but without parsing payloads.
struct ChunkSpan {
  std::size_t offset = 0;       // file offset of the 'CHNK' magic
  std::uint64_t payload_len = 0;
  bool complete = false;        // envelope + payload + checksum all present
};

struct FileShape {
  bool has_header = false;
  std::vector<ChunkSpan> chunks;
  std::size_t footer_offset = 0;  // 0 = no footer seen
  bool has_footer = false;
  std::size_t tail_offset = 0;  // first byte not consumed by the walk
};

FileShape scan_shape(const Bytes& data);

// --- Building ---------------------------------------------------------------

// Minimal chunk payloads assembled field by field. Only what the test
// surfaces need: empty dictionaries, zero-filled events.
struct ChunkParams {
  // A complete RunMeta (from_json requires every field).
  std::string meta_json =
      "{\"workload\":\"synthetic\",\"wait_fn\":0,\"s1_exec_ns\":1000,"
      "\"s2_exec_ns\":1000,\"s3_exec_ns\":1000,\"s4_exec_ns\":1000,"
      "\"transfers_hashed\":0,\"bytes_hashed\":0,\"dropped_events\":0}";
  std::uint64_t first_event_index = 0;
  std::uint64_t event_count = 0;  // events are zero-filled rows
  // Payload shape: 2 = v2 body (no chunk-encoding byte), 3 = v3 body
  // with the raw chunk encoding (columns identical to v2 after the
  // byte). Must match the header version the chunk sits under.
  std::uint32_t version = 3;
};

// 16-byte header. Defaults to the current format version; pass 2 to
// build legacy files the v3 reader must still open.
Bytes make_header(std::uint32_t version = 3);
// A complete envelope (magic | len | payload | correct checksum).
Bytes make_chunk(const ChunkParams& params);

// A v3 chunk whose columns carry the per-column production codecs
// (varint, delta+zigzag+bitpack) — written by this file's own codec
// implementation, not the production encoder, so the committed corpus
// doubles as a cross-check of the codec spec. The corruption knobs
// produce precisely malformed coded bodies (wrong codec ids, truncated
// bitpacked miniblocks, varints whose continuation bits run past the
// declared length) that the writer could never emit; the chunk
// checksum is always correct so the mutation reaches the deep parser.
struct CodedChunkParams {
  std::string meta_json = ChunkParams{}.meta_json;
  std::uint64_t first_event_index = 0;
  std::uint64_t event_count = 0;  // rows get varied, compressible values
  // The chunk-encoding byte; format::kChunkEncodingCoded unless a test
  // wants an unknown value.
  std::uint8_t encoding_byte = 1;
  enum class Corruption {
    kNone,
    kBadCodec,         // column codec byte set past kCodecCount
    kTruncatedDelta,   // bitpacked delta body cut short, enc_len updated
    kVarintOverrun,    // varint continuation bits run past enc_len
    kUnknownApi,       // api ids up to 99, past hooks::Fn::kCount_
    // Row 0 of the column holds 2^(8*width), one past what the column's
    // width can hold, varint- or delta-coded (narrow columns only).
    kVarintTooWide,
    kDeltaTooWide,
    kRawLengthMismatch,  // raw body one byte longer than count * width
  };
  Corruption corruption = Corruption::kNone;
  std::uint8_t corrupt_column = 8;  // tag to corrupt (8 = t_start, delta)
};
Bytes make_coded_chunk(const CodedChunkParams& params);
// An envelope wrapping arbitrary payload bytes, checksum correct.
Bytes make_raw_chunk(const Bytes& payload);
// A footer; `total_events`/`chunk_count` are taken at face value so
// tests can craft footers that disagree with the chunks.
Bytes make_footer(bool final, std::uint64_t total_events,
                  std::uint64_t chunk_count, std::int64_t wall_ms = 0);

// Concatenation helper.
void append(Bytes& out, const Bytes& part);

// Recomputes and rewrites the checksum of the chunk at `span` so a
// payload mutation still reaches the deep parser. No-op when the span
// is not a complete chunk.
void fix_chunk_checksum(Bytes& data, const ChunkSpan& span);

// A small valid file: header + one finalized chunk + footer.
Bytes make_minimal_run(std::uint64_t event_count = 4,
                       std::uint32_t version = 3);

// File I/O for corpus handling (throws diog::Error on failure).
Bytes read_file(const std::string& path);
void write_file(const std::string& path, const Bytes& data);

}  // namespace diog::testkit
