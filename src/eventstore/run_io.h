// Versioned binary on-disk format for runs (chunked; version 3
// current, version 2 still readable).
//
// Layout (all integers little-endian; constants in run_format.h):
//
//   [ 0..8)   magic "DIOGRUN\x01"
//   [ 8..12)  u32 format version (schema.h; readers accept 2 and 3)
//   [12..16)  u32 reserved (0)
//   then zero or more chunks:
//       u32 "CHNK"
//       u64 payload_len
//       payload:
//           u64 meta_len, meta JSON text (RunMeta; last chunk wins)
//           u32 new frame count; per frame: u32+bytes function,
//               u32+bytes file, i32 line
//           u32 new stack count; per stack: u32 depth, u32 frame ids
//           u32 new name count; per name: u32+bytes
//           u64 first_event_index (absolute index in the append stream)
//           u64 event count
//           u8 column count
//           v2: per column: u8 tag, u8 width, raw values
//           v3: u8 chunk encoding, then per column:
//               encoding 0 (raw):   u8 tag, u8 width, raw values
//               encoding 1 (coded): u8 tag, u8 width, u8 codec,
//                                   u64 enc_len, encoded bytes
//               (codec ids and per-column choices in run_format.h,
//                bit-level codec layouts in codecs.h)
//       u64 FNV-1a checksum of the payload
//   footer (rewritten in place at every checkpoint):
//       u32 "FOOT" | u32 flags (bit0 = finalized) | u64 total_events |
//       u64 chunk_count | i64 checkpoint wall ms | u64 FNV-1a of the
//       five preceding fields | "ENDTRACE"
//
// Dictionaries are incremental: a chunk carries only entries interned
// since the previous chunk, and events in chunk k reference only
// dictionary ids from chunks <= k, so any prefix of complete chunks is
// self-consistent. A gap between one chunk's end index and the next
// chunk's first_event_index records events the flight-recorder ring
// evicted before they could be checkpointed.
//
// Crash tolerance is the point of the chunking: the live writer flushes
// each chunk before touching the footer, so a SIGKILL leaves either a
// valid footer (clean, possibly non-finalized prefix) or a torn tail
// after the last complete chunk. Readers bounds-check every access and
// hard-error on a bad header, a complete chunk whose checksum
// mismatches, or malformed payloads — but an incomplete tail is not an
// error: open_run returns the readable prefix and reports it through
// RunFileInfo. open_run maps the file; a RunFollower reads it (the
// writer may truncate a file it follows), and the hub's StreamParser
// takes bytes off a socket. All three decode frames with read_frame and
// chunk payloads with one parser; they differ only in policy: a file
// stops at its readable prefix, a stream throws.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eventstore/run.h"

namespace diog::evstore {

// open_run always maps the file. ReadMode survives only because the
// perfbench probes pass kAuto; it goes with the stage views (ROADMAP 6).
enum class ReadMode { kAuto };

// Per-chunk compression accounting (trace stat, archive digests).
// `stored` is the column bytes as they sit in the file; `raw` is what
// the same columns occupy decoded (count * width summed) — their ratio
// is the codec win, file framing excluded.
struct ChunkEncodingStat {
  std::uint8_t encoding = 0;  // format::kChunkEncoding{Raw,Coded}
  std::uint64_t events = 0;
  std::uint64_t column_bytes_stored = 0;
  std::uint64_t column_bytes_raw = 0;
};

// How much of a run file was readable. `clean` means the file ended at
// a valid footer; `finalized` additionally means the writer called
// finish() (nothing more will ever be appended). A file that is neither
// is an in-progress or torn prefix — still loadable, just incomplete.
struct RunFileInfo {
  bool clean = false;
  bool finalized = false;
  std::uint64_t chunks = 0;
  std::uint64_t events = 0;  // events materialized from complete chunks
  // Ring-evicted events that never reached the file (gaps between
  // consecutive chunks' index ranges).
  std::uint64_t dropped_before_checkpoint = 0;
  std::uint64_t bytes_consumed = 0;  // header + complete chunks + footer
  std::int64_t checkpoint_wall_ms = 0;  // footer wall clock; 0 if none
  std::uint32_t format_version = 0;     // header version (2 or 3)
  std::uint64_t column_bytes_stored = 0;  // sum over chunk_stats
  std::uint64_t column_bytes_raw = 0;     // sum over chunk_stats
  std::vector<ChunkEncodingStat> chunk_stats;

  // Decoded column bytes per stored column byte; 1.0 when nothing is
  // stored (an empty run compresses to itself).
  [[nodiscard]] double compression_ratio() const {
    if (column_bytes_stored == 0) return 1.0;
    return static_cast<double>(column_bytes_raw) /
           static_cast<double>(column_bytes_stored);
  }
};

// The run-file name for a workload inside a trace directory.
std::string run_file_path(const std::string& dir,
                          const std::string& workload);
// The heartbeat JSONL stream written next to the run file.
std::string heartbeat_file_path(const std::string& dir,
                                const std::string& workload);
// The run files `path` names: `path` itself when it is a regular file,
// else the *.dgtrace files directly inside that directory, sorted. A
// missing or unreadable directory names none.
std::vector<std::string> list_run_files(const std::string& path);
// A run file's workload name: its basename without ".dgtrace".
std::string run_stem(const std::string& path);

// One-shot save controls. The file holds the save layout
// (chunk_codec.h): one chunk per kSegmentRows resident rows, a pure
// function of the store contents — never of the thread count — so a
// saved file is byte-identical at --threads 1, 2, or 8.
struct SaveOptions {
  // Footer wall-clock override (ms since epoch); -1 stamps the real
  // clock. Pin it to make repeated saves byte-identical.
  std::int64_t footer_wall_ms = -1;
};

// Serializes the complete run as a finalized chunked file: a
// LiveRunWriter (without fsync) whose only call is finish(). Chunks are
// encoded in parallel (parallel/thread_pool.h), then written in order.
// Throws diog::Error on I/O failure.
void save_run(const std::string& path, const TraceRun& run);
void save_run(const std::string& path, const TraceRun& run,
              const SaveOptions& opts);

// Deserializes a run. Throws diog::Error on I/O failure, bad magic,
// version mismatch, chunk checksum mismatch, or malformed payloads.
// An incomplete tail (in-progress or killed writer) is NOT an error:
// the readable prefix is returned and described in *info.
TraceRun open_run(const std::string& path, ReadMode mode = ReadMode::kAuto,
                  RunFileInfo* info = nullptr);

// Incremental reader for a run file that another process may still be
// writing. Each poll() picks up chunks completed since the last one and
// appends their events to run().store; the footer region is never
// consumed (the writer overwrites it), so a follower survives any
// number of checkpoints. Single-threaded; not for concurrent use.
class RunFollower {
 public:
  explicit RunFollower(std::string path);
  ~RunFollower();
  RunFollower(const RunFollower&) = delete;
  RunFollower& operator=(const RunFollower&) = delete;

  // Reads newly completed chunks; returns the number of events added.
  // Returns 0 (without error) while the file does not exist yet or has
  // no new complete chunk. Throws diog::Error on hard corruption.
  std::uint64_t poll();

  [[nodiscard]] const TraceRun& run() const;
  [[nodiscard]] const RunFileInfo& info() const { return info_; }
  [[nodiscard]] bool finalized() const { return info_.finalized; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct Impl;
  std::string path_;
  std::unique_ptr<Impl> impl_;
  std::uint64_t offset_ = 0;  // 0 = header not yet validated
  RunFileInfo info_;
};

// The footer record's fields (layout above).
struct FooterRecord {
  bool finalized = false;
  std::uint64_t events = 0;
  std::uint64_t chunks = 0;
  std::int64_t wall_ms = 0;
};

// One frame of a run byte stream past its header: a chunk envelope or
// the footer. This is the only decoder of the framing; open_run,
// RunFollower and StreamParser differ only in what they do with it.
struct Frame {
  enum class Kind {
    kNeedMore,   // the bytes end inside the frame
    kChunk,      // a complete chunk envelope (checksum not yet verified)
    kFooter,     // a complete footer whose checksum and end magic hold
    kMalformed,  // see `corrupt` and `reason`
  };
  Kind kind = Kind::kNeedMore;
  // Bytes the whole frame occupies, known once a chunk's 12-byte prefix
  // (magic, payload length) or a footer's magic is in; 0 before.
  std::uint64_t size = 0;
  const unsigned char* payload = nullptr;  // kChunk
  std::size_t payload_len = 0;             // kChunk; checksum excluded
  FooterRecord footer;                     // kFooter
  // kMalformed. A `corrupt` frame is a complete chunk no writer can
  // emit, an error wherever it appears, and `reason` is the full error
  // text. Otherwise the bytes are what a torn or in-progress file tail
  // holds (stale magic, an implausible length, a torn footer): the end
  // of a file's readable prefix, but a violation on a stream.
  bool corrupt = false;
  std::string reason;
};

// Decodes the frame at `data`, which must sit on a frame boundary past
// the header. `chunk_index` numbers a chunk frame in error texts.
Frame read_frame(const unsigned char* data, std::size_t n,
                 std::uint64_t chunk_index);

// Validator for a run byte stream arriving over a transport that is not
// a seekable file (the trace hub's TCP wire). It applies the stream
// policy to read_frame: every malformed frame is an error, and the
// stream ends at its footer. Otherwise it runs the same validation as
// open_run (header magic+version, chunk checksum, dictionary chaining,
// overlap/gap accounting, footer agreement), so a byte sequence is
// accepted here exactly when open_run would accept the same bytes as a
// file. It keeps the decoded run, so a caller that needs the run (the
// hub's ingest) does not decode the bytes again. Every method throws
// diog::Error on a violation; the object must not be fed again after a
// throw.
class StreamParser {
 public:
  StreamParser();
  ~StreamParser();
  StreamParser(const StreamParser&) = delete;
  StreamParser& operator=(const StreamParser&) = delete;

  // Validates the frame at the front of `data`: the 16-byte header
  // first, then chunk envelopes and the footer. Returns the frame's
  // length once it is complete and valid, 0 while it is incomplete.
  // `budget` bounds the size any one frame may announce; a larger one
  // is refused from its 12-byte prefix, before the payload is buffered.
  // Any byte after the footer is an error.
  std::size_t accept(const unsigned char* data, std::size_t n,
                     std::size_t budget);

  [[nodiscard]] bool header_seen() const { return header_seen_; }
  // A valid footer was accepted (the stream is a clean prefix).
  [[nodiscard]] bool clean() const;
  // The footer carried the finalized flag (nothing more will arrive).
  [[nodiscard]] bool finalized() const;
  [[nodiscard]] std::uint64_t chunks() const;
  [[nodiscard]] std::uint64_t events() const;
  [[nodiscard]] std::uint64_t dropped() const;
  // The run decoded from the accepted frames, and the RunFileInfo that
  // open_run reports for the same bytes as a file (one fill routine).
  [[nodiscard]] const TraceRun& run() const;
  [[nodiscard]] RunFileInfo info() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  bool header_seen_ = false;
};

}  // namespace diog::evstore
