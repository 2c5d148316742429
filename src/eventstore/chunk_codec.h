// The run byte stream, assembled in one place.
//
// Four decisions define the bytes of a run (layout in run_io.h): the
// 16-byte header, the high-water-mark delta chunk, the save layout, and
// the footer. RunEncoder owns all four, plus the high-water marks into
// the store's append stream and dictionaries. It does pure byte
// assembly and no I/O: each complete chunk frame goes to the caller's
// `emit` in stream order. The file target (LiveRunWriter, and save_run
// through it) and the wire target (hub/client.h HubSink) are thin I/O
// shells around one encoder, so the hub's "the wire format is the file
// format" holds by construction, not by copied code.
//
// Each encoder owns its EncodeArenas: every buffer the chunk encoder
// touches lives there and is reused across chunks, so a long-lived
// flight recorder allocates nothing per chunk once warm, and the
// parallel save layout does not serialize its workers on the allocator.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "eventstore/run.h"

namespace diog::evstore {

namespace codec {

// Reusable buffers for one chunk encode; never shared between threads
// concurrently. The frame is assembled in place: the envelope's length
// is patched once the payload is written and the checksum appended, so
// no payload byte is copied after it is encoded.
struct EncodeArena {
  std::string frame;                    // envelope | payload | checksum
  std::vector<unsigned char> staging;   // raw column values (copy_rows)
  std::vector<std::uint64_t> miniblock; // delta codec miniblock scratch
};

}  // namespace codec

// The rule every target follows: a finish() that ships the first bytes
// emits the save layout — one chunk per kSegmentRows resident rows,
// every dictionary in chunk 0, encoded a window of chunks at a time on
// the pool and emitted in chunk order, so the bytes never depend on the
// thread count. Every other checkpoint emits one delta chunk carrying
// everything appended (and every dictionary entry interned) since the
// previous chunk; events the ring evicted before they shipped are
// skipped and counted as dropped.
class RunEncoder {
 public:
  // Receives one complete chunk frame (envelope | payload | checksum).
  // A throw aborts the checkpoint: the high-water marks stay where they
  // were.
  using Emit = std::function<void(const std::string& chunk)>;

  // `footer_wall_ms` pins the footer clock (ms since epoch); -1 stamps
  // the real clock. Pinning it makes repeated encodes byte-identical.
  explicit RunEncoder(std::int64_t footer_wall_ms = -1)
      : footer_wall_ms_(footer_wall_ms) {}

  // The 16-byte run header: magic, format version, reserved 0.
  static std::string header();

  // One delta chunk with everything new since the previous chunk.
  // Emits nothing and returns false when a chunk already shipped,
  // nothing changed, and `force` is false.
  bool checkpoint(const TraceRun& run, bool force, const Emit& emit);

  // Ships the rest of the run: the save layout when no chunk shipped
  // yet, otherwise one forced delta chunk.
  void finish(const TraceRun& run, const Emit& emit);

  // The 48-byte footer describing every chunk shipped so far.
  [[nodiscard]] std::string footer(bool final) const;

  [[nodiscard]] std::uint64_t chunks() const { return chunks_; }
  // Absolute append-stream index one past the last shipped event.
  [[nodiscard]] std::uint64_t events() const { return next_event_; }
  // Ring-evicted events that were never shipped.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  void save_layout(const TraceRun& run, const Emit& emit);

  std::int64_t footer_wall_ms_;
  std::uint64_t chunks_ = 0;
  std::uint64_t next_event_ = 0;  // absolute index of first unshipped event
  std::uint64_t dropped_ = 0;
  std::uint32_t frames_written_ = 0;
  std::uint32_t stacks_written_ = 1;  // empty stack id 0 is implicit
  std::uint32_t names_written_ = 1;   // name id 0 is implicit
  std::string last_meta_;
  // arenas_[0] encodes delta chunks; the save layout uses one per
  // chunk of its encode window.
  std::vector<codec::EncodeArena> arenas_ = std::vector<codec::EncodeArena>(1);
};

}  // namespace diog::evstore
