// Incremental run-file writer: the flight recorder's persistence half.
//
// A LiveRunWriter keeps a run file open for the duration of collection
// and appends one sealed chunk per checkpoint (format in run_io.h). The
// write order is the crash-consistency contract: chunk bytes are
// written and flushed before the footer is rewritten in place, so a
// reader never sees a footer that describes data not yet on disk, and a
// SIGKILL at any instant leaves at worst a torn tail after the last
// complete chunk. Checkpoints optionally fsync so the prefix survives
// power loss, not just process death.
//
// The bytes come from a RunEncoder (chunk_codec.h), which tracks the
// high-water marks into the store's append stream and dictionaries, so
// each checkpoint serializes only what is new. When ring eviction
// outruns checkpointing, the skipped index range is recorded as dropped
// (surfaced via RunMeta's dropped_events and the chunk index gap). This
// class adds only the file I/O: fault sites, flush/fsync, and the
// in-place footer rewrite. save_run is a LiveRunWriter whose only call
// is finish().
//
// Threading: all methods must be called from the store's appending
// thread (checkpoints read column data, which is single-writer).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "eventstore/chunk_codec.h"
#include "eventstore/run.h"
#include "eventstore/sink.h"

namespace diog::evstore {

class LiveRunWriter : public CheckpointSink {
 public:
  struct Options {
    bool fsync_checkpoints = true;
    // Footer wall-clock override (milliseconds since epoch); -1 stamps
    // the real clock. Pinning it makes repeated saves of the same run
    // byte-identical — the determinism oracle relies on this.
    std::int64_t footer_wall_ms = -1;
  };

  // Opens (truncates) the file and writes the header. Throws on I/O
  // failure. Creates missing parent directories.
  explicit LiveRunWriter(std::string path);
  LiveRunWriter(std::string path, Options opts);
  // Closes the file without finalizing — deliberately: destruction on
  // an error path must leave the same readable prefix a crash would.
  ~LiveRunWriter() override;
  LiveRunWriter(const LiveRunWriter&) = delete;
  LiveRunWriter& operator=(const LiveRunWriter&) = delete;

  // Appends everything new since the last checkpoint as one chunk, then
  // rewrites the footer. Skipped entirely when nothing changed and
  // `force` is false. No-op after finish().
  void checkpoint(const TraceRun& run, bool force = false) override;

  // Final chunks + footer with the finalized flag. When nothing was
  // checkpointed before, this writes the save layout (chunk_codec.h) —
  // which is all save_run is. Idempotent.
  void finish(const TraceRun& run) override;

 private:
  // Appends one chunk frame at data_end_ (the encoder's emit target).
  void write_chunk(const std::string& chunk);
  // Flushes the chunks just written, then rewrites the footer.
  // `shipped_before` is the encoder's shipped-event count before them.
  void commit(bool final, std::uint64_t shipped_before);
  void write_footer(bool final);
  void flush(bool with_fsync);

  std::string path_;
  Options opts_;
  std::FILE* f_ = nullptr;
  std::uint64_t data_end_ = 0;  // file offset where the next chunk goes
  RunEncoder enc_;
  const RunEncoder::Emit emit_ = [this](const std::string& chunk) {
    write_chunk(chunk);
  };
  bool finished_ = false;
};

}  // namespace diog::evstore
