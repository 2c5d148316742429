// Content-addressed run archive: the fleet's memory across runs.
//
// Layout under one root directory:
//
//   <root>/objects/<run_id>.dgtrace   the archived run bytes, named by
//                                     hash64_blocked over those bytes
//   <root>/index.jsonl                append-only digest index, one
//                                     diogenes.digest.v1 line per
//                                     ingested run
//
// Content addressing does two jobs at once. The id is a pure function
// of the file bytes (blocked hashing is thread-count-invariant, and the
// .dgtrace bytes themselves are already byte-identical at any --threads
// value), so ingestion is deterministic; and re-ingesting bytes the
// archive has already seen hits an existing object, which makes dedup
// free — the second add is a no-op that appends nothing.
//
// Crash consistency mirrors the run writer's discipline: object files
// land via write-temp-then-rename, index lines are single whole-line
// appends, and the reader tolerates a torn final line (a crash between
// the object rename and the index append leaves an orphan object, which
// gc() collects).
//
// An Archive reads the index incrementally: it keeps the parsed entries
// and the offset after the last complete line, and each index() call
// parses only the lines appended since (its own adds, another
// process's). It starts over from offset 0 when the file was replaced
// (gc's rename) or no longer holds the bytes it read. A long-lived
// Archive (the hub's) thus pays for each line once; a fresh one reads
// the whole file. An Archive is not thread-safe, index() included:
// share one only under a lock.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "archive/digest.h"
#include "core/tool_config.h"

namespace diog::archive {

struct ArchiveOptions {
  std::string root;
  // Analysis configuration for digest extraction.
  ffm::ToolConfig config;
  // Ingest wall-clock override (ms since epoch); -1 stamps the real
  // clock. Pin it to make repeated ingests byte-identical (the same
  // contract as SaveOptions::footer_wall_ms).
  std::int64_t ingest_wall_ms = -1;
};

std::string index_path(const std::string& root);
std::string object_path(const std::string& root, const std::string& run_id);

// The archive id for a byte buffer: hash64_blocked, 16 lowercase hex.
std::string run_id_of(std::span<const std::byte> bytes);

class Archive {
 public:
  // Stores the options only; directories are created lazily by add(),
  // so constructing an Archive over a read-only or absent root is fine
  // for index() / stats().
  explicit Archive(ArchiveOptions opts);

  struct AddResult {
    RunDigest digest;
    bool deduplicated = false;  // bytes already archived; nothing written
    std::string object_path;
  };

  // Ingests one finalized run file: hash the bytes, store the object,
  // extract the digest, append the index line. Throws diog::Error on
  // I/O failure, an unreadable or non-finalized run, or an analysis
  // failure (an in-progress prefix is not a unit of comparison). The
  // run is opened only when its bytes are not archived yet.
  AddResult add(const std::string& run_file);
  // The same ingest for a run file its caller already decoded (the
  // hub's session): `run` and `info` stand in for open_run's, so the
  // bytes are hashed and stored but not decoded again.
  AddResult add(const std::string& run_file, const evstore::TraceRun& run,
                const evstore::RunFileInfo& info);

  // Every parseable index line, in append (ingest) order. A torn final
  // line (interrupted append) is skipped silently. The reference stays
  // valid until the next call on this Archive.
  [[nodiscard]] const std::vector<RunDigest>& index() const;

  struct GcStats {
    std::uint64_t objects_kept = 0;
    std::uint64_t objects_removed = 0;   // orphans: not in the index
    std::uint64_t bytes_removed = 0;
    std::uint64_t index_entries = 0;     // entries surviving compaction
    std::uint64_t index_dropped = 0;     // entries whose object vanished
  };

  // Removes objects no index entry references and compacts away index
  // entries whose object file is gone (the index rewrite is
  // temp-then-rename, so a crash mid-gc never loses the index).
  GcStats gc();

  struct Stats {
    std::uint64_t runs = 0;       // distinct run ids in the index
    std::uint64_t bytes = 0;      // archived object bytes (per index)
    std::uint64_t workloads = 0;  // distinct workload names
    std::uint64_t index_entries = 0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const std::string& root() const { return opts_.root; }

 private:
  template <typename DigestNew>
  AddResult add_with(const std::string& run_file, DigestNew&& digest_new);

  // The parsed index and where reading it stopped.
  struct IndexCache {
    std::vector<RunDigest> entries;
    // entries.back() came from an unterminated final line, which is
    // parsed again on the next read.
    bool tail = false;
    std::uint64_t offset = 0;  // bytes of complete lines consumed
    std::string last_line;     // the last complete line, '\n' included
    std::uint64_t dev = 0;
    std::uint64_t ino = 0;
  };

  ArchiveOptions opts_;
  mutable IndexCache index_;
};

}  // namespace diog::archive
