#include "eventstore/run_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <new>
#include <vector>

#include "eventstore/codecs.h"
#include "eventstore/live_writer.h"
#include "eventstore/run_format.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "parallel/thread_pool.h"
#include "support/error.h"
#include "testkit/fault_plan.h"

namespace diog::evstore {

namespace {

namespace fmt = format;

// --- Payload parsing ---------------------------------------------------------

// Bounds-checked view over one chunk's payload bytes.
struct Slice {
  const unsigned char* p = nullptr;
  std::size_t n = 0;
  std::size_t off = 0;

  void need(std::size_t k) const {
    if (off + k > n || off + k < off) {
      throw Error("run file corrupted: chunk payload ends mid-record");
    }
  }
  const unsigned char* bytes(std::size_t k) {
    need(k);
    const unsigned char* out = p + off;
    off += k;
    return out;
  }
  std::uint8_t get_u8() { return *bytes(1); }
  std::uint32_t get_u32() {
    std::uint32_t v;
    std::memcpy(&v, bytes(4), 4);
    return v;
  }
  std::int32_t get_i32() {
    std::int32_t v;
    std::memcpy(&v, bytes(4), 4);
    return v;
  }
  std::uint64_t get_u64() {
    std::uint64_t v;
    std::memcpy(&v, bytes(8), 8);
    return v;
  }
  std::string get_str(std::size_t max = 1u << 20) {
    const std::uint32_t len = get_u32();
    if (len > max) throw Error("run file corrupted: oversized string");
    const unsigned char* b = bytes(len);
    return std::string(reinterpret_cast<const char*>(b), len);
  }
};

// One column's encoded bytes inside a chunk payload and how to decode
// them. v2 columns and v3 raw-codec columns point straight at the file
// bytes; coded columns carry the codec id for the decode pass.
struct ColumnSrc {
  const unsigned char* p = nullptr;
  std::uint64_t enc_len = 0;
  std::uint8_t codec = fmt::kCodecRaw;
};

// One chunk's column data, parsed and validated but not yet decoded
// into the store. The pointers alias the mapped/buffered file, which
// outlives the parse, so a batch of these can be decoded in parallel
// afterwards.
struct PendingLoad {
  ColumnSrc cols[fmt::kColumnCount] = {};
  std::uint64_t count = 0;
  std::uint64_t row = 0;  // destination row in the rebuilt store
};

// Reusable decode buffers: one per decoding thread (par::worker_local
// on the parallel open path, a parser member on the streaming path), so
// steady-state decode allocates nothing.
struct DecodeScratch {
  std::vector<unsigned char> bytes;   // natural-width column values
  std::vector<std::uint64_t> values;  // u64 staging for the delta codec
};

// Decodes one column to its natural width. Returns a pointer to
// `count` values: the file bytes themselves for the raw codec, scratch
// storage otherwise. Throws on any structural violation — the codec
// byte was already validated, so this is where truncated payloads,
// varint overruns, and value/width mismatches surface.
const unsigned char* decode_column(std::size_t c, const ColumnSrc& src,
                                   std::uint64_t count,
                                   DecodeScratch& scratch) {
  const std::size_t width = fmt::kColumnWidths[c];
  const std::size_t raw_bytes = static_cast<std::size_t>(count) * width;
  if (src.codec == fmt::kCodecRaw) {
    if (src.enc_len != raw_bytes) {
      throw Error("run file corrupted: raw column length mismatch");
    }
    return src.p;
  }
  scratch.bytes.resize(raw_bytes);
  const unsigned char* end = src.p + src.enc_len;
  if (src.codec == fmt::kCodecVarint) {
    const unsigned char* p = src.p;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t v = codec::get_varint(&p, end);
      if (width < 8 && (v >> (8 * width)) != 0) {
        throw Error("run file corrupted: varint value overflows column");
      }
      std::memcpy(scratch.bytes.data() + i * width, &v, width);
    }
    if (p != end) {
      throw Error("run file corrupted: trailing bytes in varint column");
    }
  } else {  // fmt::kCodecDelta
    scratch.values.resize(static_cast<std::size_t>(count));
    codec::get_delta_u64(src.p, end, scratch.values.data(), count);
    if (width == 8) {
      std::memcpy(scratch.bytes.data(), scratch.values.data(), raw_bytes);
    } else {
      // The writer only delta-packs 8-byte columns, but the codec byte
      // is attacker-controlled; narrow with a range check.
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t v = scratch.values[i];
        if ((v >> (8 * width)) != 0) {
          throw Error("run file corrupted: delta value overflows column");
        }
        std::memcpy(scratch.bytes.data() + i * width, &v, width);
      }
    }
  }
  return scratch.bytes.data();
}

// Accumulates chunks into one TraceRun. Dictionaries and columns are
// incremental across chunks (see run_io.h); the parser tracks where the
// append stream left off so index gaps (ring drops) are accounted.
// When `pending` is given, apply() parses and validates the chunk but
// defers the column copy into *pending (the parallel open path); when
// it is null the columns are loaded immediately (the follower path).
struct ChunkParser {
  TraceRun run;
  std::uint32_t version = kFormatVersion;  // header version (2 or 3)
  std::uint64_t next_expected = 0;  // absolute stream index after last chunk
  std::uint64_t dropped_gaps = 0;
  std::uint64_t chunks = 0;
  std::uint64_t resident_rows = 0;  // rows parsed so far (row offsets)
  bool dirty = false;  // columns loaded since the last finish_bulk_load
  std::vector<ChunkEncodingStat> chunk_stats;
  DecodeScratch scratch;  // immediate-path decode buffers, reused

  void apply(Slice payload, PendingLoad* pending = nullptr) {
    EventStore& store = *run.store;

    const std::uint64_t meta_len = payload.get_u64();
    if (meta_len > (1u << 20)) {
      throw Error("run file corrupted: oversized meta block");
    }
    const unsigned char* meta_bytes =
        payload.bytes(static_cast<std::size_t>(meta_len));
    run.meta = RunMeta::from_json(json::parse(std::string_view(
        reinterpret_cast<const char*>(meta_bytes),
        static_cast<std::size_t>(meta_len))));

    // Frame dictionary: re-intern into the process-wide FrameTable so
    // stacks from a reopened run compare (by pointer) with stacks
    // captured live in this process.
    const std::uint32_t frame_count = payload.get_u32();
    for (std::uint32_t i = 0; i < frame_count; ++i) {
      const std::string function = payload.get_str();
      const std::string file = payload.get_str();
      const std::int32_t line = payload.get_i32();
      store.stacks().load_frame(
          trace::FrameTable::instance().intern(function, file, line));
    }

    // Stack dictionary (ids continue across chunks).
    const std::uint32_t stack_count = payload.get_u32();
    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 0; i < stack_count; ++i) {
      const std::uint32_t depth = payload.get_u32();
      if (depth > 256) throw Error("run file corrupted: oversized stack");
      ids.clear();
      for (std::uint32_t d = 0; d < depth; ++d) {
        const std::uint32_t fid = payload.get_u32();
        if (fid >= store.stacks().frame_count()) {
          throw Error("run file corrupted: stack references unknown frame");
        }
        ids.push_back(fid);
      }
      store.stacks().load_stack(ids.data(), ids.size());
    }

    // Name dictionary (ids continue across chunks).
    const std::uint32_t name_count = payload.get_u32();
    for (std::uint32_t i = 0; i < name_count; ++i) {
      const NameId expected = store.name_count();
      const std::string nm = payload.get_str();
      if (nm.empty()) throw Error("run file corrupted: empty name entry");
      if (store.intern_name(nm) != expected) {
        throw Error("run file corrupted: duplicate name entry");
      }
    }

    // Columns.
    const std::uint64_t first = payload.get_u64();
    if (first < next_expected) {
      throw Error("run file corrupted: overlapping chunk event ranges");
    }
    dropped_gaps += first - next_expected;
    const std::uint64_t event_count = payload.get_u64();
    if (event_count > (1ull << 40)) {
      throw Error("run file corrupted: implausible event count");
    }
    const std::uint8_t column_count = payload.get_u8();
    if (column_count != fmt::kColumnCount) {
      throw Error("run file corrupted: unexpected column count");
    }
    std::uint8_t encoding = fmt::kChunkEncodingRaw;
    if (version >= 3) {
      encoding = payload.get_u8();
      if (encoding != fmt::kChunkEncodingRaw &&
          encoding != fmt::kChunkEncodingCoded) {
        throw Error("run file corrupted: unknown chunk encoding " +
                    std::to_string(encoding));
      }
    }
    ColumnSrc cols[fmt::kColumnCount];
    ChunkEncodingStat cstat{encoding, event_count, 0, 0};
    for (std::size_t c = 0; c < fmt::kColumnCount; ++c) {
      const std::uint8_t tag = payload.get_u8();
      const std::uint8_t width = payload.get_u8();
      if (tag != c || width != fmt::kColumnWidths[c]) {
        throw Error("run file corrupted: column tag/width mismatch");
      }
      ColumnSrc& cs = cols[c];
      if (encoding == fmt::kChunkEncodingCoded) {
        cs.codec = payload.get_u8();
        if (cs.codec >= fmt::kCodecCount) {
          throw Error("run file corrupted: unknown column codec " +
                      std::to_string(cs.codec));
        }
        cs.enc_len = payload.get_u64();
      } else {
        cs.codec = fmt::kCodecRaw;
        cs.enc_len = event_count * fmt::kColumnWidths[c];
      }
      cs.p = payload.bytes(static_cast<std::size_t>(cs.enc_len));
      cstat.column_bytes_stored += cs.enc_len;
      cstat.column_bytes_raw += event_count * fmt::kColumnWidths[c];
    }
    if (payload.off != payload.n) {
      throw Error("run file corrupted: trailing bytes after columns");
    }

    if (event_count > 0) {
      if (pending != nullptr) {
        std::copy(cols, cols + fmt::kColumnCount, pending->cols);
        pending->count = event_count;
        pending->row = resident_rows;
      } else {
        // Immediate path (follower / stream): decode one column at a
        // time through the reusable scratch. Reserve-then-fill is the
        // same final state as the old append_bulk load.
        EventStore::BulkLoader loader{store};
        const std::uint64_t row = store.size();
        loader.reserve(event_count);
        for (std::size_t c = 0; c < fmt::kColumnCount; ++c) {
          const unsigned char* d =
              decode_column(c, cols[c], event_count, scratch);
          loader.load_column_at(c, row, d, event_count);
        }
        dirty = true;
      }
    }
    chunk_stats.push_back(cstat);
    resident_rows += event_count;
    next_expected = first + event_count;
    ++chunks;
  }

  void finish_batch() {
    if (!dirty) return;
    run.store->finish_bulk_load();
    dirty = false;
  }
};

// --- Envelope walking --------------------------------------------------------

// Returns the header's format version; the reader accepts every
// version it can still decode (v2 raw columns, v3 coded columns).
std::uint32_t validate_header(const unsigned char* data, std::size_t size) {
  if (size < fmt::kHeaderBytes) {
    throw Error("run file truncated: shorter than the header");
  }
  if (std::memcmp(data, fmt::kMagic, sizeof(fmt::kMagic)) != 0) {
    throw Error("not a diogenes run file (bad magic)");
  }
  std::uint32_t version;
  std::memcpy(&version, data + 8, 4);
  if (version < kMinFormatVersion || version > kFormatVersion) {
    throw Error("unsupported run file version " + std::to_string(version) +
                " (expected " + std::to_string(kMinFormatVersion) + ".." +
                std::to_string(kFormatVersion) + ")");
  }
  return version;
}

struct WalkOutcome {
  bool saw_footer = false;
  bool footer_final = false;
  std::uint64_t footer_events = 0;
  std::uint64_t footer_chunks = 0;
  std::int64_t footer_wall_ms = 0;
  std::size_t consumed = 0;    // end of the last complete chunk
  std::size_t footer_end = 0;  // consumed + footer, when saw_footer
};

// Walks chunk envelopes starting at `p` (which must be a chunk
// boundary), calling `on_chunk(payload, len, index)` for each complete
// chunk. Stops at a valid footer, at an incomplete tail (a chunk or
// footer still being written — or torn by a kill — is indistinguishable
// from one that is mid-write, so it is never an error here), or at the
// end of the data. Checksum verification is the callback's job: the
// follower verifies inline, the one-shot opener batches all checksums
// into one parallel pass after the walk.
template <typename OnChunk>
WalkOutcome walk_envelopes(const unsigned char* p, std::size_t n,
                           std::uint64_t first_chunk_index,
                           OnChunk&& on_chunk) {
  WalkOutcome out;
  std::size_t off = 0;
  std::uint64_t index = first_chunk_index;
  for (;;) {
    out.consumed = off;
    if (n - off < 4) break;
    std::uint32_t magic;
    std::memcpy(&magic, p + off, 4);
    if (magic == fmt::kFooterMagic) {
      if (n - off < fmt::kFooterBytes) break;  // footer mid-write
      const unsigned char* f = p + off;
      std::uint64_t stored;
      std::memcpy(&stored, f + 32, 8);
      if (fmt::fnv1a(fmt::kFnvSeed, f, 32) != stored) break;  // torn
      if (std::memcmp(f + 40, fmt::kEndMagic, 8) != 0) break;
      std::uint32_t flags;
      std::memcpy(&flags, f + 4, 4);
      std::memcpy(&out.footer_events, f + 8, 8);
      std::memcpy(&out.footer_chunks, f + 16, 8);
      std::memcpy(&out.footer_wall_ms, f + 24, 8);
      out.saw_footer = true;
      out.footer_final = (flags & fmt::kFooterFlagFinal) != 0;
      out.footer_end = off + fmt::kFooterBytes;
      break;
    }
    if (magic != fmt::kChunkMagic) break;  // torn tail (old footer bytes)
    if (n - off < fmt::kChunkEnvelopeBytes) break;
    std::uint64_t len;
    std::memcpy(&len, p + off + 4, 8);
    // An implausible length is a torn envelope (stale bytes where the
    // length should be), not proof of corruption: stop at the prefix.
    if (len > (1ull << 40)) break;
    if (n - off < fmt::kChunkEnvelopeBytes + len) break;  // incomplete
    // A COMPLETE chunk shorter than any payload the writer can emit is
    // not a torn tail — it is a zero-length / self-overlapping envelope,
    // and walking it would loop over stale bytes. Hard corruption.
    if (len < fmt::kMinChunkPayloadBytes) {
      throw Error("run file corrupted: undersized chunk " +
                  std::to_string(index) + " (payload " + std::to_string(len) +
                  " bytes, minimum " +
                  std::to_string(fmt::kMinChunkPayloadBytes) + ")");
    }
    on_chunk(p + off + 12, static_cast<std::size_t>(len), index);
    ++index;
    off += fmt::kChunkEnvelopeBytes + static_cast<std::size_t>(len);
  }
  return out;
}

void verify_chunk_checksum(const unsigned char* payload, std::size_t len,
                           std::uint64_t index) {
  std::uint64_t stored;
  std::memcpy(&stored, payload + len, 8);
  if (fmt::fnv1a(fmt::kFnvSeed, payload, len) != stored) {
    throw Error("run file corrupted: checksum mismatch in chunk " +
                std::to_string(index));
  }
}

void check_footer_agreement(const WalkOutcome& out, const ChunkParser& parser) {
  if (out.saw_footer &&
      (out.footer_events != parser.next_expected ||
       out.footer_chunks != parser.chunks)) {
    throw Error("run file corrupted: footer disagrees with chunk contents");
  }
}

// Serial walk with inline verify+apply — the follower's incremental
// path, where chunks arrive one or two at a time.
WalkOutcome walk_chunks(const unsigned char* p, std::size_t n,
                        ChunkParser& parser) {
  const WalkOutcome out = walk_envelopes(
      p, n, parser.chunks,
      [&](const unsigned char* payload, std::size_t len, std::uint64_t index) {
        verify_chunk_checksum(payload, len, index);
        parser.apply(Slice{payload, len, 0});
      });
  check_footer_agreement(out, parser);
  return out;
}

// One-shot parse, used by both the mmap and stream readers. Four
// phases: (A) a serial envelope walk collects chunk extents, (B) all
// checksums verify in parallel (lowest failing chunk wins, matching the
// serial error), (C) a serial pass parses meta/dictionaries and
// validates column framing — dictionary ids chain across chunks, so
// this stays ordered — and (D) the column payloads, by far the bulk of
// the bytes, are copied into pre-reserved segments in parallel.
TraceRun parse_run(const unsigned char* data, std::size_t size,
                   RunFileInfo* info) {
  const std::uint32_t version = validate_header(data, size);

  // Phase A: envelope walk.
  struct Extent {
    const unsigned char* payload;
    std::size_t len;
  };
  std::vector<Extent> extents;
  const WalkOutcome out = walk_envelopes(
      data + fmt::kHeaderBytes, size - fmt::kHeaderBytes, 0,
      [&](const unsigned char* payload, std::size_t len, std::uint64_t) {
        extents.push_back({payload, len});
      });

  // Phase B: parallel checksum verification. Failures are reported
  // serially so the lowest bad chunk index is thrown at any thread
  // count, same as the serial walk.
  {
    DIOG_SPAN("evstore.open.checksum");
    std::vector<std::uint8_t> checksum_ok(extents.size(), 0);
    par::parallel_for(extents.size(), [&](std::size_t i) {
      std::uint64_t stored;
      std::memcpy(&stored, extents[i].payload + extents[i].len, 8);
      checksum_ok[i] = fmt::fnv1a(fmt::kFnvSeed, extents[i].payload,
                                  extents[i].len) == stored
                           ? 1
                           : 0;
    });
    for (std::size_t i = 0; i < extents.size(); ++i) {
      if (checksum_ok[i] == 0) {
        throw Error("run file corrupted: checksum mismatch in chunk " +
                    std::to_string(i));
      }
    }
  }

  // Phase C: serial meta/dictionary parse with deferred column loads.
  ChunkParser parser;
  parser.version = version;
  std::vector<PendingLoad> pendings(extents.size());
  {
    DIOG_SPAN("evstore.open.dicts");
    for (std::size_t i = 0; i < extents.size(); ++i) {
      parser.apply(Slice{extents[i].payload, extents[i].len, 0},
                   &pendings[i]);
    }
  }
  check_footer_agreement(out, parser);

  // Phase D: reserve once, then decode columns concurrently. Each
  // chunk fills a disjoint row range of the reserved segments; each
  // thread reuses one column-sized scratch, so decode is allocation-
  // free after warm-up. Decode errors follow parallel_for's lowest-
  // index rule, matching what a serial decode would throw first.
  EventStore& store = *parser.run.store;
  EventStore::BulkLoader loader{store};
  {
    DIOG_SPAN("evstore.open.reserve");
    loader.reserve(parser.resident_rows);
  }
  {
    DIOG_SPAN("evstore.open.decode");
    par::parallel_for(pendings.size(), [&](std::size_t i) {
      const PendingLoad& pl = pendings[i];
      if (pl.count == 0) return;
      DecodeScratch& scratch = par::worker_local<DecodeScratch>();
      for (std::size_t c = 0; c < fmt::kColumnCount; ++c) {
        const unsigned char* d = decode_column(c, pl.cols[c], pl.count,
                                               scratch);
        loader.load_column_at(c, pl.row, d, pl.count);
      }
    });
  }
  if (parser.resident_rows > 0) {
    DIOG_SPAN("evstore.open.finish");
    store.finish_bulk_load();
  }

  if (info != nullptr) {
    info->clean = out.saw_footer;
    info->finalized = out.footer_final;
    info->chunks = parser.chunks;
    info->events = parser.run.store->size();
    info->dropped_before_checkpoint = parser.dropped_gaps;
    info->bytes_consumed =
        fmt::kHeaderBytes + (out.saw_footer ? out.footer_end : out.consumed);
    info->checkpoint_wall_ms = out.footer_wall_ms;
    info->format_version = version;
    info->chunk_stats = std::move(parser.chunk_stats);
    for (const ChunkEncodingStat& cs : info->chunk_stats) {
      info->column_bytes_stored += cs.column_bytes_stored;
      info->column_bytes_raw += cs.column_bytes_raw;
    }
  }
  return std::move(parser.run);
}

class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
    if (testkit::fault_at("run_io.mmap") != nullptr) {
      throw Error("mmap failed for run file: " + path + " (injected fault)");
    }
    fd_ = ::open(path.c_str(), O_RDONLY);
    DIOG_CHECK(fd_ >= 0, "cannot open run file: " + path);
    struct stat st{};
    if (::fstat(fd_, &st) != 0 || st.st_size < 0) {
      ::close(fd_);
      throw Error("cannot stat run file: " + path);
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
      void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd_, 0);
      if (m == MAP_FAILED) {
        ::close(fd_);
        throw Error("mmap failed for run file: " + path);
      }
      data_ = static_cast<const unsigned char*>(m);
    }
  }
  ~MappedFile() {
    if (data_ != nullptr) {
      ::munmap(const_cast<unsigned char*>(data_), size_);
    }
    if (fd_ >= 0) ::close(fd_);
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const unsigned char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  int fd_ = -1;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
};

std::vector<unsigned char> read_whole_file(const std::string& path) {
  // Allocation failure while buffering the file is an I/O-layer error,
  // not something that may propagate as UB or a partial parse.
  if (const testkit::FaultSpec* f = testkit::fault_at("run_io.read.alloc")) {
    if (f->action == testkit::FaultAction::kBadAlloc) throw std::bad_alloc();
    throw Error("cannot read run file: buffer allocation failed: " + path);
  }
  std::ifstream in(path, std::ios::binary);
  DIOG_CHECK(in.good(), "cannot open run file: " + path);
  std::vector<unsigned char> buf;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    buf.insert(buf.end(), chunk, chunk + in.gcount());
  }
  return buf;
}

void note_open_metrics(const char* mode, std::size_t bytes) {
  if (!obs::Telemetry::enabled()) return;
  auto& m = obs::Telemetry::global().metrics();
  m.counter(std::string("evstore.open_") + mode).inc();
  m.counter("evstore.open_bytes").inc(bytes);
}

}  // namespace

std::string run_file_path(const std::string& dir,
                          const std::string& workload) {
  return dir + "/" + workload + ".dgtrace";
}

std::string heartbeat_file_path(const std::string& dir,
                                const std::string& workload) {
  return dir + "/" + workload + ".heartbeat.jsonl";
}

void save_run(const std::string& path, const TraceRun& run) {
  save_run(path, run, SaveOptions{});
}

void save_run(const std::string& path, const TraceRun& run,
              const SaveOptions& opts) {
  DIOG_SPAN("evstore.save");
  LiveRunWriter(path, {.fsync_checkpoints = false,
                       .footer_wall_ms = opts.footer_wall_ms})
      .finish(run);
}

TraceRun open_run(const std::string& path, ReadMode mode,
                  RunFileInfo* info) {
  DIOG_SPAN("evstore.open");
  if (mode == ReadMode::kAuto || mode == ReadMode::kMmap) {
    MappedFile f(path);
    note_open_metrics("mmap", f.size());
    return parse_run(f.data(), f.size(), info);
  }
  const std::vector<unsigned char> buf = read_whole_file(path);
  note_open_metrics("stream", buf.size());
  return parse_run(buf.data(), buf.size(), info);
}

// --- StreamParser ------------------------------------------------------------

struct StreamParser::Impl : ChunkParser {};

StreamParser::StreamParser() : impl_(std::make_unique<Impl>()) {}

StreamParser::~StreamParser() = default;

const TraceRun& StreamParser::run() const { return impl_->run; }

std::uint64_t StreamParser::chunks() const { return impl_->chunks; }

std::uint64_t StreamParser::events() const { return impl_->run.store->size(); }

std::uint64_t StreamParser::dropped() const { return impl_->dropped_gaps; }

void StreamParser::apply_header(const unsigned char* data, std::size_t n) {
  DIOG_CHECK(!header_seen_, "stream parser: duplicate header");
  if (n != fmt::kHeaderBytes) {
    throw Error("run stream corrupted: header frame is " + std::to_string(n) +
                " bytes (expected " + std::to_string(fmt::kHeaderBytes) + ")");
  }
  impl_->version = validate_header(data, n);
  header_seen_ = true;
}

void StreamParser::apply_chunk_frame(const unsigned char* frame,
                                     std::size_t n) {
  DIOG_CHECK(header_seen_, "stream parser: chunk frame before header");
  DIOG_CHECK(!clean_, "stream parser: chunk frame after footer");
  if (n < fmt::kChunkEnvelopeBytes) {
    throw Error("run stream corrupted: chunk frame shorter than its envelope");
  }
  std::uint32_t magic;
  std::memcpy(&magic, frame, 4);
  if (magic != fmt::kChunkMagic) {
    throw Error("run stream corrupted: bad chunk magic");
  }
  std::uint64_t len;
  std::memcpy(&len, frame + 4, 8);
  if (len != n - fmt::kChunkEnvelopeBytes) {
    throw Error("run stream corrupted: chunk length disagrees with frame");
  }
  if (len < fmt::kMinChunkPayloadBytes) {
    throw Error("run file corrupted: undersized chunk " +
                std::to_string(impl_->chunks) + " (payload " +
                std::to_string(len) + " bytes, minimum " +
                std::to_string(fmt::kMinChunkPayloadBytes) + ")");
  }
  const unsigned char* payload = frame + 12;
  verify_chunk_checksum(payload, static_cast<std::size_t>(len),
                        impl_->chunks);
  impl_->apply(Slice{payload, static_cast<std::size_t>(len), 0});
  impl_->finish_batch();
}

void StreamParser::apply_footer(const unsigned char* frame, std::size_t n) {
  DIOG_CHECK(header_seen_, "stream parser: footer frame before header");
  DIOG_CHECK(!clean_, "stream parser: duplicate footer");
  if (n != fmt::kFooterBytes) {
    throw Error("run stream corrupted: footer frame is " + std::to_string(n) +
                " bytes (expected " + std::to_string(fmt::kFooterBytes) + ")");
  }
  std::uint32_t magic;
  std::memcpy(&magic, frame, 4);
  if (magic != fmt::kFooterMagic) {
    throw Error("run stream corrupted: bad footer magic");
  }
  std::uint64_t stored;
  std::memcpy(&stored, frame + 32, 8);
  if (fmt::fnv1a(fmt::kFnvSeed, frame, 32) != stored) {
    throw Error("run stream corrupted: footer checksum mismatch");
  }
  if (std::memcmp(frame + 40, fmt::kEndMagic, 8) != 0) {
    throw Error("run stream corrupted: bad footer end magic");
  }
  WalkOutcome out;
  out.saw_footer = true;
  std::uint32_t flags;
  std::memcpy(&flags, frame + 4, 4);
  std::memcpy(&out.footer_events, frame + 8, 8);
  std::memcpy(&out.footer_chunks, frame + 16, 8);
  std::memcpy(&out.footer_wall_ms, frame + 24, 8);
  check_footer_agreement(out, *impl_);
  clean_ = true;
  finalized_ = (flags & fmt::kFooterFlagFinal) != 0;
  wall_ms_ = out.footer_wall_ms;
}

// --- RunFollower -------------------------------------------------------------

struct RunFollower::Impl : ChunkParser {
  // File identity captured when the header is first validated. A
  // dev/inode change afterwards means the path was atomically replaced:
  // the bytes at offset_ no longer belong to the stream the follower
  // consumed, so continuing would silently mix two files.
  bool has_identity = false;
  dev_t dev = 0;
  ino_t ino = 0;
};

RunFollower::RunFollower(std::string path) : path_(std::move(path)) {
  impl_ = std::make_unique<Impl>();
}

RunFollower::~RunFollower() = default;

const TraceRun& RunFollower::run() const { return impl_->run; }

std::uint64_t RunFollower::poll() {
  std::ifstream in(path_, std::ios::binary);
  if (!in.good()) return 0;  // writer has not created the file yet

  if (offset_ == 0) {
    unsigned char hdr[fmt::kHeaderBytes];
    in.read(reinterpret_cast<char*>(hdr), sizeof(hdr));
    if (in.gcount() < static_cast<std::streamsize>(sizeof(hdr))) return 0;
    impl_->version = validate_header(hdr, sizeof(hdr));
    info_.format_version = impl_->version;
    offset_ = fmt::kHeaderBytes;
    struct stat st{};
    if (::stat(path_.c_str(), &st) == 0) {
      impl_->has_identity = true;
      impl_->dev = st.st_dev;
      impl_->ino = st.st_ino;
    }
  } else {
    struct stat st{};
    if (impl_->has_identity && ::stat(path_.c_str(), &st) == 0 &&
        (st.st_dev != impl_->dev || st.st_ino != impl_->ino)) {
      throw Error("run file replaced mid-follow: " + path_);
    }
    // Chunks are immutable once complete, so the file can only grow
    // past the consumed prefix; shrinking below it means truncation —
    // the consumed events no longer match what is on disk.
    in.clear();
    in.seekg(0, std::ios::end);
    const std::streamoff end_pos = in.tellg();
    if (end_pos >= 0 && static_cast<std::uint64_t>(end_pos) < offset_) {
      throw Error("run file truncated mid-follow: " + path_);
    }
  }

  in.clear();
  in.seekg(static_cast<std::streamoff>(offset_));
  std::vector<unsigned char> buf;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    buf.insert(buf.end(), chunk, chunk + in.gcount());
  }
  if (buf.empty()) return 0;

  const std::uint64_t before = impl_->run.store->size();
  const WalkOutcome out = walk_chunks(buf.data(), buf.size(), *impl_);
  impl_->finish_batch();
  // The footer is never consumed: the writer's next chunk overwrites
  // it, so the follower re-reads that region on every poll.
  offset_ += out.consumed;

  info_.clean = out.saw_footer;
  info_.finalized = out.footer_final;
  info_.chunks = impl_->chunks;
  info_.events = impl_->run.store->size();
  info_.dropped_before_checkpoint = impl_->dropped_gaps;
  info_.bytes_consumed = offset_ + (out.saw_footer ? fmt::kFooterBytes : 0);
  if (out.saw_footer) info_.checkpoint_wall_ms = out.footer_wall_ms;
  info_.chunk_stats = impl_->chunk_stats;
  info_.column_bytes_stored = 0;
  info_.column_bytes_raw = 0;
  for (const ChunkEncodingStat& cs : info_.chunk_stats) {
    info_.column_bytes_stored += cs.column_bytes_stored;
    info_.column_bytes_raw += cs.column_bytes_raw;
  }
  return impl_->run.store->size() - before;
}

}  // namespace diog::evstore
