#include "eventstore/run_io.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string_view>
#include <tuple>
#include <vector>

#include "eventstore/codecs.h"
#include "eventstore/live_writer.h"
#include "eventstore/run_format.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "parallel/thread_pool.h"
#include "support/error.h"
#include "support/input_file.h"
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
// outlives the parse, so the one-shot open decodes a batch of these in
// parallel afterwards.
struct PendingLoad {
  ColumnSrc cols[fmt::kColumnCount] = {};
  std::uint64_t count = 0;
  std::uint64_t row = 0;  // destination row in the rebuilt store
};

// Reusable decode buffers: one per decoding thread (par::worker_local
// on the parallel open path, a parser member on the streaming path), so
// steady-state decode allocates nothing. Values decode straight into
// the store's segments; a buffer here holds a chunk's column only when
// its rows straddle a segment boundary, or the u64 values of a
// delta-coded narrow column before they are narrowed.
struct DecodeScratch {
  std::tuple<std::vector<std::uint8_t>, std::vector<std::uint16_t>,
             std::vector<std::uint32_t>, std::vector<std::uint64_t>,
             std::vector<std::int64_t>>
      staged;

  template <typename T>
  T* stage(std::uint64_t count) {
    std::vector<T>& v = std::get<std::vector<T>>(staged);
    v.resize(static_cast<std::size_t>(count));
    return v.data();
  }
};

// Decodes one column's `count` values into `dst` at the column's own
// type. Throws on any structural violation — the codec byte was already
// validated, so this is where truncated payloads, varint overruns, and
// values too wide for the column surface.
template <typename T>
void decode_into(const ColumnSrc& src, std::uint64_t count, T* dst,
                 DecodeScratch& scratch) {
  if (src.codec == fmt::kCodecRaw) {
    if (src.enc_len != count * sizeof(T)) {
      throw Error("run file corrupted: raw column length mismatch");
    }
    std::memcpy(dst, src.p, static_cast<std::size_t>(src.enc_len));
    return;
  }
  const unsigned char* end = src.p + src.enc_len;
  if (src.codec == fmt::kCodecVarint) {
    const unsigned char* p = src.p;
    for (std::uint64_t i = 0; i < count; ++i) {
      // Most ids and flags are one byte: skip the general decoder.
      const std::uint64_t v =
          p != end && *p < 0x80 ? *p++ : codec::get_varint(&p, end);
      if constexpr (sizeof(T) < 8) {
        if ((v >> (8 * sizeof(T))) != 0) {
          throw Error("run file corrupted: varint value overflows column");
        }
      }
      dst[i] = static_cast<T>(v);
    }
    if (p != end) {
      throw Error("run file corrupted: trailing bytes in varint column");
    }
  } else if constexpr (sizeof(T) == 8) {  // fmt::kCodecDelta
    // The signed columns decode through their unsigned bit pattern.
    codec::get_delta_u64(src.p, end, reinterpret_cast<std::uint64_t*>(dst),
                         count);
  } else {
    // The writer only delta-packs 8-byte columns, but the codec byte is
    // attacker-controlled; narrow with a range check.
    std::uint64_t* wide = scratch.stage<std::uint64_t>(count);
    codec::get_delta_u64(src.p, end, wide, count);
    for (std::uint64_t i = 0; i < count; ++i) {
      if ((wide[i] >> (8 * sizeof(T))) != 0) {
        throw Error("run file corrupted: delta value overflows column");
      }
      dst[i] = static_cast<T>(wide[i]);
    }
  }
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

// Decodes one chunk's columns into its rows of the reserved store
// segments. The parallel open and the incremental readers share it.
// Rows inside one segment (every save_run chunk and hub push: they are
// segment-aligned) take the decoded values directly; a live
// checkpoint's chunk that straddles a segment boundary is staged.
void load_columns(EventStore::BulkLoader& loader, const PendingLoad& load,
                  DecodeScratch& scratch) {
  std::size_t c = 0;
  loader.visit_columns([&]<typename T>(Column<T>& col) {
    const ColumnSrc& src = load.cols[c++];
    if (T* dst = col.rows_in_segment(load.row, load.count)) {
      decode_into(src, load.count, dst, scratch);
      return;
    }
    T* staged = scratch.stage<T>(load.count);
    decode_into(src, load.count, staged, scratch);
    col.write_rows(load.row, staged, load.count);
  });
}

// Accumulates chunks into one TraceRun. Dictionaries and columns are
// incremental across chunks (see run_io.h); the parser tracks where the
// append stream left off so index gaps (ring drops) are accounted.
struct ChunkParser {
  TraceRun run;
  std::uint32_t version = kFormatVersion;  // header version (2 or 3)
  std::uint64_t next_expected = 0;  // absolute stream index after last chunk
  std::uint64_t dropped_gaps = 0;
  std::uint64_t chunks = 0;
  std::uint64_t resident_rows = 0;  // rows parsed so far (row offsets)
  std::vector<ChunkEncodingStat> chunk_stats;
  DecodeScratch scratch;  // the incremental readers' decode buffers

  // Parses one chunk payload: meta and dictionaries go into `run`; the
  // validated column framing comes back as the chunk's load, destined
  // for rows [resident_rows, resident_rows + count) of the store.
  PendingLoad apply(Slice payload) {
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
    PendingLoad load;
    ChunkEncodingStat cstat{encoding, event_count, 0, 0};
    for (std::size_t c = 0; c < fmt::kColumnCount; ++c) {
      const std::uint8_t tag = payload.get_u8();
      const std::uint8_t width = payload.get_u8();
      if (tag != c || width != fmt::kColumnWidths[c]) {
        throw Error("run file corrupted: column tag/width mismatch");
      }
      ColumnSrc& cs = load.cols[c];
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

    load.count = event_count;
    load.row = resident_rows;
    chunk_stats.push_back(cstat);
    resident_rows += event_count;
    next_expected = first + event_count;
    ++chunks;
    return load;
  }

  // The incremental readers' step (RunFollower, StreamParser): verify,
  // parse and load one chunk. The caller finishes the bulk load once
  // per batch. A chunk whose columns fail to decode is not counted:
  // its reserved rows (never written) and its place in the stream are
  // given back before the error propagates.
  void load_next(const unsigned char* payload, std::size_t len) {
    verify_chunk_checksum(payload, len, chunks);
    const std::uint64_t prev_next = next_expected;
    const std::uint64_t prev_gaps = dropped_gaps;
    const PendingLoad load = apply(Slice{payload, len, 0});
    if (load.count == 0) return;
    EventStore::BulkLoader loader{*run.store};
    loader.reserve(load.count);
    try {
      load_columns(loader, load, scratch);
    } catch (...) {
      loader.unreserve(load.row);
      resident_rows = load.row;
      next_expected = prev_next;
      dropped_gaps = prev_gaps;
      --chunks;
      chunk_stats.pop_back();
      throw;
    }
  }
};

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

void check_footer_agreement(const FooterRecord& footer,
                            const ChunkParser& parser) {
  if (footer.events != parser.next_expected ||
      footer.chunks != parser.chunks) {
    throw Error("run file corrupted: footer disagrees with chunk contents");
  }
}

// What a walk under the file policy found.
struct FileWalk {
  std::size_t consumed = 0;  // bytes of the complete chunks walked
  std::optional<FooterRecord> footer;
};

// The file policy over read_frame: walks complete chunks from a chunk
// boundary, calling on_chunk(payload, len) for each, and stops at a
// footer or at the end of the readable prefix. A chunk or footer still
// being written, or torn by a kill, is indistinguishable from one that
// is mid-write, so only a corrupt frame is an error here. Checksums are
// the callback's job: the follower verifies inline, the one-shot opener
// batches them into one parallel pass after the walk.
template <typename OnChunk>
FileWalk walk_file(const unsigned char* p, std::size_t n,
                   std::uint64_t first_chunk, OnChunk&& on_chunk) {
  FileWalk walk;
  for (std::uint64_t index = first_chunk;; ++index) {
    const Frame f = read_frame(p + walk.consumed, n - walk.consumed, index);
    if (f.kind != Frame::Kind::kChunk) {
      if (f.kind == Frame::Kind::kFooter) walk.footer = f.footer;
      if (f.corrupt) throw Error(f.reason);
      return walk;
    }
    on_chunk(f.payload, f.payload_len);
    walk.consumed += static_cast<std::size_t>(f.size);
  }
}

// Describes what `parser` holds: complete chunks ending at file offset
// `chunks_end`, then `footer` when one was found. A footer's wall clock
// outlives the footer, because a writer rewrites it at every
// checkpoint and a follower may look in between.
void fill_info(RunFileInfo& info, const ChunkParser& parser,
               std::uint64_t chunks_end,
               const std::optional<FooterRecord>& footer) {
  info.clean = footer.has_value();
  info.finalized = footer && footer->finalized;
  info.chunks = parser.chunks;
  info.events = parser.run.store->size();
  info.dropped_before_checkpoint = parser.dropped_gaps;
  info.bytes_consumed = chunks_end + (footer ? fmt::kFooterBytes : 0);
  if (footer) info.checkpoint_wall_ms = footer->wall_ms;
  info.format_version = parser.version;
  info.chunk_stats = parser.chunk_stats;
  info.column_bytes_stored = 0;
  info.column_bytes_raw = 0;
  for (const ChunkEncodingStat& cs : info.chunk_stats) {
    info.column_bytes_stored += cs.column_bytes_stored;
    info.column_bytes_raw += cs.column_bytes_raw;
  }
}

// open_run's one-shot parse of the mapped file. Four phases: (A) a
// serial frame walk collects chunk extents, (B) all checksums verify in
// parallel (lowest failing chunk wins, matching the serial error), (C)
// a serial pass parses meta/dictionaries and validates column framing
// — dictionary ids chain across chunks, so this stays ordered — and (D)
// the column payloads, by far the bulk of the bytes, decode in parallel
// at each column's own type straight into pre-reserved segments.
TraceRun parse_run(const unsigned char* data, std::size_t size,
                   RunFileInfo* info) {
  const std::uint32_t version = validate_header(data, size);
  ChunkParser parser;
  parser.version = version;

  // Phase A: frame walk.
  struct Extent {
    const unsigned char* payload;
    std::size_t len;
  };
  std::vector<Extent> extents;
  const FileWalk walk =
      walk_file(data + fmt::kHeaderBytes, size - fmt::kHeaderBytes, 0,
                [&](const unsigned char* payload, std::size_t len) {
                  extents.push_back({payload, len});
                });

  // Phase B: parallel checksum verification; parallel_for rethrows the
  // lowest failing index, so the error is the serial one at any thread
  // count.
  {
    DIOG_SPAN("evstore.open.checksum");
    par::parallel_for(extents.size(), [&](std::size_t i) {
      verify_chunk_checksum(extents[i].payload, extents[i].len, i);
    });
  }

  // Phase C: serial meta/dictionary parse with deferred column loads.
  std::vector<PendingLoad> loads(extents.size());
  {
    DIOG_SPAN("evstore.open.dicts");
    for (std::size_t i = 0; i < extents.size(); ++i) {
      loads[i] = parser.apply(Slice{extents[i].payload, extents[i].len, 0});
    }
  }
  if (walk.footer) check_footer_agreement(*walk.footer, parser);

  // Phase D: reserve once, then decode columns concurrently. Each
  // chunk fills a disjoint row range of the reserved segments (a saved
  // run's chunks are segment-aligned, so nothing is staged); each
  // thread reuses one scratch, so decode is allocation-free after
  // warm-up. Decode errors follow parallel_for's lowest-index rule,
  // matching what a serial decode would throw first.
  EventStore& store = *parser.run.store;
  EventStore::BulkLoader loader{store};
  {
    DIOG_SPAN("evstore.open.reserve");
    loader.reserve(parser.resident_rows);
  }
  {
    DIOG_SPAN("evstore.open.decode");
    par::parallel_for(loads.size(), [&](std::size_t i) {
      if (loads[i].count == 0) return;
      load_columns(loader, loads[i], par::worker_local<DecodeScratch>());
    });
  }
  if (parser.resident_rows > 0) {
    DIOG_SPAN("evstore.open.finish");
    store.finish_bulk_load();
  }

  if (info != nullptr) {
    *info = RunFileInfo{};
    fill_info(*info, parser, fmt::kHeaderBytes + walk.consumed, walk.footer);
  }
  return std::move(parser.run);
}

}  // namespace

constexpr std::string_view kRunSuffix = ".dgtrace";

std::string run_file_path(const std::string& dir,
                          const std::string& workload) {
  return dir + "/" + workload + std::string(kRunSuffix);
}

std::string heartbeat_file_path(const std::string& dir,
                                const std::string& workload) {
  return dir + "/" + workload + ".heartbeat.jsonl";
}

std::vector<std::string> list_run_files(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) return {path};
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(
           path, fs::directory_options::skip_permission_denied, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > kRunSuffix.size() && name.ends_with(kRunSuffix)) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string run_stem(const std::string& path) {
  std::string stem = std::filesystem::path(path).filename().string();
  if (stem.size() > kRunSuffix.size() && stem.ends_with(kRunSuffix)) {
    stem.resize(stem.size() - kRunSuffix.size());
  }
  return stem;
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

TraceRun open_run(const std::string& path, ReadMode /*mode*/,
                  RunFileInfo* info) {
  DIOG_SPAN("evstore.open");
  if (testkit::fault_at("run_io.mmap") != nullptr) {
    throw Error("mmap failed for run file: " + path + " (injected fault)");
  }
  support::InputFile file(path);
  DIOG_CHECK(file.is_open(), "cannot open run file: " + path);
  const auto bytes = file.map();
  if (!bytes) throw Error("mmap failed for run file: " + path);
  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("evstore.open_mmap").inc();
    m.counter("evstore.open_bytes").inc(bytes->size());
  }
  return parse_run(bytes->data(), bytes->size(), info);
}

// --- Frames ------------------------------------------------------------------

Frame read_frame(const unsigned char* data, std::size_t n,
                 std::uint64_t chunk_index) {
  Frame f;
  if (n < 4) return f;
  std::uint32_t magic;
  std::memcpy(&magic, data, 4);
  if (magic == fmt::kFooterMagic) {
    f.size = fmt::kFooterBytes;
    if (n < fmt::kFooterBytes) return f;
    f.kind = Frame::Kind::kMalformed;
    std::uint64_t stored;
    std::memcpy(&stored, data + 32, 8);
    if (fmt::fnv1a(fmt::kFnvSeed, data, 32) != stored) {
      f.reason = "footer checksum mismatch";
      return f;
    }
    if (std::memcmp(data + 40, fmt::kEndMagic, 8) != 0) {
      f.reason = "bad footer end magic";
      return f;
    }
    std::uint32_t flags;
    std::memcpy(&flags, data + 4, 4);
    f.footer.finalized = (flags & fmt::kFooterFlagFinal) != 0;
    std::memcpy(&f.footer.events, data + 8, 8);
    std::memcpy(&f.footer.chunks, data + 16, 8);
    std::memcpy(&f.footer.wall_ms, data + 24, 8);
    f.kind = Frame::Kind::kFooter;
    return f;
  }
  if (magic != fmt::kChunkMagic) {
    f.kind = Frame::Kind::kMalformed;
    f.reason = "unexpected frame magic";
    return f;
  }
  if (n < 12) return f;
  std::uint64_t len;
  std::memcpy(&len, data + 4, 8);
  if (len > (1ull << 40)) {
    f.kind = Frame::Kind::kMalformed;
    f.reason = "implausible chunk length " + std::to_string(len);
    return f;
  }
  f.size = fmt::kChunkEnvelopeBytes + len;
  if (n < f.size) return f;
  // A COMPLETE chunk shorter than any payload the writer can emit is not
  // a torn tail: it is a zero-length / self-overlapping envelope, and
  // walking it would loop over stale bytes.
  if (len < fmt::kMinChunkPayloadBytes) {
    f.kind = Frame::Kind::kMalformed;
    f.corrupt = true;
    f.reason = "run file corrupted: undersized chunk " +
               std::to_string(chunk_index) + " (payload " +
               std::to_string(len) + " bytes, minimum " +
               std::to_string(fmt::kMinChunkPayloadBytes) + ")";
    return f;
  }
  f.kind = Frame::Kind::kChunk;
  f.payload = data + 12;
  f.payload_len = static_cast<std::size_t>(len);
  return f;
}

// --- StreamParser ------------------------------------------------------------

struct StreamParser::Impl : ChunkParser {
  std::uint64_t chunks_end = 0;  // stream offset after the last chunk
  std::optional<FooterRecord> footer;
};

StreamParser::StreamParser() : impl_(std::make_unique<Impl>()) {}

StreamParser::~StreamParser() = default;

bool StreamParser::clean() const { return impl_->footer.has_value(); }

bool StreamParser::finalized() const {
  return impl_->footer && impl_->footer->finalized;
}

std::uint64_t StreamParser::chunks() const { return impl_->chunks; }

std::uint64_t StreamParser::events() const { return impl_->run.store->size(); }

std::uint64_t StreamParser::dropped() const { return impl_->dropped_gaps; }

const TraceRun& StreamParser::run() const { return impl_->run; }

RunFileInfo StreamParser::info() const {
  RunFileInfo info;
  fill_info(info, *impl_, impl_->chunks_end, impl_->footer);
  return info;
}

std::size_t StreamParser::accept(const unsigned char* data, std::size_t n,
                                 std::size_t budget) {
  if (!header_seen_) {
    if (n < fmt::kHeaderBytes) return 0;
    impl_->version = validate_header(data, fmt::kHeaderBytes);
    impl_->chunks_end = fmt::kHeaderBytes;
    header_seen_ = true;
    return fmt::kHeaderBytes;
  }
  if (clean()) {
    if (n > 0) throw Error("run stream corrupted: bytes after the final footer");
    return 0;
  }
  const Frame f = read_frame(data, n, impl_->chunks);
  // The receive budget: never buffer a frame larger than the reader is
  // willing to hold in memory.
  if (f.size > budget) {
    throw Error("run stream refused: frame of " + std::to_string(f.size) +
                " bytes exceeds the receive budget (" +
                std::to_string(budget) + ")");
  }
  switch (f.kind) {
    case Frame::Kind::kNeedMore:
      return 0;
    case Frame::Kind::kMalformed:
      // Every announced byte was put there by the peer, so what a file
      // tail may hold is a violation on a stream.
      throw Error(f.corrupt ? f.reason : "run stream corrupted: " + f.reason);
    case Frame::Kind::kChunk: {
      const std::uint64_t before = impl_->run.store->size();
      impl_->load_next(f.payload, f.payload_len);
      if (impl_->run.store->size() != before) {
        impl_->run.store->finish_bulk_load();
      }
      impl_->chunks_end += f.size;
      break;
    }
    case Frame::Kind::kFooter:
      check_footer_agreement(f.footer, *impl_);
      impl_->footer = f.footer;
      break;
  }
  return static_cast<std::size_t>(f.size);
}

// --- RunFollower -------------------------------------------------------------

struct RunFollower::Impl : ChunkParser {
  // File identity captured when the header is first validated. A
  // dev/inode change afterwards means the path was atomically replaced:
  // the bytes at offset_ no longer belong to the stream the follower
  // consumed, so continuing would silently mix two files.
  dev_t dev = 0;
  ino_t ino = 0;
};

RunFollower::RunFollower(std::string path) : path_(std::move(path)) {
  impl_ = std::make_unique<Impl>();
}

RunFollower::~RunFollower() = default;

const TraceRun& RunFollower::run() const { return impl_->run; }

std::uint64_t RunFollower::poll() {
  // Read, never mapped: the writer may truncate the file under us. The
  // identity and size checks use the descriptor the bytes come from.
  const support::InputFile file(path_);
  if (!file.is_open()) return 0;  // writer has not created the file yet
  const struct stat& st = file.stat();
  if (offset_ != 0) {
    if (st.st_dev != impl_->dev || st.st_ino != impl_->ino) {
      throw Error("run file replaced mid-follow: " + path_);
    }
    // Chunks are immutable once complete, so the file can only grow
    // past the consumed prefix; shrinking below it means truncation —
    // the consumed events no longer match what is on disk.
    if (static_cast<std::uint64_t>(st.st_size) < offset_) {
      throw Error("run file truncated mid-follow: " + path_);
    }
  }
  const std::optional<std::string> tail = file.read_from(offset_);
  if (!tail) return 0;
  const auto* data = reinterpret_cast<const unsigned char*>(tail->data());
  std::size_t n = tail->size();
  if (offset_ == 0) {
    if (n < fmt::kHeaderBytes) return 0;
    impl_->version = validate_header(data, fmt::kHeaderBytes);
    info_.format_version = impl_->version;
    offset_ = fmt::kHeaderBytes;
    impl_->dev = st.st_dev;
    impl_->ino = st.st_ino;
    data += fmt::kHeaderBytes;
    n -= fmt::kHeaderBytes;
  }
  if (n == 0) return 0;

  const std::uint64_t before = impl_->run.store->size();
  const FileWalk walk =
      walk_file(data, n, impl_->chunks,
                [&](const unsigned char* payload, std::size_t len) {
                  impl_->load_next(payload, len);
                });
  if (walk.footer) check_footer_agreement(*walk.footer, *impl_);
  if (impl_->run.store->size() != before) impl_->run.store->finish_bulk_load();
  // The footer is never consumed: the writer's next chunk overwrites
  // it, so the follower re-reads that region on every poll.
  offset_ += walk.consumed;
  fill_info(info_, *impl_, offset_, walk.footer);
  return impl_->run.store->size() - before;
}

}  // namespace diog::evstore
