#include "eventstore/chunk_codec.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "eventstore/codecs.h"
#include "eventstore/run_format.h"
#include "eventstore/schema.h"
#include "obs/span.h"
#include "parallel/thread_pool.h"
#include "support/clock.h"

namespace diog::evstore {

namespace {

using codec::EncodeArena;

void put_bytes(std::string& buf, const void* data, std::size_t n) {
  buf.append(static_cast<const char*>(data), n);
}
void put_u8(std::string& buf, std::uint8_t v) { put_bytes(buf, &v, 1); }
void put_u32(std::string& buf, std::uint32_t v) { put_bytes(buf, &v, 4); }
void put_i32(std::string& buf, std::int32_t v) { put_bytes(buf, &v, 4); }
void put_u64(std::string& buf, std::uint64_t v) { put_bytes(buf, &v, 8); }
void put_i64(std::string& buf, std::int64_t v) { put_bytes(buf, &v, 8); }
void put_str(std::string& buf, std::string_view s) {
  put_u32(buf, static_cast<std::uint32_t>(s.size()));
  put_bytes(buf, s.data(), s.size());
}

// One coded column entry: tag | width | codec | u64 enc_len | body.
// The preferred codec comes from format::kColumnCodecs, but the entry
// deterministically falls back to kCodecRaw whenever coding does not
// shrink the body, so hostile or incompressible data never inflates a
// chunk past its v2 size (plus the 9-byte entry overhead).
template <typename T>
void put_column_coded(EncodeArena& a, std::uint8_t tag, const Column<T>& col,
                      std::uint64_t rel_first, std::uint64_t count) {
  std::string& buf = a.frame;
  put_u8(buf, tag);
  put_u8(buf, static_cast<std::uint8_t>(sizeof(T)));
  const std::size_t codec_pos = buf.size();
  const std::uint8_t preferred = format::kColumnCodecs[tag];
  put_u8(buf, preferred);
  const std::size_t len_pos = buf.size();
  put_u64(buf, 0);  // patched below
  const std::size_t body = buf.size();
  const std::size_t raw_bytes = static_cast<std::size_t>(count) * sizeof(T);

  a.staging.resize(raw_bytes);
  auto* vals = reinterpret_cast<T*>(a.staging.data());
  if (count > 0) col.copy_rows(rel_first, count, vals);

  if (preferred == format::kCodecVarint) {
    // Coding stops as soon as it cannot beat raw, so the body never
    // needs more than raw_bytes plus one varint of room.
    buf.resize(body + raw_bytes + codec::kMaxVarintBytes);
    char* const start = buf.data() + body;
    char* const limit = start + raw_bytes;
    char* p = start;
    for (std::uint64_t i = 0; i < count && p < limit; ++i) {
      p = codec::put_varint(p, static_cast<std::uint64_t>(vals[i]));
    }
    buf.resize(body + static_cast<std::size_t>(p - start));
  } else if (preferred == format::kCodecDelta) {
    if constexpr (sizeof(T) == 8) {
      a.miniblock.resize(codec::kDeltaMiniblock);
      codec::put_delta_u64(buf, reinterpret_cast<const std::uint64_t*>(vals),
                           count, a.miniblock.data());
    }
  }

  if (preferred == format::kCodecRaw || buf.size() - body >= raw_bytes) {
    buf.resize(body);
    buf[codec_pos] = static_cast<char>(format::kCodecRaw);
    put_bytes(buf, a.staging.data(), raw_bytes);
  }
  const std::uint64_t enc_len = buf.size() - body;
  std::memcpy(buf.data() + len_pos, &enc_len, 8);
}

// Dictionary entries a chunk carries: [from, to) in serialization
// order. A delta chunk passes the high-water marks; the save layout
// puts every entry in chunk 0 and empty ranges after that.
struct DictRange {
  std::uint32_t frames_from = 0, frames_to = 0;
  std::uint32_t stacks_from = 1, stacks_to = 1;  // id 0 is implicit
  std::uint32_t names_from = 1, names_to = 1;    // id 0 is implicit
};

DictRange dicts_upto(const EventStore& store) {
  return {.frames_from = 0,
          .frames_to = store.stacks().frame_count(),
          .stacks_from = 1,
          .stacks_to = store.stacks().stack_count(),
          .names_from = 1,
          .names_to = store.name_count()};
}

// One complete chunk frame in a.frame: envelope | payload | checksum.
// The payload is meta + dictionary deltas + coded column slices for
// events [chunk_first, chunk_first + count) of the append stream, where
// `rel_first` is that range's start row in the store's resident window.
// Only reads the store, so disjoint chunks encode concurrently.
void encode_chunk(EncodeArena& a, const EventStore& store,
                  std::string_view meta_json, const DictRange& dicts,
                  std::uint64_t chunk_first, std::uint64_t count,
                  std::uint64_t rel_first) {
  DIOG_SPAN("evstore.save.encode");
  std::string& frame = a.frame;
  frame.clear();
  put_u32(frame, format::kChunkMagic);
  put_u64(frame, 0);  // payload length, patched below
  const std::size_t payload_at = frame.size();
  put_u64(frame, meta_json.size());
  put_bytes(frame, meta_json.data(), meta_json.size());

  const StackDict& stacks = store.stacks();
  put_u32(frame, dicts.frames_to - dicts.frames_from);
  for (std::uint32_t i = dicts.frames_from; i < dicts.frames_to; ++i) {
    const trace::Frame* f = stacks.frame_at(i);
    put_str(frame, f->function);
    put_str(frame, f->file);
    put_i32(frame, f->line);
  }

  put_u32(frame, dicts.stacks_to - dicts.stacks_from);
  for (StackId id = dicts.stacks_from; id < dicts.stacks_to; ++id) {
    const auto depth = static_cast<std::uint32_t>(stacks.depth(id));
    put_u32(frame, depth);
    for (std::uint32_t d = 0; d < depth; ++d) {
      put_u32(frame,
              static_cast<std::uint32_t>(stacks.stack_frame_id(id, d)));
    }
  }

  put_u32(frame, dicts.names_to - dicts.names_from);
  for (NameId id = dicts.names_from; id < dicts.names_to; ++id) {
    put_str(frame, store.name(id));
  }

  put_u64(frame, chunk_first);
  put_u64(frame, count);
  put_u8(frame, static_cast<std::uint8_t>(format::kColumnCount));
  put_u8(frame, format::kChunkEncodingCoded);
  put_column_coded(a, 0, store.col_kind(), rel_first, count);
  put_column_coded(a, 1, store.col_api(), rel_first, count);
  put_column_coded(a, 2, store.col_flags(), rel_first, count);
  put_column_coded(a, 3, store.col_stream(), rel_first, count);
  put_column_coded(a, 4, store.col_stack(), rel_first, count);
  put_column_coded(a, 5, store.col_aux_stack(), rel_first, count);
  put_column_coded(a, 6, store.col_name(), rel_first, count);
  put_column_coded(a, 7, store.col_op_index(), rel_first, count);
  put_column_coded(a, 8, store.col_t_start(), rel_first, count);
  put_column_coded(a, 9, store.col_t_end(), rel_first, count);
  put_column_coded(a, 10, store.col_aux_time(), rel_first, count);
  put_column_coded(a, 11, store.col_gpu_time(), rel_first, count);
  put_column_coded(a, 12, store.col_bytes(), rel_first, count);
  put_column_coded(a, 13, store.col_value(), rel_first, count);
  put_column_coded(a, 14, store.col_link(), rel_first, count);

  const std::uint64_t payload_len = frame.size() - payload_at;
  std::memcpy(frame.data() + 4, &payload_len, 8);
  put_u64(frame, format::fnv1a(format::kFnvSeed, frame.data() + payload_at,
                               payload_len));
}

}  // namespace

std::string RunEncoder::header() {
  std::string header;
  put_bytes(header, format::kMagic, sizeof(format::kMagic));
  put_u32(header, kFormatVersion);
  put_u32(header, 0);  // reserved
  return header;
}

bool RunEncoder::checkpoint(const TraceRun& run, bool force,
                            const Emit& emit) {
  const EventStore& store = *run.store;

  // Events evicted from the ring before they shipped are gone; record
  // the gap and continue from what is resident.
  const std::uint64_t first_avail = store.first_index();
  const std::uint64_t chunk_first = std::max(next_event_, first_avail);
  const std::uint64_t dropped = dropped_ + (chunk_first - next_event_);
  const std::uint64_t total = store.total_appended();
  const std::uint64_t count = total - chunk_first;

  const DictRange all = dicts_upto(store);
  const bool new_dicts = all.frames_to > frames_written_ ||
                         all.stacks_to > stacks_written_ ||
                         all.names_to > names_written_;

  RunMeta meta = run.meta;
  meta.dropped_events += dropped;
  const std::string meta_json = meta.to_json().dump();

  if (count == 0 && !new_dicts && meta_json == last_meta_ && chunks_ > 0 &&
      !force) {
    return false;
  }

  encode_chunk(arenas_[0], store, meta_json,
               {.frames_from = frames_written_,
                .frames_to = all.frames_to,
                .stacks_from = stacks_written_,
                .stacks_to = all.stacks_to,
                .names_from = names_written_,
                .names_to = all.names_to},
               chunk_first, count, chunk_first - first_avail);
  emit(arenas_[0].frame);

  next_event_ = total;
  dropped_ = dropped;
  frames_written_ = all.frames_to;
  stacks_written_ = all.stacks_to;
  names_written_ = all.names_to;
  last_meta_ = meta_json;
  ++chunks_;
  return true;
}

void RunEncoder::finish(const TraceRun& run, const Emit& emit) {
  if (chunks_ == 0) {
    save_layout(run, emit);
  } else {
    checkpoint(run, /*force=*/true, emit);
  }
}

void RunEncoder::save_layout(const TraceRun& run, const Emit& emit) {
  const EventStore& store = *run.store;
  const std::uint64_t first_avail = store.first_index();
  const std::uint64_t n = store.size();
  // Fixed chunking: ceil(n / kSegmentRows) chunks regardless of thread
  // count. An empty store still ships one (empty) chunk so the meta
  // survives.
  const std::uint64_t chunks =
      n == 0 ? 1 : (n + kSegmentRows - 1) / kSegmentRows;
  const std::uint64_t dropped = dropped_ + (first_avail - next_event_);

  RunMeta meta = run.meta;
  meta.dropped_events += dropped;
  const std::string meta_json = meta.to_json().dump();
  const DictRange all = dicts_upto(store);

  // Encode a window of chunks on the pool, then emit that window in
  // index order. The pool changes who encodes, never what, and every
  // emit happens in chunk order on this thread.
  const std::size_t window = static_cast<std::size_t>(
      std::min<std::uint64_t>(chunks, 2 * par::configured_threads()));
  if (arenas_.size() < window) arenas_.resize(window);
  for (std::uint64_t base = 0; base < chunks; base += window) {
    const auto batch = static_cast<std::size_t>(
        std::min<std::uint64_t>(window, chunks - base));
    par::parallel_for(batch, [&](std::size_t k) {
      const std::uint64_t rel_first = (base + k) * kSegmentRows;
      const std::uint64_t count =
          std::min<std::uint64_t>(kSegmentRows, n - rel_first);
      encode_chunk(arenas_[k], store, meta_json,
                   base + k == 0 ? all : DictRange{},
                   first_avail + rel_first, count, rel_first);
    });
    for (std::size_t k = 0; k < batch; ++k) emit(arenas_[k].frame);
  }

  next_event_ = first_avail + n;
  dropped_ = dropped;
  frames_written_ = all.frames_to;
  stacks_written_ = all.stacks_to;
  names_written_ = all.names_to;
  last_meta_ = meta_json;
  chunks_ += chunks;
}

std::string RunEncoder::footer(bool final) const {
  const std::int64_t wall_ms =
      footer_wall_ms_ >= 0 ? footer_wall_ms_ : wall_clock_ms();
  std::string footer;
  put_u32(footer, format::kFooterMagic);
  put_u32(footer, final ? format::kFooterFlagFinal : 0u);
  put_u64(footer, next_event_);
  put_u64(footer, chunks_);
  put_i64(footer, wall_ms);
  put_u64(footer,
          format::fnv1a(format::kFnvSeed, footer.data(), footer.size()));
  put_bytes(footer, format::kEndMagic, sizeof(format::kEndMagic));
  return footer;
}

}  // namespace diog::evstore
