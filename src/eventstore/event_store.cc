#include "eventstore/event_store.h"

#include <algorithm>
#include <new>

#include "hooks/fn.h"
#include "obs/telemetry.h"
#include "support/error.h"
#include "testkit/fault_plan.h"

namespace diog::evstore {

std::string_view to_string(EventKind k) {
  switch (k) {
    case EventKind::kSyncSite: return "sync_site";
    case EventKind::kOp: return "op";
    case EventKind::kSyncClassification: return "sync_classification";
    case EventKind::kDuplicateTransfer: return "duplicate_transfer";
    case EventKind::kSyncUse: return "sync_use";
    case EventKind::kInternalSpan: return "internal_span";
    case EventKind::kPageFault: return "page_fault";
    case EventKind::kCount_: break;
  }
  return "?";
}

bool kind_from_name(std::string_view name, EventKind& out) {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const auto k = static_cast<EventKind>(i);
    if (to_string(k) == name) {
      out = k;
      return true;
    }
  }
  return false;
}

// --- StackDict ---------------------------------------------------------------

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t hash_frames(const trace::Frame* const* frames, std::size_t n) {
  std::uint64_t h = 0x6a09e667f3bcc909ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h = mix(h, reinterpret_cast<std::uintptr_t>(frames[i]));
  }
  return h;
}

}  // namespace

StackDict::StackDict() {
  stacks_.push_back(Span{0, 0});  // id 0: the empty stack
}

std::uint32_t StackDict::frame_id(const trace::Frame* f) {
  const auto it = frame_index_.find(f);
  if (it != frame_index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(frames_.size());
  frames_.push_back(f);
  frame_index_.emplace(f, id);
  return id;
}

StackId StackDict::intern(const trace::StackTrace& s) {
  return intern(s.frames().data(), s.frames().size());
}

StackId StackDict::intern(const trace::Frame* const* frames, std::size_t n) {
  if (n == 0) return kEmptyStack;
  const std::uint64_t h = hash_frames(frames, n);
  if (const auto it = by_hash_.find(h); it != by_hash_.end()) {
    for (const StackId id : it->second) {
      const Span& sp = stacks_[id];
      if (sp.len != n) continue;
      bool eq = true;
      for (std::size_t i = 0; i < n; ++i) {
        if (frames_[pool_[sp.offset + i]] != frames[i]) {
          eq = false;
          break;
        }
      }
      if (eq) return id;
    }
  }
  Span sp;
  sp.offset = static_cast<std::uint32_t>(pool_.size());
  sp.len = static_cast<std::uint32_t>(n);
  for (std::size_t i = 0; i < n; ++i) pool_.push_back(frame_id(frames[i]));
  const auto id = static_cast<StackId>(stacks_.size());
  stacks_.push_back(sp);
  by_hash_[h].push_back(id);
  return id;
}

std::size_t StackDict::depth(StackId id) const { return stacks_[id].len; }

const trace::Frame* StackDict::frame(StackId id, std::size_t i) const {
  const Span& sp = stacks_[id];
  DIOG_CHECK(i < sp.len, "stack frame index out of range");
  return frames_[pool_[sp.offset + i]];
}

const trace::Frame* StackDict::leaf(StackId id) const {
  const Span& sp = stacks_[id];
  if (sp.len == 0) return nullptr;
  return frames_[pool_[sp.offset + sp.len - 1]];
}

trace::StackTrace StackDict::stack_trace(StackId id) const {
  const Span& sp = stacks_[id];
  std::vector<const trace::Frame*> frames;
  frames.reserve(sp.len);
  for (std::uint32_t i = 0; i < sp.len; ++i) {
    frames.push_back(frames_[pool_[sp.offset + i]]);
  }
  return trace::StackTrace(std::move(frames));
}

void StackDict::load_frame(const trace::Frame* f) {
  // Serialization order must be preserved; duplicates indicate a
  // corrupt or hand-edited file.
  DIOG_CHECK(!frame_index_.contains(f) ||
                 frames_[frame_index_.at(f)] == f,
             "frame dictionary mismatch during load");
  if (!frame_index_.contains(f)) {
    frame_index_.emplace(f, static_cast<std::uint32_t>(frames_.size()));
  }
  frames_.push_back(f);
}

StackId StackDict::load_stack(const std::uint32_t* frame_ids, std::size_t n) {
  Span sp;
  sp.offset = static_cast<std::uint32_t>(pool_.size());
  sp.len = static_cast<std::uint32_t>(n);
  const trace::Frame* buf[256];
  DIOG_CHECK(n <= 256, "run file stack deeper than 256 frames");
  for (std::size_t i = 0; i < n; ++i) {
    DIOG_CHECK(frame_ids[i] < frames_.size(),
               "run file references unknown frame");
    pool_.push_back(frame_ids[i]);
    buf[i] = frames_[frame_ids[i]];
  }
  const auto id = static_cast<StackId>(stacks_.size());
  stacks_.push_back(sp);
  if (n > 0) by_hash_[hash_frames(buf, n)].push_back(id);
  return id;
}

std::size_t StackDict::stack_frame_id(StackId id, std::size_t i) const {
  const Span& sp = stacks_[id];
  DIOG_CHECK(i < sp.len, "stack frame index out of range");
  return pool_[sp.offset + i];
}

std::uint64_t StackDict::bytes_reserved() const {
  return stacks_.capacity() * sizeof(Span) +
         pool_.capacity() * sizeof(std::uint32_t) +
         frames_.capacity() * sizeof(const trace::Frame*);
}

// --- EventStore --------------------------------------------------------------

EventStore::EventStore() {
  names_.emplace_back();  // id 0: no name
}

NameId EventStore::intern_name(std::string_view name) {
  if (name.empty()) return kNoName;
  if (const auto it = name_index_.find(std::string(name));
      it != name_index_.end()) {
    return it->second;
  }
  const auto id = static_cast<NameId>(names_.size());
  names_.emplace_back(name);
  name_index_.emplace(names_.back(), id);
  return id;
}

std::string_view EventStore::name(NameId id) const {
  DIOG_CHECK(id < names_.size(), "bad name id");
  return names_[id];
}

void EventStore::note_segment_metrics() {
  if (!obs::Telemetry::enabled()) return;
  auto& m = obs::Telemetry::global().metrics();
  m.counter("evstore.segments").inc();
  m.gauge("evstore.bytes_reserved")
      .set(static_cast<std::int64_t>(bytes_reserved()));
}

void EventStore::evict_front_segment() {
  // Only called with >= 2 segments, so the front segment is full.
  std::uint64_t by_kind[kEventKindCount] = {};
  const std::uint8_t* kinds = kind_.segment(0);
  for (std::size_t i = 0; i < kSegmentRows; ++i) ++by_kind[kinds[i]];

  kind_.drop_front_segment();
  api_.drop_front_segment();
  flags_.drop_front_segment();
  stream_.drop_front_segment();
  stack_.drop_front_segment();
  aux_stack_.drop_front_segment();
  name_.drop_front_segment();
  op_index_.drop_front_segment();
  t_start_.drop_front_segment();
  t_end_.drop_front_segment();
  aux_time_.drop_front_segment();
  gpu_time_.drop_front_segment();
  bytes_.drop_front_segment();
  value_.drop_front_segment();
  link_.drop_front_segment();
  stats_.erase(stats_.begin());
  block_stats_.erase(block_stats_.begin(),
                     block_stats_.begin() + kSegmentRows / kBlockRows);

  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    if (by_kind[k] != 0) {
      dropped_per_kind_[k].fetch_add(by_kind[k], std::memory_order_relaxed);
    }
  }
  size_.fetch_sub(kSegmentRows, std::memory_order_release);
  evicted_events_.fetch_add(kSegmentRows, std::memory_order_relaxed);
  evicted_segments_.fetch_add(1, std::memory_order_relaxed);

  if (obs::Telemetry::enabled()) {
    // Literal names, not concatenation: eviction sits on the append
    // path's cold branch, which must stay allocation-free.
    static constexpr std::string_view kDroppedNames[kEventKindCount] = {
        "evstore.ring.dropped.sync_site",
        "evstore.ring.dropped.op",
        "evstore.ring.dropped.sync_classification",
        "evstore.ring.dropped.duplicate_transfer",
        "evstore.ring.dropped.sync_use",
        "evstore.ring.dropped.internal_span",
        "evstore.ring.dropped.page_fault",
    };
    auto& m = obs::Telemetry::global().metrics();
    m.counter("evstore.ring.evicted_segments").inc();
    m.counter("evstore.ring.dropped_events").inc(kSegmentRows);
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
      if (by_kind[k] == 0) continue;
      m.counter(kDroppedNames[k]).inc(by_kind[k]);
    }
  }
}

void EventStore::enforce_retention() {
  if (!retention_.bounded()) return;
  while (stats_.size() > 1 &&
         ((retention_.max_events != 0 && size() > retention_.max_events) ||
          (retention_.max_bytes != 0 &&
           bytes_reserved() > retention_.max_bytes))) {
    evict_front_segment();
  }
  // High watermarks of what actually stayed resident (cold path only).
  const std::uint64_t resident_bytes = bytes_reserved();
  const std::uint64_t resident_events = size();
  if (resident_bytes > resident_bytes_hwm_ ||
      resident_events > resident_events_hwm_) {
    resident_bytes_hwm_ = std::max(resident_bytes_hwm_, resident_bytes);
    resident_events_hwm_ = std::max(resident_events_hwm_, resident_events);
    if (obs::Telemetry::enabled()) {
      auto& m = obs::Telemetry::global().metrics();
      m.gauge("evstore.ring.resident_bytes_hwm")
          .set(static_cast<std::int64_t>(resident_bytes_hwm_));
      m.gauge("evstore.ring.resident_events_hwm")
          .set(static_cast<std::int64_t>(resident_events_hwm_));
    }
  }
}

void EventStore::fold_row(SegmentStats& segment, SegmentStats& block,
                          std::uint32_t kind, std::uint16_t api,
                          std::uint32_t flags, std::int64_t t_start) {
  for (SegmentStats* st : {&segment, &block}) {
    st->kinds_mask |= 1u << kind;
    st->flags_or |= flags;
    if (api < 64) st->api_mask |= 1ull << api;
    st->min_t = std::min(st->min_t, t_start);
    st->max_t = std::max(st->max_t, t_start);
  }
}

void EventStore::append(const Event& e) {
  DIOG_CHECK(e.kind < EventKind::kCount_, "bad event kind");
  const bool new_segment = size() % kSegmentRows == 0;
  // Injection point for segment-allocation failure: throw BEFORE any
  // column push so the columns stay mutually consistent and the store
  // remains usable after the failure.
  if (new_segment) fire_segment_alloc_fault();
  kind_.push(static_cast<std::uint8_t>(e.kind));
  api_.push(e.api);
  flags_.push(e.flags);
  stream_.push(e.stream);
  stack_.push(e.stack);
  aux_stack_.push(e.aux_stack);
  name_.push(e.name);
  op_index_.push(e.op_index);
  t_start_.push(e.t_start);
  t_end_.push(e.t_end);
  aux_time_.push(e.aux_time);
  gpu_time_.push(e.gpu_time);
  bytes_.push(e.bytes);
  value_.push(e.value);
  link_.push(e.link);

  if (new_segment) {
    stats_.emplace_back();
    note_segment_metrics();
  }
  if (size() % kBlockRows == 0) block_stats_.emplace_back();
  fold_row(stats_.back(), block_stats_.back(),
           static_cast<std::uint32_t>(e.kind), e.api, e.flags, e.t_start);
  per_kind_[static_cast<std::size_t>(e.kind)].fetch_add(
      1, std::memory_order_relaxed);
  size_.fetch_add(1, std::memory_order_release);

  if (new_segment && stats_.size() > 1) {
    // Cold path: the previous segment just sealed. Ring eviction and the
    // flight recorder's checkpoint hook both live here so the per-event
    // path above never touches them.
    enforce_retention();
    if (seal_cb_) seal_cb_();
  }
}

Event EventStore::event(std::uint64_t i) const {
  DIOG_CHECK(i < size(), "event index out of range");
  Event e;
  e.kind = static_cast<EventKind>(kind_.get(i));
  e.api = api_.get(i);
  e.flags = flags_.get(i);
  e.stream = stream_.get(i);
  e.stack = stack_.get(i);
  e.aux_stack = aux_stack_.get(i);
  e.name = name_.get(i);
  e.op_index = op_index_.get(i);
  e.t_start = t_start_.get(i);
  e.t_end = t_end_.get(i);
  e.aux_time = aux_time_.get(i);
  e.gpu_time = gpu_time_.get(i);
  e.bytes = bytes_.get(i);
  e.value = value_.get(i);
  e.link = link_.get(i);
  return e;
}

void EventStore::BulkLoader::reserve(std::uint64_t extra) {
  resize(store.size() + extra);
}

void EventStore::BulkLoader::unreserve(std::uint64_t rows) {
  DIOG_CHECK(rows <= store.size(), "unreserve past the reserved rows");
  resize(rows);
}

void EventStore::BulkLoader::resize(std::uint64_t rows) {
  store.kind_.resize_rows(rows);
  store.api_.resize_rows(rows);
  store.flags_.resize_rows(rows);
  store.stream_.resize_rows(rows);
  store.stack_.resize_rows(rows);
  store.aux_stack_.resize_rows(rows);
  store.name_.resize_rows(rows);
  store.op_index_.resize_rows(rows);
  store.t_start_.resize_rows(rows);
  store.t_end_.resize_rows(rows);
  store.aux_time_.resize_rows(rows);
  store.gpu_time_.resize_rows(rows);
  store.bytes_.resize_rows(rows);
  store.value_.resize_rows(rows);
  store.link_.resize_rows(rows);
  store.size_.store(rows, std::memory_order_release);
}

void EventStore::fire_segment_alloc_fault() {
  if (const testkit::FaultSpec* spec =
          testkit::fault_at("event_store.segment_alloc")) {
    if (spec->action == testkit::FaultAction::kBadAlloc) {
      throw std::bad_alloc();
    }
    throw Error("event store segment allocation failed (injected fault)");
  }
}

void EventStore::finish_bulk_load() {
  // Validate column agreement, then validate and fold into block/segment
  // stats and per-kind counts only the rows loaded since the last call:
  // the incremental readers call this once per chunk or poll, and the
  // dictionaries earlier rows were checked against only grow. The pass
  // is memory-bound and costs a few ms per million rows, so fanning it
  // out does not pay.
  const std::uint64_t n = size();
  DIOG_CHECK(kind_.size() == n && link_.size() == n && t_start_.size() == n,
             "column length mismatch after load");
  // resize() keeps a partly filled last segment's stats and extends them.
  stats_.resize(
      static_cast<std::size_t>((n + kSegmentRows - 1) / kSegmentRows));
  block_stats_.resize(
      static_cast<std::size_t>((n + kBlockRows - 1) / kBlockRows));
  std::uint64_t kinds[kEventKindCount] = {};
  for (std::uint64_t i = bulk_loaded_; i < n; ++i) {
    const auto kind_raw = kind_.get(i);
    DIOG_CHECK(kind_raw < kEventKindCount, "run file has bad event kind");
    const std::uint32_t stack_id = stack_.get(i);
    const std::uint32_t aux_id = aux_stack_.get(i);
    DIOG_CHECK(stack_id < stacks_dict_.stack_count() &&
                   aux_id < stacks_dict_.stack_count(),
               "run file references unknown stack");
    DIOG_CHECK(name_.get(i) < names_.size(),
               "run file references unknown name");
    // hooks::Fn::kCount_ is the stored "no API" value.
    const std::uint16_t api = api_.get(i);
    if (api > hooks::kFnCount) {
      throw Error("run file corrupted: unknown api id " +
                  std::to_string(api) + " at row " + std::to_string(i));
    }
    if (i % kSegmentRows == 0) note_segment_metrics();
    fold_row(stats_[i / kSegmentRows], block_stats_[i / kBlockRows],
             kind_raw, api, flags_.get(i), t_start_.get(i));
    ++kinds[kind_raw];
  }
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    per_kind_[k].fetch_add(kinds[k], std::memory_order_relaxed);
  }
  bulk_loaded_ = n;
}

std::uint64_t EventStore::bytes_reserved() const {
  std::uint64_t b = kind_.bytes_reserved() + api_.bytes_reserved() +
                    flags_.bytes_reserved() + stream_.bytes_reserved() +
                    stack_.bytes_reserved() + aux_stack_.bytes_reserved() +
                    name_.bytes_reserved() + op_index_.bytes_reserved() +
                    t_start_.bytes_reserved() + t_end_.bytes_reserved() +
                    aux_time_.bytes_reserved() + gpu_time_.bytes_reserved() +
                    bytes_.bytes_reserved() + value_.bytes_reserved() +
                    link_.bytes_reserved();
  b += stacks_dict_.bytes_reserved();
  for (const std::string& n : names_) b += n.capacity();
  return b;
}

std::uint64_t EventStore::count_of(EventKind k) const {
  return per_kind_[static_cast<std::size_t>(k)].load(
      std::memory_order_relaxed);
}

json::Value EventStore::stat_json() const {
  json::Object o;
  o["events"] = size();
  o["segments"] = static_cast<std::uint64_t>(stats_.size());
  o["segment_rows"] = static_cast<std::uint64_t>(kSegmentRows);
  o["bytes_reserved"] = bytes_reserved();
  o["stacks"] = stacks_dict_.stack_count();
  o["frames"] = stacks_dict_.frame_count();
  o["names"] = name_count();
  json::Object per_kind;
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    if (count_of(static_cast<EventKind>(i)) == 0) continue;
    per_kind[std::string(to_string(static_cast<EventKind>(i)))] =
        count_of(static_cast<EventKind>(i));
  }
  o["per_kind"] = std::move(per_kind);
  if (retention_.bounded() || dropped_events() > 0) {
    json::Object ring;
    ring["max_bytes"] = retention_.max_bytes;
    ring["max_events"] = retention_.max_events;
    ring["dropped_events"] = dropped_events();
    ring["evicted_segments"] = evicted_segments();
    ring["first_index"] = first_index();
    ring["total_appended"] = total_appended();
    json::Object dropped;
    for (std::size_t i = 0; i < kEventKindCount; ++i) {
      const auto k = static_cast<EventKind>(i);
      if (dropped_of(k) == 0) continue;
      dropped[std::string(to_string(k))] = dropped_of(k);
    }
    ring["dropped_per_kind"] = std::move(dropped);
    o["ring"] = std::move(ring);
  }
  return json::Value(std::move(o));
}

}  // namespace diog::evstore
