// The unified trace schema: one row shape for everything the pipeline
// observes.
//
// The FFM model is four separate collection runs feeding one analysis.
// Each collection stage appends its observations into one run, and every
// consumer reads them back through cursors, whatever stage wrote them.
// The event store holds them in a single columnar schema: every
// observation — a sync site, a traced driver call, a sync
// classification, a duplicate transfer, a first-use measurement, a
// tool-internal span, a page fault — is one fixed-width row whose
// meaning is selected by `kind`. Variable-size payloads
// (stacks, names) are interned into per-store dictionaries and referred
// to by 32-bit ids, so appending from a hot instrumentation path writes
// only fixed-width columns.
#pragma once

#include <cstdint>
#include <string_view>

#include "hooks/fn.h"
#include "support/clock.h"

namespace diog::evstore {

// Bumped whenever the on-disk layout of run files changes. Readers
// accept every version in [kMinFormatVersion, kFormatVersion]; writers
// always emit kFormatVersion. v2 = raw columns, v3 = per-column codecs.
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr std::uint32_t kMinFormatVersion = 2;

enum class EventKind : std::uint8_t {
  kSyncSite = 0,            // stage 1: distinct (api, stack) sync site
  kOp = 1,                  // stage 2: one traced top-level driver call
  kSyncClassification = 2,  // stage 3: required / unnecessary verdict
  kDuplicateTransfer = 3,   // stage 3: content-hash duplicate
  kSyncUse = 4,             // stage 4: first-use gap measurement
  kInternalSpan = 5,        // obs: one of the tool's own spans
  kPageFault = 6,           // memtrace: one protected-page access
  kCount_,
};
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kCount_);

std::string_view to_string(EventKind k);
// Parses the to_string spelling ("op", "sync_site", ...); returns false
// on unknown names (CLI filter input).
bool kind_from_name(std::string_view name, EventKind& out);

// Dictionary ids. Id 0 is reserved for "absent" in both dictionaries.
using StackId = std::uint32_t;
inline constexpr StackId kEmptyStack = 0;
using NameId = std::uint32_t;
inline constexpr NameId kNoName = 0;

// Bit layout of Event::flags. Bits 0-7 are booleans; bits 8-13 pack the
// small transfer enums so a transfer row needs no extra columns.
namespace flag {
inline constexpr std::uint32_t kPerformedSync = 1u << 0;
inline constexpr std::uint32_t kPerformedTransfer = 1u << 1;
inline constexpr std::uint32_t kAsyncRequested = 1u << 2;
inline constexpr std::uint32_t kSyncRequired = 1u << 3;
inline constexpr std::uint32_t kWriteAccess = 1u << 4;  // page faults

inline constexpr std::uint32_t kDirectionShift = 8;  // hooks::MemcpyKind
inline constexpr std::uint32_t kDstMemShift = 10;    // hooks::MemKind
inline constexpr std::uint32_t kSrcMemShift = 12;    // hooks::MemKind
inline constexpr std::uint32_t kEnumMask = 0x3;
}  // namespace flag

// The logical row. This is a *view* struct: the store keeps each field
// in its own column; an Event is materialized on read and scattered on
// append. Field use by kind:
//
//   kind                 t_start/t_end    aux_time        bytes   value            link
//   kSyncSite            -                -               -       hit count        -
//   kOp                  call interval    sync_wait       bytes   -                -
//   kSyncClassification  -                -               -       access ip        -
//   kDuplicateTransfer   -                -               bytes   content digest   first op index
//   kSyncUse             -                first-use gap   -       -                -
//   kInternalSpan        span interval    -               -       depth            parent index + 1
//   kPageFault           fault time       -               -       fault address    -
struct Event {
  EventKind kind = EventKind::kOp;
  std::uint16_t api = static_cast<std::uint16_t>(hooks::Fn::kCount_);
  std::uint32_t flags = 0;
  std::uint32_t stream = hooks::kDefaultStream;
  StackId stack = kEmptyStack;      // provenance stack
  StackId aux_stack = kEmptyStack;  // access stack (sync classifications)
  NameId name = kNoName;            // span / kernel name
  std::uint64_t op_index = 0;       // the pipeline-wide join key
  std::int64_t t_start = 0;         // virtual ns (host ns for spans)
  std::int64_t t_end = 0;
  std::int64_t aux_time = 0;  // sync_wait / first_use gap
  std::int64_t gpu_time = 0;  // duration of the enqueued GPU op
  std::uint64_t bytes = 0;
  std::uint64_t value = 0;  // hits / digest / ip / address / depth
  std::uint64_t link = 0;   // cross-event reference (kind-specific)

  [[nodiscard]] hooks::Fn fn() const { return static_cast<hooks::Fn>(api); }
  void set_fn(hooks::Fn f) { api = static_cast<std::uint16_t>(f); }

  [[nodiscard]] bool has(std::uint32_t f) const { return (flags & f) != 0; }
  void set(std::uint32_t f, bool on = true) {
    if (on) {
      flags |= f;
    } else {
      flags &= ~f;
    }
  }

  [[nodiscard]] hooks::MemcpyKind direction() const {
    return static_cast<hooks::MemcpyKind>((flags >> flag::kDirectionShift) &
                                          flag::kEnumMask);
  }
  void set_direction(hooks::MemcpyKind k) {
    flags = (flags & ~(flag::kEnumMask << flag::kDirectionShift)) |
            (static_cast<std::uint32_t>(k) << flag::kDirectionShift);
  }
  [[nodiscard]] hooks::MemKind dst_mem() const {
    return static_cast<hooks::MemKind>((flags >> flag::kDstMemShift) &
                                       flag::kEnumMask);
  }
  void set_dst_mem(hooks::MemKind k) {
    flags = (flags & ~(flag::kEnumMask << flag::kDstMemShift)) |
            (static_cast<std::uint32_t>(k) << flag::kDstMemShift);
  }
  [[nodiscard]] hooks::MemKind src_mem() const {
    return static_cast<hooks::MemKind>((flags >> flag::kSrcMemShift) &
                                       flag::kEnumMask);
  }
  void set_src_mem(hooks::MemKind k) {
    flags = (flags & ~(flag::kEnumMask << flag::kSrcMemShift)) |
            (static_cast<std::uint32_t>(k) << flag::kSrcMemShift);
  }

  [[nodiscard]] Duration duration() const { return Duration{t_end - t_start}; }
};

}  // namespace diog::evstore
