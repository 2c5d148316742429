// Segment-parallel scans over the event store.
//
// A scan shards the resident row window on segment boundaries, runs one
// predicate-pushdown cursor per shard (each shard probes its own
// segment/block stats independently), and merges the per-shard partial
// results in segment order — so the merged output is byte-for-byte the
// append-order result a serial cursor would produce, at any thread
// count. Requires that appending is done (the store's reader contract).
#pragma once

#include <vector>

#include "eventstore/cursor.h"
#include "parallel/thread_pool.h"

namespace diog::evstore {

// Pushdown effectiveness aggregated across shards.
struct ScanStats {
  std::uint64_t segments_skipped = 0;
  std::uint64_t blocks_skipped = 0;
};

// Runs `shard_fn(cursor, shard_index)` once per segment, where
// `cursor` is a copy of `proto` bounded to that segment's row range.
// Returns one result per shard, in segment order. `proto` keeps its
// predicates but any limit_rows on it is replaced per shard.
template <typename T, typename ShardFn>
std::vector<T> scan_shards(const EventStore& store, const Cursor& proto,
                           ShardFn&& shard_fn, ScanStats* stats = nullptr) {
  const std::uint64_t n = store.size();
  const auto shards =
      static_cast<std::size_t>((n + kSegmentRows - 1) / kSegmentRows);
  std::vector<T> out(shards);
  std::vector<ScanStats> shard_stats(stats != nullptr ? shards : 0);
  par::parallel_for(shards, [&](std::size_t s) {
    Cursor c = proto;
    const std::uint64_t lo = static_cast<std::uint64_t>(s) * kSegmentRows;
    c.limit_rows(lo, std::min<std::uint64_t>(n, lo + kSegmentRows));
    out[s] = shard_fn(c, s);
    if (stats != nullptr) {
      shard_stats[s] = {c.segments_skipped(), c.blocks_skipped()};
    }
  });
  if (stats != nullptr) {
    for (const ScanStats& st : shard_stats) {
      stats->segments_skipped += st.segments_skipped;
      stats->blocks_skipped += st.blocks_skipped;
    }
  }
  return out;
}

}  // namespace diog::evstore
