// Terminal rendering + JSON export of the analysis (paper §4, Figures
// 6-8). "Diogenes has a simple terminal-based command line interface to
// explore data analyzed by FFM. The results are sorted by potential
// benefit and then exported in the JSON format."
#pragma once

#include <limits>
#include <string>

#include "core/diogenes.h"
#include "eventstore/run_io.h"

namespace diog::ffm {

// Figure 7 left pane: entries (folds + sequences) sorted by benefit, in
// collect_findings order.
std::string render_overview(const AnalysisResult& r,
                            std::size_t max_entries = 8);

// The same entries with a "why:" line under each from its diagnosis —
// what the CLI's `overview` and `trace analyze` commands print.
std::string render_explained_overview(const AnalysisResult& r,
                                      std::size_t max_entries = 8);

// Figure 7 right pane: expansion of one fold into template-folded
// functions with "Conditionally unnecessary" annotations.
std::string render_fold_expansion(const AnalysisResult& r, const Group& fold);

// Figure 6: the numbered member listing of a sequence.
std::string render_sequence(const AnalysisResult& r, const Group& sequence);

// Figure 8: a subsequence's refined estimate.
std::string render_subsequence(const AnalysisResult& r, const Group& sub,
                               std::size_t first, std::size_t last);

// The Diogenes column of Table 2: per-API estimated savings.
std::string render_api_savings(const AnalysisResult& r);

// Complete machine-readable export.
json::Value export_json(const AnalysisResult& r);

// `diogenes trace stat`: one-screen summary of a run — metadata, store
// shape (events / segments / dictionaries / bytes), per-kind counts.
std::string render_run_stat(const evstore::TraceRun& run);

// Addendum for stat on a live / truncated file: chunk count, events
// checkpointed, drops, and the age of the last checkpoint. Shared by
// `trace stat` and `trace watch`.
std::string render_run_file_info(const evstore::RunFileInfo& info);

// The `trace watch` rate line: events/s and drops/s over one refresh
// interval, computed from the deltas between two polls. Returns ""
// until a full interval has elapsed (dt_s <= 0) — the first frame has
// no previous sample to difference against.
std::string render_watch_rates(std::uint64_t d_events,
                               std::uint64_t d_drops, double dt_s);

// One event, one line — the shared renderer behind `trace dump` and
// `trace tail`.
std::string render_event_line(const evstore::EventStore& store,
                              const evstore::Event& e);

// The same event as a JSON object (for `trace tail --jsonl`).
json::Object event_json(const evstore::EventStore& store,
                        const evstore::Event& e);

// `diogenes trace dump`: the first `max_events` events, one line each,
// optionally restricted to one kind ("op", "sync_site", ...). Throws
// diog::Error on an unknown kind name.
std::string render_run_dump(const evstore::TraceRun& run,
                            std::string_view kind_filter = {},
                            std::size_t max_events = 64);

// Filtered dump (`--kind K --range t0:t1`). Every filter is pushed
// down onto the cursor, so a dump of a narrow window over a huge run
// skips whole segments/blocks instead of materializing rows; `stats`
// (optional) reports how effective the pushdown was.
struct DumpOptions {
  std::string kind;  // empty = all kinds
  std::int64_t t0 = std::numeric_limits<std::int64_t>::min();
  std::int64_t t1 = std::numeric_limits<std::int64_t>::max();  // exclusive
  std::size_t max_events = 64;
};
struct DumpStats {
  std::uint64_t shown = 0;
  std::uint64_t remaining = 0;  // matching rows beyond max_events
  std::uint64_t segments_skipped = 0;
  std::uint64_t blocks_skipped = 0;
};
std::string render_run_dump(const evstore::TraceRun& run,
                            const DumpOptions& opts,
                            DumpStats* stats = nullptr);

}  // namespace diog::ffm
