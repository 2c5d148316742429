#include "core/report.h"

#include <algorithm>
#include <cstdio>

#include "core/diagnosis.h"
#include "core/run_convert.h"
#include "eventstore/cursor.h"
#include "eventstore/run_format.h"
#include "support/clock.h"
#include "support/error.h"
#include "support/strings.h"

namespace diog::ffm {

namespace {

std::string time_and_pct(const AnalysisResult& r, Duration d) {
  return format_seconds(d) + " (" + format_percent(r.fraction_of_exec(d)) +
         ")";
}

// The Figure-7 listing: the first `max_entries` findings, best first,
// each with a "why:" line from its diagnosis when `explained`.
std::string overview(const AnalysisResult& r, std::size_t max_entries,
                     bool explained) {
  std::vector<Finding> shown = collect_findings(r);
  if (shown.size() > max_entries) shown.resize(max_entries);
  const std::vector<Diagnosis> why =
      explained ? diagnose(r, shown) : std::vector<Diagnosis>{};

  std::string out;
  out += "Diogenes Overview Display (" + r.workload_name + ")\n";
  out += "Time(s) (% of execution time)\n";
  for (std::size_t k = 0; k < shown.size(); ++k) {
    const Group& g = *shown[k].group;
    out += pad_left(time_and_pct(r, g.benefit), 22) + "  " + g.title + "\n";
    if (explained) {
      out += std::string(24, ' ') + "why: [" + why[k].pattern + "] " +
             why[k].headline + "\n";
    }
  }
  out += "  Back/Previous\n  Exit\n";
  return out;
}

}  // namespace

std::string render_overview(const AnalysisResult& r,
                            std::size_t max_entries) {
  return overview(r, max_entries, false);
}

std::string render_explained_overview(const AnalysisResult& r,
                                      std::size_t max_entries) {
  return overview(r, max_entries, true);
}

std::string render_fold_expansion(const AnalysisResult& r,
                                  const Group& fold) {
  std::string out;
  out += pad_left(time_and_pct(r, fold.benefit), 22) + "  " + fold.title +
         "\n";
  for (const Group::FoldEntry& e : fold.expansion) {
    out += pad_left(time_and_pct(r, e.benefit), 26) + "  " + e.folded_name +
           "\n";
    if (e.conditionally_unnecessary) {
      out += std::string(28, ' ') +
             "Conditionally unnecessary (see: conditions)\n";
    }
  }
  return out;
}

std::string render_sequence(const AnalysisResult& r, const Group& sequence) {
  std::string out;
  out += "Time Recoverable: " + format_seconds(sequence.benefit) + " (" +
         format_percent(r.fraction_of_exec(sequence.benefit)) +
         " of execution time)\n";
  out += "Number of Sync Issues: " + std::to_string(sequence.sync_issues) +
         "  Number of Transfer Issues: " +
         std::to_string(sequence.transfer_issues);
  if (sequence.instance_count() > 1) {
    out += "  (x " + std::to_string(sequence.instance_count()) +
           " loop instances)";
  }
  out += "\n\n";
  out += "Select start/ending subsequence to get refined estimate\n";
  for (const SequenceEntry& e : sequence_entries(r.graph, sequence)) {
    out += std::to_string(e.ordinal) + ". " + e.description + "\n";
  }
  return out;
}

std::string render_subsequence(const AnalysisResult& r, const Group& sub,
                               std::size_t first, std::size_t last) {
  std::string out;
  out += "Time Recoverable In Subsequence: " + format_seconds(sub.benefit) +
         "\n(" + format_percent(r.fraction_of_exec(sub.benefit)) +
         " of execution time)\n\n";
  const std::vector<SequenceEntry> entries = sequence_entries(r.graph, sub);
  std::size_t ordinal = first;
  for (const SequenceEntry& e : entries) {
    out += std::to_string(ordinal++) + ". " + e.description + "\n";
  }
  (void)last;
  return out;
}

std::string render_api_savings(const AnalysisResult& r) {
  std::string out;
  out += "Diogenes Estimated Savings (" + r.workload_name + ")\n";
  std::size_t pos = 1;
  for (const AnalysisResult::ApiSavings& s : r.api_savings()) {
    out += pad_left(format_seconds(s.savings), 12) + " (" +
           format_percent(r.fraction_of_exec(s.savings)) + ", " +
           std::to_string(pos++) + ")  " +
           std::string(hooks::fn_name(s.api)) + "\n";
  }
  return out;
}

json::Value export_json(const AnalysisResult& r) {
  json::Object o;
  o["workload"] = r.workload_name;
  o["exec_time_ns"] = duration_to_json(r.exec_time());
  o["collection_time_ns"] = duration_to_json(r.collection_time);
  o["overhead_factor"] = r.overhead_factor;
  // The stage sections are small (sync sites, classifications, first
  // uses) and built from the run on demand; the analysis keeps no copy.
  o["stage1"] = stage1_view(r.run).to_json();
  o["stage3"] = stage3_view(r.run).to_json();
  o["stage4"] = stage4_view(r.run).to_json();
  o["total_benefit_ns"] = duration_to_json(r.benefit.total);
  o["sync_benefit_ns"] = duration_to_json(r.benefit.sync_benefit);
  o["transfer_benefit_ns"] = duration_to_json(r.benefit.transfer_benefit);

  json::Array folds;
  for (const Group& g : r.folds) folds.push_back(g.to_json());
  o["folds"] = std::move(folds);
  json::Array seqs;
  for (const Group& g : r.sequences) seqs.push_back(g.to_json());
  o["sequences"] = std::move(seqs);
  json::Array points;
  for (const Group& g : r.single_points) points.push_back(g.to_json());
  o["single_points"] = std::move(points);

  json::Array apis;
  for (const AnalysisResult::ApiSavings& s : r.api_savings()) {
    json::Object so;
    so["api"] = std::string(hooks::fn_name(s.api));
    so["savings_ns"] = duration_to_json(s.savings);
    so["problem_count"] = s.problem_count;
    apis.emplace_back(std::move(so));
  }
  o["api_savings"] = std::move(apis);
  return json::Value(std::move(o));
}

std::string render_run_stat(const evstore::TraceRun& run) {
  namespace ev = evstore;
  const ev::EventStore& store = *run.store;
  std::string out;
  out += "Run: " + run.meta.workload + "\n";
  if (run.meta.wait_fn != hooks::Fn::kCount_) {
    out += "  wait funnel: " +
           std::string(hooks::fn_name(run.meta.wait_fn)) + "\n";
  }
  out += "  exec times: s1 " + format_seconds(run.meta.s1_exec) + "  s2 " +
         format_seconds(run.meta.s2_exec) + "  s3 " +
         format_seconds(run.meta.s3_exec) + "  s4 " +
         format_seconds(run.meta.s4_exec) + "\n";
  out += "  hashed: " + std::to_string(run.meta.transfers_hashed) +
         " transfers, " +
         format_bytes(static_cast<std::size_t>(run.meta.bytes_hashed)) +
         "\n";
  out += "Store: " + std::to_string(store.size()) + " events in " +
         std::to_string(store.segment_count()) + " segment(s), " +
         format_bytes(static_cast<std::size_t>(store.bytes_reserved())) +
         " reserved\n";
  out += "  dictionaries: " + std::to_string(store.stacks().stack_count()) +
         " stacks, " + std::to_string(store.stacks().frame_count()) +
         " frames, " + std::to_string(store.name_count()) + " names\n";
  for (std::size_t i = 0; i < ev::kEventKindCount; ++i) {
    const auto k = static_cast<ev::EventKind>(i);
    if (store.count_of(k) == 0) continue;
    out += pad_left(std::to_string(store.count_of(k)), 12) + "  " +
           std::string(ev::to_string(k)) + "\n";
  }
  if (store.dropped_events() > 0) {
    out += "  ring: " + std::to_string(store.dropped_events()) +
           " event(s) evicted in " +
           std::to_string(store.evicted_segments()) + " segment(s)\n";
  }
  return out;
}

std::string render_run_file_info(const evstore::RunFileInfo& info) {
  std::string out = "File: ";
  if (info.finalized) {
    out += "finalized";
  } else if (info.clean) {
    out += "in progress (clean prefix)";
  } else {
    out += "in progress (torn tail ignored)";
  }
  out += ", " + std::to_string(info.chunks) + " chunk(s), " +
         std::to_string(info.events) + " event(s) checkpointed, " +
         format_bytes(static_cast<std::size_t>(info.bytes_consumed)) + "\n";
  if (info.dropped_before_checkpoint > 0) {
    out += "  dropped before checkpoint: " +
           std::to_string(info.dropped_before_checkpoint) + " event(s)\n";
  }
  if (info.format_version > 0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2fx", info.compression_ratio());
    out += "  format: v" + std::to_string(info.format_version) +
           ", columns " +
           format_bytes(static_cast<std::size_t>(info.column_bytes_stored)) +
           " stored / " +
           format_bytes(static_cast<std::size_t>(info.column_bytes_raw)) +
           " raw (" + std::string(buf) + ")\n";
    // Per-chunk encoding breakdown; long files get elided in the middle
    // rather than scrolling the summary off screen.
    constexpr std::size_t kMaxChunkLines = 8;
    const std::size_t total = info.chunk_stats.size();
    for (std::size_t i = 0; i < total; ++i) {
      if (total > kMaxChunkLines && i == kMaxChunkLines / 2) {
        out += "    ... " +
               std::to_string(total - kMaxChunkLines + 1) +
               " chunk(s) elided ...\n";
        i = total - kMaxChunkLines / 2;
      }
      const evstore::ChunkEncodingStat& c = info.chunk_stats[i];
      const double r =
          c.column_bytes_stored > 0
              ? static_cast<double>(c.column_bytes_raw) /
                    static_cast<double>(c.column_bytes_stored)
              : 1.0;
      std::snprintf(buf, sizeof buf, "%.2fx", r);
      out += "    chunk " + std::to_string(i) + ": " +
             (c.encoding == evstore::format::kChunkEncodingCoded ? "coded"
                                                                 : "raw") +
             ", " + std::to_string(c.events) + " event(s), " +
             format_bytes(static_cast<std::size_t>(c.column_bytes_stored)) +
             " stored / " +
             format_bytes(static_cast<std::size_t>(c.column_bytes_raw)) +
             " raw (" + std::string(buf) + ")\n";
    }
  }
  if (info.checkpoint_wall_ms > 0) {
    const double age_s =
        static_cast<double>(wall_clock_ms() - info.checkpoint_wall_ms) /
        1000.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1f", age_s < 0 ? 0.0 : age_s);
    out += "  last checkpoint: " + std::string(buf) + "s ago\n";
  }
  return out;
}

std::string render_watch_rates(std::uint64_t d_events,
                               std::uint64_t d_drops, double dt_s) {
  if (dt_s <= 0) return std::string();
  char buf[96];
  std::snprintf(buf, sizeof buf, "Rate: %.0f event(s)/s, %.0f drop(s)/s\n",
                static_cast<double>(d_events) / dt_s,
                static_cast<double>(d_drops) / dt_s);
  return std::string(buf);
}

std::string render_event_line(const evstore::EventStore& store,
                              const evstore::Event& e) {
  namespace ev = evstore;
  std::string line = "[" + std::string(ev::to_string(e.kind)) + "]";
  if (e.api != static_cast<std::uint16_t>(hooks::Fn::kCount_)) {
    line += " " + std::string(hooks::fn_name(e.fn()));
  }
  if (e.name != ev::kNoName) line += " " + std::string(store.name(e.name));
  switch (e.kind) {
    case ev::EventKind::kSyncSite:
      line += " hits=" + std::to_string(e.value);
      break;
    case ev::EventKind::kOp:
      line += " op=" + std::to_string(e.op_index) + " t=[" +
              std::to_string(e.t_start) + "," + std::to_string(e.t_end) +
              ")ns";
      if (e.aux_time > 0) line += " wait=" + std::to_string(e.aux_time) + "ns";
      if (e.has(ev::flag::kPerformedTransfer)) {
        line += " " + std::string(hooks::to_string(e.direction())) + " " +
                format_bytes(static_cast<std::size_t>(e.bytes));
      }
      break;
    case ev::EventKind::kSyncClassification:
      line += " op=" + std::to_string(e.op_index) +
              (e.has(ev::flag::kSyncRequired) ? " required" : " unnecessary");
      break;
    case ev::EventKind::kDuplicateTransfer:
      line += " op=" + std::to_string(e.op_index) +
              " first=" + std::to_string(e.link) + " " +
              format_bytes(static_cast<std::size_t>(e.bytes));
      break;
    case ev::EventKind::kSyncUse:
      line += " op=" + std::to_string(e.op_index) +
              " first_use=" + std::to_string(e.aux_time) + "ns";
      break;
    case ev::EventKind::kInternalSpan:
      line += " t=[" + std::to_string(e.t_start) + "," +
              std::to_string(e.t_end) + ")ns depth=" +
              std::to_string(e.value);
      break;
    case ev::EventKind::kPageFault:
      line += " t=" + std::to_string(e.t_start) +
              "ns addr=" + std::to_string(e.value) +
              (e.has(ev::flag::kWriteAccess) ? " write" : " read");
      break;
    case ev::EventKind::kCount_:
      break;
  }
  if (const trace::Frame* leaf = store.stacks().leaf(e.stack)) {
    line += "  @" + leaf->file + ":" + std::to_string(leaf->line);
  }
  return line;
}

json::Object event_json(const evstore::EventStore& store,
                        const evstore::Event& e) {
  namespace ev = evstore;
  json::Object o;
  o["kind"] = std::string(ev::to_string(e.kind));
  if (e.api != static_cast<std::uint16_t>(hooks::Fn::kCount_)) {
    o["api"] = std::string(hooks::fn_name(e.fn()));
  }
  if (e.name != ev::kNoName) o["name"] = std::string(store.name(e.name));
  if (e.op_index != 0) o["op"] = e.op_index;
  if (e.t_start != 0 || e.t_end != 0) {
    o["t_start_ns"] = e.t_start;
    o["t_end_ns"] = e.t_end;
  }
  if (e.aux_time != 0) o["aux_ns"] = e.aux_time;
  if (e.bytes != 0) o["bytes"] = e.bytes;
  if (e.value != 0) o["value"] = e.value;
  if (e.link != 0) o["link"] = e.link;
  if (e.flags != 0) o["flags"] = e.flags;
  if (const trace::Frame* leaf = store.stacks().leaf(e.stack)) {
    o["site"] = leaf->file + ":" + std::to_string(leaf->line);
  }
  return o;
}

std::string render_run_dump(const evstore::TraceRun& run,
                            std::string_view kind_filter,
                            std::size_t max_events) {
  DumpOptions opts;
  opts.kind = std::string(kind_filter);
  opts.max_events = max_events;
  return render_run_dump(run, opts);
}

std::string render_run_dump(const evstore::TraceRun& run,
                            const DumpOptions& opts, DumpStats* stats) {
  namespace ev = evstore;
  const ev::EventStore& store = *run.store;
  ev::Cursor cursor(store);
  if (!opts.kind.empty()) {
    ev::EventKind k;
    DIOG_CHECK(ev::kind_from_name(opts.kind, k),
               "unknown event kind: " + opts.kind);
    cursor.kind(k);
  }
  if (opts.t0 != std::numeric_limits<std::int64_t>::min()) {
    cursor.t_start_at_least(opts.t0);
  }
  if (opts.t1 != std::numeric_limits<std::int64_t>::max()) {
    cursor.t_start_below(opts.t1);
  }
  std::string out;
  std::size_t shown = 0;
  ev::Event e;
  while (shown < opts.max_events && cursor.next(e)) {
    out += render_event_line(store, e) + "\n";
    ++shown;
  }
  const std::uint64_t remaining = cursor.count();
  if (remaining > 0) {
    out += "... " + std::to_string(remaining) + " more\n";
  }
  if (stats != nullptr) {
    stats->shown = shown;
    stats->remaining = remaining;
    stats->segments_skipped = cursor.segments_skipped();
    stats->blocks_skipped = cursor.blocks_skipped();
  }
  return out;
}

}  // namespace diog::ffm
