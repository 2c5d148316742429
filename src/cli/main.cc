// diogenes — the command-line front end (paper §4).
//
// "Diogenes is launched in a similar fashion to HPCToolkit's hpcprof and
// NVProf, no user involvement is necessary to advance diogenes through
// the stages of FFM. Diogenes has a simple terminal-based command line
// interface to explore data analyzed by FFM. The results are sorted by
// potential benefit and then exported in the JSON format."
//
// Usage:
//   diogenes <app> [command] [args...]
//
//   apps:     cumf_als | cuIBM | AMG | Rodinia
//   commands:
//     overview              grouped problems sorted by benefit (default)
//     api                   per-API estimated savings (Table-2 column)
//     folds                 every fold with its template expansion
//     seq <N>               member listing of sequence N (Figure 6)
//     sub <N> <first> <last> subsequence refinement (Figure 8)
//     fixes                 automatic-correction candidates (§6)
//     compare               run nvprof_like/hpctoolkit_like alongside
//     export <file.json>    write the full analysis as JSON
//     stages <dir>          overview, also saving the run as
//                           <dir>/<workload>.dgtrace
//     metrics               the tool's own telemetry: per-stage counters,
//                           latency histograms, Table-2-style overhead
//
// Trace-file mode (binary runs written with --trace-dir):
//   diogenes trace stat <file.dgtrace>            store summary
//   diogenes trace dump <file> [kind] [max]       event listing
//                       [--kind K] [--range t0:t1] [--max N]
//                                                 pushdown filters
//   diogenes trace tail <file> [--jsonl] [--poll-ms N] [--once]
//                                                 follow a (live) run
//   diogenes trace watch <file> [--poll-ms N] [--once]
//                                                 refreshing summary
//   diogenes trace profile <file>                 per-API time summary
//   diogenes trace analyze <file>                 full stage-5 analysis
//   diogenes trace diff <before> <after>          differential analysis
//   diogenes replay <dir> <workload> [command]    an analysis command over
//                                                 <dir>/<workload>.dgtrace
//
// Fleet mode (the archive subsystem; see DESIGN.md "Archive"):
//   diogenes archive add <trace-dir-or-file>   ingest finalized runs
//                        [--root DIR] [--ingest-wall-ms N]
//   diogenes archive ls <trace-dir> [--json]   list the digest index
//   diogenes archive gc <trace-dir>            collect orphans, compact
//   diogenes regress <trace-dir> [workload]    drift vs baseline median
//                        [--window N] [--benefit-pct P] [--json]
//                                              exit 3 when drift found
//   diogenes synth <out.dgtrace>               deterministic synthetic
//                        [--events N] [--problem-sites N]
//                        [--op-spacing-ns N] [--workload NAME] run files
//
// Hub mode (streaming ingestion; see DESIGN.md "Hub"):
//   diogenes serve <archive-root> [--port N]   trace hub daemon: accept
//                  [--http-port N] [--max-clients N]  .dgtrace streams
//                  [--spool DIR] [--ingest-wall-ms N] over loopback TCP,
//                                              ingest into the archive
//   diogenes push <run-file> [--host H]        one-shot upload of a
//                  [--port N] [--workload NAME] finalized run file
//
// Fuzzing mode (the testkit subsystem; see DESIGN.md "Testkit"):
//   diogenes fuzz <run-io|follower|ring|hub> [--seed N] [--budget-s S]
//                 [--corpus DIR] [--max-execs N] [--verbose]
//   diogenes fuzz minimize <artifact.dgtrace> [--target T] [--seed N]
//
// Flags (before the app name):
//   --verbose               narrate stages on stderr (log level info)
//   --misplaced-us <N>      misplaced-sync threshold (default 50)
//   --telemetry <file>      write self-telemetry as JSON lines
//   --trace-dir <dir>       save the complete run as <dir>/<app>.dgtrace
//   --retain-mb <N>         ring retention: cap resident store bytes
//   --retain-events <N>     ring retention: cap resident store events
//   --live                  flight recorder: checkpoint the run file
//                           during collection + stream heartbeats to
//                           <trace-dir>/<app>.heartbeat.jsonl; SIGUSR1
//                           forces an immediate checkpoint + heartbeat
//   --heartbeat-ms <N>      heartbeat interval (default 1000)
//   --checkpoint-ms <N>     min gap between timed checkpoints (500)
//   --sink <tcp://H:P>      stream every live checkpoint to a trace hub
//                           (`diogenes serve`); a completed stream is
//                           byte-identical to the saved run file
//   --threads <N>           thread count for open (checksum, decode),
//                           save (chunk encode), explorer binning and
//                           stage-3 hashing (default: hardware
//                           concurrency; 1 = fully serial). Output is
//                           byte-identical at any thread count.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "archive/archive.h"
#include "archive/regress.h"
#include "baselines/profilers.h"
#include "core/compare.h"
#include "core/diagnosis.h"
#include "core/diogenes.h"
#include "core/uvm_analysis.h"
#include "core/report.h"
#include "eventstore/run_io.h"
#include "explore/service.h"
#include "hub/client.h"
#include "hub/server.h"
#include "obs/heartbeat.h"
#include "obs/telemetry.h"
#include "parallel/thread_pool.h"
#include "support/error.h"
#include "support/strings.h"
#include "testkit/fuzz.h"
#include "testkit/synth_run.h"

using namespace diog;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: diogenes [--verbose] [--misplaced-us N] [--telemetry FILE]\n"
      "                [--trace-dir DIR] [--retain-mb N] [--retain-events N]\n"
      "                [--live] [--heartbeat-ms N] [--checkpoint-ms N]\n"
      "                [--threads N] <app> [command]\n"
      "       diogenes replay <dir> <workload> [command]  (reads\n"
      "                       <dir>/<workload>.dgtrace)\n"
      "       diogenes trace stat|dump|profile|analyze <file.dgtrace>\n"
      "       diogenes trace dump <file> [--kind K] [--range t0:t1] [--max N]\n"
      "       diogenes trace tail <file> [--jsonl] [--poll-ms N] [--once]\n"
      "       diogenes trace watch <file> [--poll-ms N] [--once]\n"
      "       diogenes trace diff <before.dgtrace> <after.dgtrace>\n"
      "       diogenes explore <run-or-trace-dir> [--port N] [--archive DIR]\n"
      "       diogenes archive add|ls|gc <trace-dir-or-file> [--root DIR]\n"
      "                        [--ingest-wall-ms N] [--json]\n"
      "       diogenes regress <trace-dir> [workload] [--root DIR]\n"
      "                        [--window N] [--benefit-pct P] [--json]\n"
      "                        (exit 3 = drift found)\n"
      "       diogenes synth <out.dgtrace> [--events N] [--problem-sites N]\n"
      "                      [--op-spacing-ns N] [--workload NAME]\n"
      "                      [--footer-wall-ms N]\n"
      "       diogenes serve <archive-root> [--port N] [--http-port N]\n"
      "                      [--max-clients N] [--spool DIR]\n"
      "                      [--ingest-wall-ms N]\n"
      "       diogenes push <run-file> [--host H] [--port N]\n"
      "                     [--workload NAME]\n"
      "       diogenes fuzz <run-io|follower|ring|hub> [--seed N]\n"
      "                     [--budget-s S]\n"
      "                     [--corpus DIR] [--max-execs N] [--verbose]\n"
      "       diogenes fuzz minimize <artifact> [--target T] [--seed N]\n"
      "  apps: cumf_als | cuIBM | AMG | Rodinia\n"
      "  commands: overview | api | folds | seq N | sub N A B | fixes |\n"
      "            compare | uvm | diff | export FILE | stages DIR |\n"
      "            metrics [--json]\n");
  return 2;
}

// Parses the whole of `text` as a base-10 number in [lo, hi] into `out`.
// An empty token, a sign on an unsigned type, trailing characters, NaN
// or an out-of-range value fail, so a typo is a usage error and not a
// zero.
template <typename T>
bool parse_number(const char* text, T& out,
                  T lo = std::numeric_limits<T>::lowest(),
                  T hi = std::numeric_limits<T>::max()) {
  const char* end = text + std::strlen(text);
  T v{};
  const auto [p, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || p != end || !(v >= lo && v <= hi)) return false;
  out = v;
  return true;
}

// `trace tail`: follow a run file — possibly one another process is
// still writing — and print each newly checkpointed event as it becomes
// readable. Exits when the writer finalizes the footer.
int cmd_trace_tail(const std::string& path, bool jsonl, int poll_ms,
                   bool once) {
  evstore::RunFollower follower(path);
  std::uint64_t printed = 0;
  for (;;) {
    follower.poll();
    const evstore::EventStore& store = *follower.run().store;
    for (; printed < store.size(); ++printed) {
      const evstore::Event e = store.event(printed);
      if (jsonl) {
        std::printf("%s\n",
                    json::Value(ffm::event_json(store, e)).dump().c_str());
      } else {
        std::printf("%s\n", ffm::render_event_line(store, e).c_str());
      }
    }
    std::fflush(stdout);
    if (follower.finalized() || once) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
  const evstore::RunFileInfo& info = follower.info();
  std::fprintf(stderr, "tail: %llu event(s) from %llu chunk(s)%s\n",
               static_cast<unsigned long long>(info.events),
               static_cast<unsigned long long>(info.chunks),
               info.finalized ? ", finalized" : "");
  return 0;
}

// `trace watch`: one-screen summary of a live run, refreshed in place
// until the writer finalizes. Each refresh after the first carries the
// rates over the interval just elapsed (events/s, drops/s), differenced
// from the store's monotonic append/drop counters.
int cmd_trace_watch(const std::string& path, int poll_ms, bool once) {
  evstore::RunFollower follower(path);
  auto prev_time = std::chrono::steady_clock::now();
  std::uint64_t prev_events = 0;
  std::uint64_t prev_drops = 0;
  bool first = true;
  for (;;) {
    follower.poll();
    const evstore::EventStore& store = *follower.run().store;
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t events = store.total_appended();
    const std::uint64_t drops =
        store.dropped_events() + follower.info().dropped_before_checkpoint;
    std::string out = ffm::render_run_stat(follower.run());
    out += ffm::render_run_file_info(follower.info());
    if (!first) {
      out += ffm::render_watch_rates(
          events - prev_events, drops - prev_drops,
          std::chrono::duration<double>(now - prev_time).count());
    }
    first = false;
    prev_time = now;
    prev_events = events;
    prev_drops = drops;
    if (!once) std::printf("\033[H\033[2J");  // home + clear
    std::printf("%s", out.c_str());
    std::fflush(stdout);
    if (follower.finalized() || once) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
  return 0;
}

int cmd_folds(const ffm::AnalysisResult& r) {
  for (const ffm::Group& fold : r.folds) {
    std::printf("%s\n", ffm::render_fold_expansion(r, fold).c_str());
  }
  return 0;
}

int cmd_seq(const ffm::AnalysisResult& r, std::size_t n) {
  if (n < 1 || n > r.sequences.size()) {
    std::fprintf(stderr, "no sequence #%zu (have %zu)\n", n,
                 r.sequences.size());
    return 1;
  }
  std::printf("%s", ffm::render_sequence(r, r.sequences[n - 1]).c_str());
  return 0;
}

int cmd_sub(const ffm::AnalysisResult& r, std::size_t n, std::size_t first,
            std::size_t last) {
  if (n < 1 || n > r.sequences.size()) {
    std::fprintf(stderr, "no sequence #%zu\n", n);
    return 1;
  }
  const ffm::Group& seq = r.sequences[n - 1];
  const auto entries = ffm::sequence_entries(r.graph, seq);
  if (first < 1 || last < first || last > entries.size()) {
    std::fprintf(stderr, "bounds must satisfy 1 <= first <= last <= %zu\n",
                 entries.size());
    return 1;
  }
  const ffm::Group sub = ffm::subsequence(r.graph, seq, first, last);
  std::printf("%s", ffm::render_subsequence(r, sub, first, last).c_str());
  return 0;
}

// Archive root resolution for the CLI: an explicit --root wins; a
// directory that already holds an index is itself the root; otherwise
// the conventional `<dir>/archive` subdirectory (which `add` creates
// and read-only commands simply find empty).
std::string cli_archive_root(const std::string& dir,
                             const std::string& explicit_root) {
  if (!explicit_root.empty()) return explicit_root;
  std::error_code ec;
  if (std::filesystem::is_regular_file(archive::index_path(dir), ec)) {
    return dir;
  }
  return (std::filesystem::path(dir) / "archive").string();
}

// The .dgtrace files `archive add <dir>` ingests, sorted for a
// deterministic ingest order.
std::vector<std::string> discover_run_files(const std::string& path) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) {
    files.push_back(path);
    return files;
  }
  for (const auto& entry : fs::directory_iterator(
           path, fs::directory_options::skip_permission_denied, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() == ".dgtrace") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int cmd_archive_add(archive::Archive& ar,
                    const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "archive add: no .dgtrace files found\n");
    return 1;
  }
  int failures = 0;
  for (const std::string& f : files) {
    try {
      const archive::Archive::AddResult res = ar.add(f);
      std::printf("%s %s  %-12s  %llu event(s), benefit %s  <- %s\n",
                  res.deduplicated ? "dedup   " : "archived",
                  res.digest.run_id.c_str(), res.digest.workload.c_str(),
                  static_cast<unsigned long long>(res.digest.events),
                  format_seconds(Duration(res.digest.total_benefit_ns))
                      .c_str(),
                  f.c_str());
    } catch (const Error& e) {
      std::fprintf(stderr, "archive add: %s\n", e.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int cmd_archive_ls(const archive::Archive& ar, bool json_out) {
  const std::vector<archive::RunDigest> idx = ar.index();
  if (json_out) {
    for (const archive::RunDigest& d : idx) {
      std::printf("%s\n", d.to_json().dump().c_str());
    }
    return 0;
  }
  for (const archive::RunDigest& d : idx) {
    std::printf(
        "%s  %-12s  %10llu event(s)  %zu finding(s)  benefit %s  %.2fx\n",
        d.run_id.c_str(), d.workload.c_str(),
        static_cast<unsigned long long>(d.events), d.findings.size(),
        format_seconds(Duration(d.total_benefit_ns)).c_str(),
        d.compression_ratio);
  }
  const archive::Archive::Stats st = ar.stats();
  std::printf("%llu run(s) across %llu workload(s), %s archived in %s\n",
              static_cast<unsigned long long>(st.runs),
              static_cast<unsigned long long>(st.workloads),
              format_bytes(static_cast<std::size_t>(st.bytes)).c_str(),
              ar.root().c_str());
  return 0;
}

int cmd_archive_gc(archive::Archive& ar) {
  const archive::Archive::GcStats st = ar.gc();
  std::printf(
      "gc: kept %llu object(s), removed %llu orphan(s) (%s), "
      "compacted %llu stale index entr%s\n",
      static_cast<unsigned long long>(st.objects_kept),
      static_cast<unsigned long long>(st.objects_removed),
      format_bytes(static_cast<std::size_t>(st.bytes_removed)).c_str(),
      static_cast<unsigned long long>(st.index_dropped),
      st.index_dropped == 1 ? "y" : "ies");
  return 0;
}

int cmd_compare(const apps::AppPair& app, const ffm::AnalysisResult& r) {
  std::printf("%s\n",
              baselines::render_profile(
                  baselines::run_nvprof_like(app.pathological))
                  .c_str());
  std::printf("%s\n",
              baselines::render_profile(
                  baselines::run_hpctoolkit_like(app.pathological))
                  .c_str());
  std::printf("%s", ffm::render_api_savings(r).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Resolve `--sink tcp://host:port` through the hub's client factory
  // (eventstore/sink.h keeps core free of a hub dependency).
  hub::register_tcp_sink();
  ffm::ToolConfig cfg;
  std::string telemetry_path;
  obs::Logger& log = obs::Telemetry::global().logger();
  int arg = 1;
  while (arg < argc && std::strncmp(argv[arg], "--", 2) == 0) {
    if (std::strcmp(argv[arg], "--verbose") == 0) {
      // Narration maps to log level info; the default (warn) keeps
      // stderr truly silent in non-verbose runs.
      cfg.verbose = true;
      log.set_level(obs::LogLevel::kInfo);
      ++arg;
    } else if (std::strcmp(argv[arg], "--misplaced-us") == 0 &&
               arg + 1 < argc) {
      std::int64_t threshold_us = 0;
      if (!parse_number<std::int64_t>(
              argv[arg + 1], threshold_us, 0,
              std::numeric_limits<std::int64_t>::max() / 1000)) {
        return usage();
      }
      cfg.misplaced_threshold = us(threshold_us);
      arg += 2;
    } else if (std::strcmp(argv[arg], "--telemetry") == 0 && arg + 1 < argc) {
      telemetry_path = argv[arg + 1];
      arg += 2;
    } else if (std::strcmp(argv[arg], "--trace-dir") == 0 && arg + 1 < argc) {
      cfg.trace_dir = argv[arg + 1];
      arg += 2;
    } else if (std::strcmp(argv[arg], "--retain-mb") == 0 && arg + 1 < argc) {
      if (!parse_number<std::uint64_t>(
              argv[arg + 1], cfg.retain_mb, 0,
              std::numeric_limits<std::uint64_t>::max() >> 20)) {
        return usage();
      }
      arg += 2;
    } else if (std::strcmp(argv[arg], "--retain-events") == 0 &&
               arg + 1 < argc) {
      if (!parse_number(argv[arg + 1], cfg.retain_events)) return usage();
      arg += 2;
    } else if (std::strcmp(argv[arg], "--live") == 0) {
      cfg.live = true;
      ++arg;
    } else if (std::strcmp(argv[arg], "--heartbeat-ms") == 0 &&
               arg + 1 < argc) {
      if (!parse_number(argv[arg + 1], cfg.heartbeat_interval_ms)) {
        return usage();
      }
      arg += 2;
    } else if (std::strcmp(argv[arg], "--checkpoint-ms") == 0 &&
               arg + 1 < argc) {
      if (!parse_number(argv[arg + 1], cfg.checkpoint_interval_ms)) {
        return usage();
      }
      arg += 2;
    } else if (std::strcmp(argv[arg], "--sink") == 0 && arg + 1 < argc) {
      cfg.sink = argv[arg + 1];
      arg += 2;
    } else if (std::strcmp(argv[arg], "--threads") == 0 && arg + 1 < argc) {
      std::size_t threads = 0;
      if (!parse_number(argv[arg + 1], threads)) return usage();
      par::set_threads(threads);
      arg += 2;
    } else {
      return usage();
    }
  }
  if (arg >= argc) return usage();

  // Telemetry is flushed on every exit path — normal return, exit(),
  // and uncaught exceptions (obs installs atexit + terminate hooks).
  if (!telemetry_path.empty()) {
    obs::Telemetry::set_exit_flush(telemetry_path);
  }
  if (cfg.live) {
    // `kill -USR1 <pid>` forces an immediate checkpoint + heartbeat.
    obs::install_checkpoint_signal_handler();
  }

  const std::string app_name = argv[arg++];
  const auto app_list = apps::all_apps();
  const apps::AppPair* app = nullptr;

  if (app_name == "trace") {
    // Offline trace-file mode: every subcommand operates directly on a
    // binary .dgtrace run, no application required.
    if (arg >= argc) return usage();
    const std::string sub = argv[arg++];
    try {
      if (sub == "stat" && arg < argc) {
        // Tolerates an in-progress / truncated file: the readable prefix
        // is summarized and its checkpoint state reported.
        evstore::RunFileInfo info;
        const evstore::TraceRun run =
            evstore::open_run(argv[arg], evstore::ReadMode::kAuto, &info);
        std::printf("%s", ffm::render_run_stat(run).c_str());
        std::printf("%s", ffm::render_run_file_info(info).c_str());
        return 0;
      }
      if ((sub == "tail" || sub == "watch") && arg < argc) {
        const std::string file = argv[arg++];
        bool jsonl = false;
        bool once = false;
        int poll_ms = 200;
        while (arg < argc) {
          if (std::strcmp(argv[arg], "--jsonl") == 0 && sub == "tail") {
            jsonl = true;
            ++arg;
          } else if (std::strcmp(argv[arg], "--once") == 0) {
            once = true;
            ++arg;
          } else if (std::strcmp(argv[arg], "--poll-ms") == 0 &&
                     arg + 1 < argc) {
            if (!parse_number(argv[arg + 1], poll_ms, 1)) return usage();
            arg += 2;
          } else {
            return usage();
          }
        }
        return sub == "tail" ? cmd_trace_tail(file, jsonl, poll_ms, once)
                             : cmd_trace_watch(file, poll_ms, once);
      }
      if (sub == "dump" && arg < argc) {
        const evstore::TraceRun run = evstore::open_run(argv[arg++]);
        ffm::DumpOptions dopts;
        // Flags first (--kind K, --range t0:t1, --max N); the legacy
        // positional [kind] [max] spelling still works.
        bool positional_kind = true;
        while (arg < argc) {
          if (std::strcmp(argv[arg], "--kind") == 0 && arg + 1 < argc) {
            dopts.kind = argv[arg + 1];
            arg += 2;
          } else if (std::strcmp(argv[arg], "--range") == 0 &&
                     arg + 1 < argc) {
            const std::string spec = argv[arg + 1];
            const std::size_t colon = spec.find(':');
            if (colon == std::string::npos ||
                !parse_number(spec.substr(0, colon).c_str(), dopts.t0) ||
                !parse_number(spec.substr(colon + 1).c_str(), dopts.t1)) {
              std::fprintf(stderr, "--range wants t0:t1 (got '%s')\n",
                           spec.c_str());
              return 2;
            }
            arg += 2;
          } else if (std::strcmp(argv[arg], "--max") == 0 && arg + 1 < argc) {
            if (!parse_number(argv[arg + 1], dopts.max_events)) return usage();
            arg += 2;
          } else if (std::strncmp(argv[arg], "--", 2) != 0) {
            if (positional_kind) {
              dopts.kind = argv[arg];
              positional_kind = false;
            } else {
              if (!parse_number(argv[arg], dopts.max_events)) return usage();
            }
            ++arg;
          } else {
            return usage();
          }
        }
        ffm::DumpStats dstats;
        std::printf("%s", ffm::render_run_dump(run, dopts, &dstats).c_str());
        if (!dopts.kind.empty() ||
            dstats.segments_skipped + dstats.blocks_skipped > 0) {
          std::printf("(pushdown skipped %llu segments, %llu blocks)\n",
                      static_cast<unsigned long long>(
                          dstats.segments_skipped),
                      static_cast<unsigned long long>(
                          dstats.blocks_skipped));
        }
        return 0;
      }
      if (sub == "profile" && arg < argc) {
        std::printf("%s",
                    baselines::render_profile(
                        baselines::profile_from_run(evstore::open_run(argv[arg])))
                        .c_str());
        return 0;
      }
      if (sub == "analyze" && arg < argc) {
        const ffm::AnalysisResult res =
            ffm::run_analysis(evstore::open_run(argv[arg]), cfg);
        std::printf("%s", ffm::render_explained_overview(res).c_str());
        std::printf("\ntotal estimated benefit: %s (%s of execution)\n",
                    format_seconds(res.benefit.total).c_str(),
                    format_percent(res.fraction_of_exec(res.benefit.total))
                        .c_str());
        return 0;
      }
      if (sub == "diff" && arg + 1 < argc) {
        const ffm::FixOutcome o = ffm::compare_runs(
            evstore::open_run(argv[arg]), evstore::open_run(argv[arg + 1]),
            cfg);
        std::printf("%s", ffm::render_fix_outcome(o).c_str());
        return 0;
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "trace %s failed: %s\n", sub.c_str(), e.what());
      return 1;
    }
    return usage();
  }

  if (app_name == "explore") {
    // Embedded trace explorer: serve timeline / flame / findings views
    // over a run file or a trace directory, straight from the store.
    if (arg >= argc) return usage();
    explore::ServiceOptions sopts;
    sopts.root = argv[arg++];
    sopts.config = cfg;
    std::uint16_t port = 0;  // ephemeral by default
    while (arg < argc) {
      if (std::strcmp(argv[arg], "--port") == 0 && arg + 1 < argc) {
        if (!parse_number(argv[arg + 1], port)) return usage();
        arg += 2;
      } else if (std::strcmp(argv[arg], "--archive") == 0 &&
                 arg + 1 < argc) {
        // Explicit archive root for the fleet endpoints; without it the
        // service looks for <root>/index.jsonl, then <root>/archive/.
        sopts.archive_root = argv[arg + 1];
        arg += 2;
      } else {
        return usage();
      }
    }
    return explore::run_explorer(sopts, port);
  }

  if (app_name == "archive") {
    // Fleet memory: content-addressed ingestion of finalized runs plus
    // the digest index the regression sentinel and /api/history answer
    // from.
    if (arg >= argc) return usage();
    const std::string sub = argv[arg++];
    if (arg >= argc) return usage();
    const std::string target = argv[arg++];
    std::string explicit_root;
    std::int64_t ingest_wall_ms = -1;
    bool json_out = false;
    while (arg < argc) {
      if (std::strcmp(argv[arg], "--root") == 0 && arg + 1 < argc) {
        explicit_root = argv[arg + 1];
        arg += 2;
      } else if (std::strcmp(argv[arg], "--ingest-wall-ms") == 0 &&
                 arg + 1 < argc) {
        if (!parse_number<std::int64_t>(argv[arg + 1], ingest_wall_ms, -1)) {
          return usage();
        }
        arg += 2;
      } else if (std::strcmp(argv[arg], "--json") == 0) {
        json_out = true;
        ++arg;
      } else {
        return usage();
      }
    }
    std::error_code ec;
    const std::string base =
        std::filesystem::is_regular_file(target, ec)
            ? std::filesystem::path(target).parent_path().string()
            : target;
    archive::ArchiveOptions aopts;
    aopts.root = cli_archive_root(base.empty() ? "." : base, explicit_root);
    aopts.config = cfg;
    aopts.ingest_wall_ms = ingest_wall_ms;
    archive::Archive ar(std::move(aopts));
    try {
      if (sub == "add") return cmd_archive_add(ar, discover_run_files(target));
      if (sub == "ls") return cmd_archive_ls(ar, json_out);
      if (sub == "gc") return cmd_archive_gc(ar);
    } catch (const Error& e) {
      std::fprintf(stderr, "archive %s failed: %s\n", sub.c_str(), e.what());
      return 1;
    }
    return usage();
  }

  if (app_name == "regress") {
    // Cross-run drift check: newest digest of a workload vs the lower
    // median of the last N. Exit 3 when drift was found, so CI can gate
    // on it without parsing output.
    if (arg >= argc) return usage();
    const std::string dir = argv[arg++];
    std::string workload;
    std::string explicit_root;
    archive::RegressOptions ropts;
    bool json_out = false;
    while (arg < argc) {
      if (std::strcmp(argv[arg], "--root") == 0 && arg + 1 < argc) {
        explicit_root = argv[arg + 1];
        arg += 2;
      } else if (std::strcmp(argv[arg], "--window") == 0 && arg + 1 < argc) {
        if (!parse_number(argv[arg + 1], ropts.baseline_window)) return usage();
        arg += 2;
      } else if (std::strcmp(argv[arg], "--benefit-pct") == 0 &&
                 arg + 1 < argc) {
        if (!parse_number(argv[arg + 1], ropts.benefit_drift_pct, 0.0)) {
          return usage();
        }
        arg += 2;
      } else if (std::strcmp(argv[arg], "--json") == 0) {
        json_out = true;
        ++arg;
      } else if (std::strncmp(argv[arg], "--", 2) != 0 && workload.empty()) {
        workload = argv[arg++];
      } else {
        return usage();
      }
    }
    archive::ArchiveOptions aopts;
    aopts.root = cli_archive_root(dir, explicit_root);
    const archive::Archive ar(std::move(aopts));
    const std::vector<archive::RunDigest> index = ar.index();
    if (index.empty()) {
      std::fprintf(stderr, "regress: no archive index under %s\n",
                   ar.root().c_str());
      return 1;
    }
    std::vector<archive::RegressReport> reports;
    if (!workload.empty()) {
      archive::RegressReport rep =
          archive::check_workload(index, workload, ropts);
      if (rep.newest_run_id.empty()) {
        std::fprintf(stderr, "regress: no archived runs for workload %s\n",
                     workload.c_str());
        return 1;
      }
      reports.push_back(std::move(rep));
    } else {
      reports = archive::check_all(index, ropts);
    }
    bool drifted = false;
    if (json_out) {
      json::Array a;
      for (const archive::RegressReport& rep : reports) {
        if (rep.drifted()) drifted = true;
        a.push_back(rep.to_json());
      }
      std::printf("%s\n", json::Value(std::move(a)).dump().c_str());
    } else {
      for (const archive::RegressReport& rep : reports) {
        if (rep.drifted()) drifted = true;
        std::printf("%s", rep.render().c_str());
      }
    }
    return drifted ? 3 : 0;
  }

  if (app_name == "synth") {
    // Deterministic synthetic run files (testkit/synth_run) — the
    // archive's test/CI feedstock. Byte-identical for identical
    // arguments: the footer wall clock is pinned unless overridden.
    if (arg >= argc) return usage();
    const std::string out_path = argv[arg++];
    testkit::SynthRunOptions sopts;
    std::string workload;
    std::int64_t footer_wall_ms = 0;
    while (arg < argc) {
      if (std::strcmp(argv[arg], "--events") == 0 && arg + 1 < argc) {
        if (!parse_number(argv[arg + 1], sopts.events)) return usage();
        arg += 2;
      } else if (std::strcmp(argv[arg], "--problem-sites") == 0 &&
                 arg + 1 < argc) {
        if (!parse_number(argv[arg + 1], sopts.problem_sites)) return usage();
        arg += 2;
      } else if (std::strcmp(argv[arg], "--op-spacing-ns") == 0 &&
                 arg + 1 < argc) {
        if (!parse_number<std::int64_t>(argv[arg + 1], sopts.op_spacing_ns,
                                      0)) {
          return usage();
        }
        arg += 2;
      } else if (std::strcmp(argv[arg], "--workload") == 0 &&
                 arg + 1 < argc) {
        workload = argv[arg + 1];
        arg += 2;
      } else if (std::strcmp(argv[arg], "--footer-wall-ms") == 0 &&
                 arg + 1 < argc) {
        // -1 stamps the real clock (SaveOptions::footer_wall_ms).
        if (!parse_number<std::int64_t>(argv[arg + 1], footer_wall_ms, -1)) {
          return usage();
        }
        arg += 2;
      } else {
        return usage();
      }
    }
    try {
      evstore::TraceRun run = testkit::make_synthetic_run(sopts);
      if (!workload.empty()) run.meta.workload = workload;
      evstore::SaveOptions so;
      so.footer_wall_ms = footer_wall_ms;
      evstore::save_run(out_path, run, so);
      std::printf("wrote %s (%llu event(s), workload %s)\n",
                  out_path.c_str(),
                  static_cast<unsigned long long>(run.store->size()),
                  run.meta.workload.c_str());
      return 0;
    } catch (const Error& e) {
      std::fprintf(stderr, "synth failed: %s\n", e.what());
      return 1;
    }
  }

  if (app_name == "serve") {
    // Trace hub daemon: accept concurrent .dgtrace streams over loopback
    // TCP (the wire format IS the file format), validate-and-spool each
    // chunk, and ingest finished streams into the archive. The fleet
    // HTTP view (/api/history, /api/regressions, /metrics) is composed
    // here from explore::Service — the hub library never links explore.
    if (arg >= argc) return usage();
    hub::ServerOptions hopts;
    hopts.archive_root = argv[arg++];
    hopts.config = cfg;
    std::uint16_t http_port = 0;  // ephemeral by default
    while (arg < argc) {
      if (std::strcmp(argv[arg], "--port") == 0 && arg + 1 < argc) {
        if (!parse_number(argv[arg + 1], hopts.port)) return usage();
        arg += 2;
      } else if (std::strcmp(argv[arg], "--http-port") == 0 &&
                 arg + 1 < argc) {
        if (!parse_number(argv[arg + 1], http_port)) return usage();
        arg += 2;
      } else if (std::strcmp(argv[arg], "--max-clients") == 0 &&
                 arg + 1 < argc) {
        if (!parse_number(argv[arg + 1], hopts.max_clients)) return usage();
        arg += 2;
      } else if (std::strcmp(argv[arg], "--spool") == 0 && arg + 1 < argc) {
        hopts.spool_dir = argv[arg + 1];
        arg += 2;
      } else if (std::strcmp(argv[arg], "--ingest-wall-ms") == 0 &&
                 arg + 1 < argc) {
        if (!parse_number<std::int64_t>(argv[arg + 1], hopts.ingest_wall_ms,
                                      -1)) {
          return usage();
        }
        arg += 2;
      } else {
        return usage();
      }
    }
    try {
      const std::string archive_root = hopts.archive_root;
      hub::HubServer server(std::move(hopts));
      server.bind();
      // Archived objects double as the explorer's serve root, so the
      // timeline views work on hub-ingested runs too.
      explore::ServiceOptions sopts;
      sopts.root =
          (std::filesystem::path(archive_root) / "objects").string();
      sopts.config = cfg;
      sopts.archive_root = archive_root;
      explore::Service service(std::move(sopts));
      explore::HttpServer http(
          [&service](const explore::HttpRequest& req) {
            return service.handle(req);
          });
      http.bind(http_port);
      // Either server failing stops the other and fails the command.
      std::string http_error;
      std::thread http_thread([&] {
        try {
          http.serve();
        } catch (const Error& e) {
          http_error = e.what();
          server.stop();
        }
      });
      std::printf("hub listening on tcp://127.0.0.1:%u\n",
                  static_cast<unsigned>(server.port()));
      std::printf("explorer at http://127.0.0.1:%u/\n",
                  static_cast<unsigned>(http.port()));
      std::fflush(stdout);
      std::string hub_error;
      try {
        server.serve();  // blocks until stop() (or the process is killed)
      } catch (const Error& e) {
        hub_error = e.what();
      }
      http.stop();
      http_thread.join();
      if (!hub_error.empty()) throw Error(hub_error);
      if (!http_error.empty()) throw Error(http_error);
      return 0;
    } catch (const Error& e) {
      std::fprintf(stderr, "serve failed: %s\n", e.what());
      return 1;
    }
  }

  if (app_name == "push") {
    // One-shot upload of a finalized run file to a running hub. The
    // file's bytes go over the wire unchanged; the hub re-validates
    // every chunk before archiving.
    if (arg >= argc) return usage();
    const std::string file = argv[arg++];
    hub::ClientOptions copts;
    while (arg < argc) {
      if (std::strcmp(argv[arg], "--host") == 0 && arg + 1 < argc) {
        copts.host = argv[arg + 1];
        arg += 2;
      } else if (std::strcmp(argv[arg], "--port") == 0 && arg + 1 < argc) {
        if (!parse_number(argv[arg + 1], copts.port)) return usage();
        arg += 2;
      } else if (std::strcmp(argv[arg], "--workload") == 0 &&
                 arg + 1 < argc) {
        copts.workload = argv[arg + 1];
        arg += 2;
      } else {
        return usage();
      }
    }
    if (copts.port == 0) {
      std::fprintf(stderr, "push: --port is required\n");
      return usage();
    }
    try {
      const hub::HubResponse resp = hub::push_run_file(file, copts);
      std::printf("%s %s  %llu event(s) in %llu chunk(s)%s\n",
                  resp.deduplicated ? "dedup   " : "archived",
                  resp.run_id.c_str(),
                  static_cast<unsigned long long>(resp.events),
                  static_cast<unsigned long long>(resp.chunks),
                  resp.drift_findings > 0 ? "  [drift]" : "");
      return 0;
    } catch (const Error& e) {
      std::fprintf(stderr, "push failed: %s\n", e.what());
      return 1;
    }
  }

  if (app_name == "fuzz") {
    // Correctness-tooling mode (testkit): seeded fuzzing of the reader
    // surface, or fork-based minimization of a saved crash artifact.
    if (arg >= argc) return usage();
    std::string target = argv[arg++];
    testkit::FuzzOptions opts;
    std::string minimize_file;
    if (target == "minimize") {
      if (arg >= argc) return usage();
      minimize_file = argv[arg++];
      opts.target = "run-io";
    } else {
      opts.target = target;
    }
    while (arg < argc) {
      if (std::strcmp(argv[arg], "--seed") == 0 && arg + 1 < argc) {
        if (!parse_number(argv[arg + 1], opts.seed)) return usage();
        arg += 2;
      } else if (std::strcmp(argv[arg], "--budget-s") == 0 && arg + 1 < argc) {
        if (!parse_number(argv[arg + 1], opts.budget_s, 0.0)) return usage();
        arg += 2;
      } else if (std::strcmp(argv[arg], "--corpus") == 0 && arg + 1 < argc) {
        opts.corpus_dir = argv[arg + 1];
        arg += 2;
      } else if (std::strcmp(argv[arg], "--max-execs") == 0 &&
                 arg + 1 < argc) {
        if (!parse_number(argv[arg + 1], opts.max_execs)) return usage();
        arg += 2;
      } else if (std::strcmp(argv[arg], "--target") == 0 && arg + 1 < argc) {
        opts.target = argv[arg + 1];
        arg += 2;
      } else if (std::strcmp(argv[arg], "--verbose") == 0) {
        opts.verbose = true;
        ++arg;
      } else {
        return usage();
      }
    }
    try {
      if (!minimize_file.empty()) {
        return testkit::minimize_artifact(minimize_file, opts);
      }
      const testkit::FuzzStats stats = testkit::run_fuzzer(opts);
      std::printf("%s\n", stats.render().c_str());
      return stats.ok() ? 0 : 1;
    } catch (const Error& e) {
      std::fprintf(stderr, "fuzz failed: %s\n", e.what());
      return 1;
    }
  }

  ffm::AnalysisResult r;
  std::string command;
  if (app_name == "replay") {
    // Offline mode: re-run the analysis stage over a saved run — no
    // application required.
    if (arg + 1 >= argc) return usage();
    const std::string dir = argv[arg++];
    const std::string workload = argv[arg++];
    command = arg < argc ? argv[arg++] : "overview";
    log.info("cli", "offline analysis of " + workload + " from " + dir);
    try {
      r = ffm::run_analysis(
          evstore::open_run(evstore::run_file_path(dir, workload)), cfg);
    } catch (const Error& e) {
      std::fprintf(stderr, "replay failed: %s\n", e.what());
      return 1;
    }
  } else {
    for (const auto& a : app_list) {
      if (a.name == app_name) app = &a;
    }
    if (app == nullptr) {
      std::fprintf(stderr, "unknown app '%s'\n", app_name.c_str());
      return usage();
    }
    command = arg < argc ? argv[arg++] : "overview";
    if (command == "stages") {
      if (arg >= argc) return usage();
      cfg.trace_dir = argv[arg++];
    }
    log.info("cli",
             "analyzing " + app_name + " (4 collection runs + analysis)...");
    ffm::Diogenes tool(app->pathological, cfg);
    try {
      r = tool.analyze();
    } catch (const Error& e) {
      std::fprintf(stderr, "analysis failed: %s\n", e.what());
      return 1;
    }
  }

  if (command == "overview" || command == "stages") {
    // The explained overview: the Figure-7 listing plus a "why:" line
    // per entry from its diagnosis.
    std::printf("%s", ffm::render_explained_overview(r).c_str());
    std::printf("\ntotal estimated benefit: %s (%s of execution); "
                "collection cost %.1fx\n",
                format_seconds(r.benefit.total).c_str(),
                format_percent(r.fraction_of_exec(r.benefit.total)).c_str(),
                r.overhead_factor);
    if (command == "stages") {
      std::printf("run saved to %s\n",
                  evstore::run_file_path(cfg.trace_dir, r.workload_name)
                      .c_str());
    }
    return 0;
  }
  if (command == "api") {
    std::printf("%s", ffm::render_api_savings(r).c_str());
    return 0;
  }
  if (command == "metrics") {
    // The tool observing itself: per-stage counters and latency
    // histograms, then the Table-2-style perturbation accounting.
    // `--json` uses the same snapshot serialization the telemetry file
    // and heartbeat stream use.
    auto& telemetry = obs::Telemetry::global();
    if (arg < argc && std::strcmp(argv[arg], "--json") == 0) {
      std::printf("%s\n", telemetry.metrics_document().dump().c_str());
      return 0;
    }
    std::printf("%s\n", telemetry.metrics().render().c_str());
    std::printf("%s", telemetry.accountant().render().c_str());
    return 0;
  }
  if (command == "folds") return cmd_folds(r);
  if (command == "seq") {
    std::size_t n = 0;
    if (arg >= argc || !parse_number(argv[arg], n)) return usage();
    return cmd_seq(r, n);
  }
  if (command == "sub") {
    std::size_t n = 0;
    std::size_t first = 0;
    std::size_t last = 0;
    if (arg + 2 >= argc || !parse_number(argv[arg], n) ||
        !parse_number(argv[arg + 1], first) ||
        !parse_number(argv[arg + 2], last)) {
      return usage();
    }
    return cmd_sub(r, n, first, last);
  }
  if (command == "fixes") {
    const auto recs = ffm::recommend_fixes(r);
    std::printf("%s", ffm::render_recommendations(r, recs).c_str());
    return 0;
  }
  if (command == "compare") {
    if (app == nullptr) {
      std::fprintf(stderr, "compare requires a live app, not replay\n");
      return 1;
    }
    return cmd_compare(*app, r);
  }
  if (command == "diff") {
    // Table-1 methodology: estimate on the pathological variant, measure
    // the shipped fix, report per-fold resolution and accuracy.
    if (app == nullptr) {
      std::fprintf(stderr, "diff requires a live app, not replay\n");
      return 1;
    }
    ffm::Diogenes after_tool(app->fixed, cfg);
    const ffm::FixOutcome o =
        ffm::compare_analyses(r, after_tool.analyze());
    std::printf("%s", ffm::render_fix_outcome(o).c_str());
    return 0;
  }
  if (command == "uvm") {
    if (app == nullptr) {
      std::fprintf(stderr, "uvm requires a live app, not replay\n");
      return 1;
    }
    // The §5.3 extension: a dedicated run instrumenting the driver's
    // unified-memory migration path.
    std::printf("%s", ffm::render_uvm(
                          ffm::analyze_unified_memory(app->pathological))
                          .c_str());
    return 0;
  }
  if (command == "export") {
    if (arg >= argc) return usage();
    json::Value v = ffm::export_json(r);
    json::Array recs;
    for (const auto& rec : ffm::recommend_fixes(r)) {
      recs.push_back(rec.to_json());
    }
    v["fix_recommendations"] = std::move(recs);
    json::save_file(argv[arg], v);
    std::printf("wrote %s\n", argv[arg]);
    return 0;
  }
  return usage();
}
