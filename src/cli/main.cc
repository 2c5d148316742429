// diogenes — the command-line front end (paper §4).
//
// "Diogenes is launched in a similar fashion to HPCToolkit's hpcprof and
// NVProf, no user involvement is necessary to advance diogenes through
// the stages of FFM. Diogenes has a simple terminal-based command line
// interface to explore data analyzed by FFM. The results are sorted by
// potential benefit and then exported in the JSON format."
//
// usage() is the command list. Each subcommand is a cmd_* function picked
// by name from kCommands; it declares its flags as a table that
// parse_flags consumes, so every command shares one set of usage rules.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
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
      "                [--sink tcp://H:P] [--threads N] <app> [command]\n"
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
                  std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                  std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  const char* end = text + std::strlen(text);
  T v{};
  const auto [p, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || p != end || !(v >= lo && v <= hi)) return false;
  out = v;
  return true;
}

// The command line, consumed front to back.
struct Args {
  int argc;
  char** argv;
  int i = 1;
  // Names the command in its "<what> failed: ..." line: the command
  // name (and a trace or archive subcommand), or "analysis" for an app.
  std::string what;

  bool done() const { return i >= argc; }
  const char* peek() const { return argv[i]; }
  const char* next() { return argv[i++]; }
  // Moves the next token into `out`; false when none is left.
  bool take(std::string& out) {
    if (done()) return false;
    out = next();
    return true;
  }
};

bool is_flag(const char* token) { return std::strncmp(token, "--", 2) == 0; }

// One entry of a flag table. A value flag's setter gets the token after
// the flag and returns false when it is malformed; a switch's setter gets
// nullptr.
struct Flag {
  std::string_view name;
  std::function<bool(const char*)> set;
  bool takes_value = true;
};
using Flags = std::initializer_list<Flag>;

template <typename T>
Flag num(std::string_view name, T& out,
         std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
         std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  return {name, [&out, lo, hi](const char* v) {
            return parse_number(v, out, lo, hi);
          }};
}

Flag text(std::string_view name, std::string& out) {
  return {name, [&out](const char* v) {
            out = v;
            return true;
          }};
}

Flag on(std::string_view name, bool& out) {
  return {name, [&out](const char*) { return out = true; }, false};
}

// Consumes the flag at the front of `a`, and its value if it takes one.
// False on an unknown flag, a missing value or a malformed value.
bool parse_flag(Args& a, Flags flags) {
  const char* token = a.next();
  for (const Flag& f : flags) {
    if (f.name != token) continue;
    if (!f.takes_value) return f.set(nullptr);
    return !a.done() && f.set(a.next());
  }
  return false;
}

// Consumes the rest of `a`: flags through parse_flag, other tokens through
// `positional` (without one, a stray token is an error). False on a usage
// error; the caller prints usage().
bool parse_flags(Args& a, Flags flags,
                 const std::function<bool(const char*)>& positional = {}) {
  while (!a.done()) {
    if (!is_flag(a.peek())) {
      if (!positional || !positional(a.next())) return false;
    } else if (!parse_flag(a, flags)) {
      return false;
    }
  }
  return true;
}

// `trace tail` and `trace watch` follow a run file — possibly one another
// process is still writing — until the writer finalizes the footer. `tail`
// prints each newly checkpointed event as it becomes readable. `watch`
// refreshes a one-screen summary in place; each refresh after the first
// carries the rates over the interval just elapsed (events/s, drops/s),
// differenced from the store's monotonic append/drop counters.
int trace_follow(bool tail, const std::string& path, bool jsonl, int poll_ms,
                 bool once) {
  evstore::RunFollower follower(path);
  std::uint64_t printed = 0;
  auto prev_time = std::chrono::steady_clock::now();
  std::uint64_t prev_events = 0;
  std::uint64_t prev_drops = 0;
  for (bool first = true;; first = false) {
    follower.poll();
    const evstore::EventStore& store = *follower.run().store;
    for (; tail && printed < store.size(); ++printed) {
      const evstore::Event e = store.event(printed);
      if (jsonl) {
        std::printf("%s\n",
                    json::Value(ffm::event_json(store, e)).dump().c_str());
      } else {
        std::printf("%s\n", ffm::render_event_line(store, e).c_str());
      }
    }
    if (!tail) {
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
      prev_time = now;
      prev_events = events;
      prev_drops = drops;
      if (!once) std::printf("\033[H\033[2J");  // home + clear
      std::printf("%s", out.c_str());
    }
    std::fflush(stdout);
    if (follower.finalized() || once) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
  if (tail) {
    const evstore::RunFileInfo& info = follower.info();
    std::fprintf(stderr, "tail: %llu event(s) from %llu chunk(s)%s\n",
                 static_cast<unsigned long long>(info.events),
                 static_cast<unsigned long long>(info.chunks),
                 info.finalized ? ", finalized" : "");
  }
  return 0;
}

// `trace dump <file>`: flags (--kind K, --range t0:t1, --max N) or the
// legacy positional [kind] [max].
int trace_dump(const std::string& file, Args& a) {
  const evstore::TraceRun run = evstore::open_run(file);
  ffm::DumpOptions dopts;
  bool positional_kind = true;
  bool bad_range = false;
  const auto range = [&](const char* spec) {
    const std::string s = spec;
    const std::size_t colon = s.find(':');
    bad_range = colon == std::string::npos ||
                !parse_number(s.substr(0, colon).c_str(), dopts.t0) ||
                !parse_number(s.substr(colon + 1).c_str(), dopts.t1);
    if (bad_range) {
      std::fprintf(stderr, "--range wants t0:t1 (got '%s')\n", spec);
    }
    return !bad_range;
  };
  const auto positional = [&](const char* token) {
    if (!positional_kind) return parse_number(token, dopts.max_events);
    dopts.kind = token;
    positional_kind = false;
    return true;
  };
  if (!parse_flags(a,
                   {text("--kind", dopts.kind), {"--range", range},
                    num("--max", dopts.max_events)},
                   positional)) {
    return bad_range ? 2 : usage();
  }
  ffm::DumpStats dstats;
  std::printf("%s", ffm::render_run_dump(run, dopts, &dstats).c_str());
  if (!dopts.kind.empty() ||
      dstats.segments_skipped + dstats.blocks_skipped > 0) {
    std::printf("(pushdown skipped %llu segments, %llu blocks)\n",
                static_cast<unsigned long long>(dstats.segments_skipped),
                static_cast<unsigned long long>(dstats.blocks_skipped));
  }
  return 0;
}

// Offline trace-file mode: every subcommand operates directly on a binary
// .dgtrace run, no application required.
int cmd_trace(Args& a, ffm::ToolConfig& cfg) {
  std::string sub;
  std::string file;
  if (!a.take(sub) || !a.take(file)) return usage();
  a.what += " " + sub;
  if (sub == "stat") {
    // Tolerates an in-progress / truncated file: the readable prefix is
    // summarized and its checkpoint state reported.
    evstore::RunFileInfo info;
    const evstore::TraceRun run =
        evstore::open_run(file, evstore::ReadMode::kAuto, &info);
    std::printf("%s", ffm::render_run_stat(run).c_str());
    std::printf("%s", ffm::render_run_file_info(info).c_str());
    return 0;
  }
  if (sub == "tail" || sub == "watch") {
    bool jsonl = false;
    bool once = false;
    int poll_ms = 200;
    if (!parse_flags(a, {on("--jsonl", jsonl), on("--once", once),
                         num("--poll-ms", poll_ms, 1)}) ||
        (jsonl && sub == "watch")) {
      return usage();
    }
    return trace_follow(sub == "tail", file, jsonl, poll_ms, once);
  }
  if (sub == "dump") return trace_dump(file, a);
  if (sub == "profile") {
    std::printf("%s", baselines::render_profile(baselines::profile_from_run(
                                                    evstore::open_run(file)))
                          .c_str());
    return 0;
  }
  if (sub == "analyze") {
    const ffm::AnalysisResult res =
        ffm::run_analysis(evstore::open_run(file), cfg);
    std::printf("%s", ffm::render_explained_overview(res).c_str());
    std::printf("\ntotal estimated benefit: %s (%s of execution)\n",
                format_seconds(res.benefit.total).c_str(),
                format_percent(res.fraction_of_exec(res.benefit.total))
                    .c_str());
    return 0;
  }
  if (sub == "diff" && !a.done()) {
    const ffm::FixOutcome o = ffm::compare_runs(
        evstore::open_run(file), evstore::open_run(a.next()), cfg);
    std::printf("%s", ffm::render_fix_outcome(o).c_str());
    return 0;
  }
  return usage();
}

// Embedded trace explorer: serve timeline / flame / findings views over a
// run file or a trace directory, straight from the store. Without
// --archive the fleet endpoints look for <root>/index.jsonl, then
// <root>/archive/.
int cmd_explore(Args& a, ffm::ToolConfig& cfg) {
  explore::ServiceOptions sopts;
  sopts.config = cfg;
  std::uint16_t port = 0;  // ephemeral by default
  if (!a.take(sopts.root) ||
      !parse_flags(a, {num("--port", port),
                       text("--archive", sopts.archive_root)})) {
    return usage();
  }
  return explore::run_explorer(sopts, port);
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

int archive_add(archive::Archive& ar, const std::vector<std::string>& files) {
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

int archive_ls(const archive::Archive& ar, bool json_out) {
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

int archive_gc(archive::Archive& ar) {
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

// Fleet memory: content-addressed ingestion of finalized runs plus the
// digest index the regression sentinel and /api/history answer from.
int cmd_archive(Args& a, ffm::ToolConfig& cfg) {
  std::string sub;
  std::string target;
  std::string explicit_root;
  archive::ArchiveOptions aopts;
  bool json_out = false;
  if (!a.take(sub) || !a.take(target) ||
      !parse_flags(a, {text("--root", explicit_root),
                       num("--ingest-wall-ms", aopts.ingest_wall_ms, -1),
                       on("--json", json_out)})) {
    return usage();
  }
  a.what += " " + sub;
  std::error_code ec;
  const std::string base =
      std::filesystem::is_regular_file(target, ec)
          ? std::filesystem::path(target).parent_path().string()
          : target;
  aopts.root = cli_archive_root(base.empty() ? "." : base, explicit_root);
  aopts.config = cfg;
  archive::Archive ar(std::move(aopts));
  if (sub == "add") return archive_add(ar, evstore::list_run_files(target));
  if (sub == "ls") return archive_ls(ar, json_out);
  if (sub == "gc") return archive_gc(ar);
  return usage();
}

// Cross-run drift check: newest digest of a workload vs the lower median
// of the last N. Exit 3 when drift was found, so CI can gate on it
// without parsing output.
int cmd_regress(Args& a, ffm::ToolConfig&) {
  std::string dir;
  std::string workload;
  std::string explicit_root;
  archive::RegressOptions ropts;
  bool json_out = false;
  const auto positional = [&](const char* token) {
    if (!workload.empty()) return false;
    workload = token;
    return true;
  };
  if (!a.take(dir) ||
      !parse_flags(a,
                   {text("--root", explicit_root),
                    num("--window", ropts.baseline_window),
                    num("--benefit-pct", ropts.benefit_drift_pct, 0.0),
                    on("--json", json_out)},
                   positional)) {
    return usage();
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
  json::Array arr;
  for (const archive::RegressReport& rep : reports) {
    drifted = drifted || rep.drifted();
    if (json_out) {
      arr.push_back(rep.to_json());
    } else {
      std::printf("%s", rep.render().c_str());
    }
  }
  if (json_out) std::printf("%s\n", json::Value(std::move(arr)).dump().c_str());
  return drifted ? 3 : 0;
}

// Deterministic synthetic run files (testkit/synth_run) — the archive's
// test/CI feedstock. Byte-identical for identical arguments: the footer
// wall clock is pinned unless overridden (-1 stamps the real clock).
int cmd_synth(Args& a, ffm::ToolConfig&) {
  std::string out_path;
  std::string workload;
  testkit::SynthRunOptions sopts;
  evstore::SaveOptions so;
  so.footer_wall_ms = 0;
  if (!a.take(out_path) ||
      !parse_flags(a, {num("--events", sopts.events),
                       num("--problem-sites", sopts.problem_sites),
                       num("--op-spacing-ns", sopts.op_spacing_ns, 0),
                       text("--workload", workload),
                       num("--footer-wall-ms", so.footer_wall_ms, -1)})) {
    return usage();
  }
  evstore::TraceRun run = testkit::make_synthetic_run(sopts);
  if (!workload.empty()) run.meta.workload = workload;
  evstore::save_run(out_path, run, so);
  std::printf("wrote %s (%llu event(s), workload %s)\n", out_path.c_str(),
              static_cast<unsigned long long>(run.store->size()),
              run.meta.workload.c_str());
  return 0;
}

// Trace hub daemon: accept concurrent .dgtrace streams over loopback TCP
// (the wire format IS the file format), validate-and-spool each chunk,
// and ingest finished streams into the archive. The fleet HTTP view
// (/api/history, /api/regressions, /metrics) is composed here from
// explore::Service — the hub library never links explore.
int cmd_serve(Args& a, ffm::ToolConfig& cfg) {
  hub::ServerOptions hopts;
  hopts.config = cfg;
  std::uint16_t http_port = 0;  // ephemeral by default
  if (!a.take(hopts.archive_root) ||
      !parse_flags(a, {num("--port", hopts.port),
                       num("--http-port", http_port),
                       num("--max-clients", hopts.max_clients),
                       text("--spool", hopts.spool_dir),
                       num("--ingest-wall-ms", hopts.ingest_wall_ms, -1)})) {
    return usage();
  }
  const std::string archive_root = hopts.archive_root;
  hub::HubServer server(std::move(hopts));
  server.bind();
  // Archived objects double as the explorer's serve root, so the
  // timeline views work on hub-ingested runs too.
  explore::ServiceOptions sopts;
  sopts.root = (std::filesystem::path(archive_root) / "objects").string();
  sopts.config = cfg;
  sopts.archive_root = archive_root;
  explore::Service service(std::move(sopts));
  explore::HttpServer http([&service](const explore::HttpRequest& req) {
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
}

// One-shot upload of a finalized run file to a running hub. The file's
// bytes go over the wire unchanged; the hub re-validates every chunk
// before archiving.
int cmd_push(Args& a, ffm::ToolConfig&) {
  std::string file;
  hub::ClientOptions copts;
  if (!a.take(file) ||
      !parse_flags(a, {text("--host", copts.host), num("--port", copts.port),
                       text("--workload", copts.workload)})) {
    return usage();
  }
  if (copts.port == 0) {
    std::fprintf(stderr, "push: --port is required\n");
    return usage();
  }
  const hub::HubResponse resp = hub::push_run_file(file, copts);
  std::printf("%s %s  %llu event(s) in %llu chunk(s)%s\n",
              resp.deduplicated ? "dedup   " : "archived",
              resp.run_id.c_str(),
              static_cast<unsigned long long>(resp.events),
              static_cast<unsigned long long>(resp.chunks),
              resp.drift_findings > 0 ? "  [drift]" : "");
  return 0;
}

// Correctness-tooling mode (testkit): seeded fuzzing of the reader
// surface, or fork-based minimization of a saved crash artifact.
int cmd_fuzz(Args& a, ffm::ToolConfig&) {
  testkit::FuzzOptions opts;
  std::string minimize_file;
  if (!a.take(opts.target)) return usage();
  if (opts.target == "minimize") {
    if (!a.take(minimize_file)) return usage();
    opts.target = "run-io";
  }
  if (!parse_flags(a, {num("--seed", opts.seed),
                       num("--budget-s", opts.budget_s, 0.0),
                       text("--corpus", opts.corpus_dir),
                       num("--max-execs", opts.max_execs),
                       text("--target", opts.target),
                       on("--verbose", opts.verbose)})) {
    return usage();
  }
  if (!minimize_file.empty()) {
    return testkit::minimize_artifact(minimize_file, opts);
  }
  const testkit::FuzzStats stats = testkit::run_fuzzer(opts);
  std::printf("%s\n", stats.render().c_str());
  return stats.ok() ? 0 : 1;
}

// One analysis command over `r`, the analysis of `app` (nullptr for a
// replayed run).
int analysis_command(const std::string& command, Args& a,
                     const ffm::AnalysisResult& r, const apps::AppPair* app,
                     const ffm::ToolConfig& cfg) {
  if (app == nullptr && (command == "stages" || command == "compare" ||
                         command == "diff" || command == "uvm")) {
    std::fprintf(stderr, "%s requires a live app, not replay\n",
                 command.c_str());
    return 1;
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
    if (!a.done() && std::strcmp(a.peek(), "--json") == 0) {
      std::printf("%s\n", telemetry.metrics_document().dump().c_str());
      return 0;
    }
    std::printf("%s\n", telemetry.metrics().render().c_str());
    std::printf("%s", telemetry.accountant().render().c_str());
    return 0;
  }
  if (command == "folds") {
    for (const ffm::Group& fold : r.folds) {
      std::printf("%s\n", ffm::render_fold_expansion(r, fold).c_str());
    }
    return 0;
  }
  if (command == "seq") {
    // The members of sequence N (Figure 6).
    std::size_t n = 0;
    if (a.done() || !parse_number(a.next(), n)) return usage();
    if (n < 1 || n > r.sequences.size()) {
      std::fprintf(stderr, "no sequence #%zu (have %zu)\n", n,
                   r.sequences.size());
      return 1;
    }
    std::printf("%s", ffm::render_sequence(r, r.sequences[n - 1]).c_str());
    return 0;
  }
  if (command == "sub") {
    // Sequence N refined to its entries [first, last] (Figure 8).
    std::size_t n = 0;
    std::size_t first = 0;
    std::size_t last = 0;
    if (a.argc - a.i < 3 || !parse_number(a.next(), n) ||
        !parse_number(a.next(), first) || !parse_number(a.next(), last)) {
      return usage();
    }
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
  if (command == "fixes") {
    const auto recs = ffm::recommend_fixes(r);
    std::printf("%s", ffm::render_recommendations(r, recs).c_str());
    return 0;
  }
  if (command == "compare") {
    // The paper's baselines beside Diogenes' own per-API savings.
    std::printf("%s\n", baselines::render_profile(
                            baselines::run_nvprof_like(app->pathological))
                            .c_str());
    std::printf("%s\n", baselines::render_profile(
                            baselines::run_hpctoolkit_like(app->pathological))
                            .c_str());
    std::printf("%s", ffm::render_api_savings(r).c_str());
    return 0;
  }
  if (command == "diff") {
    // Table-1 methodology: estimate on the pathological variant, measure
    // the shipped fix, report per-fold resolution and accuracy.
    ffm::Diogenes after_tool(app->fixed, cfg);
    const ffm::FixOutcome o = ffm::compare_analyses(r, after_tool.analyze());
    std::printf("%s", ffm::render_fix_outcome(o).c_str());
    return 0;
  }
  if (command == "uvm") {
    // The §5.3 extension: a dedicated run instrumenting the driver's
    // unified-memory migration path.
    std::printf("%s", ffm::render_uvm(
                          ffm::analyze_unified_memory(app->pathological))
                          .c_str());
    return 0;
  }
  if (command == "export" && !a.done()) {
    const char* path = a.next();
    json::Value v = ffm::export_json(r);
    json::Array recs;
    for (const auto& rec : ffm::recommend_fixes(r)) {
      recs.push_back(rec.to_json());
    }
    v["fix_recommendations"] = std::move(recs);
    json::save_file(path, v);
    std::printf("wrote %s\n", path);
    return 0;
  }
  return usage();
}

// Offline mode: re-run the analysis stage over a saved run — no
// application required.
int cmd_replay(Args& a, ffm::ToolConfig& cfg) {
  std::string dir;
  std::string workload;
  if (!a.take(dir) || !a.take(workload)) return usage();
  const std::string command = a.done() ? "overview" : a.next();
  obs::Telemetry::global().logger().info(
      "cli", "offline analysis of " + workload + " from " + dir);
  const ffm::AnalysisResult r = ffm::run_analysis(
      evstore::open_run(evstore::run_file_path(dir, workload)), cfg);
  return analysis_command(command, a, r, nullptr, cfg);
}

// `diogenes <app> [command]`: the five FFM stages over a live app, then
// one analysis command.
int cmd_app(Args& a, ffm::ToolConfig& cfg) {
  const std::string app_name = a.next();
  const std::vector<apps::AppPair> app_list = apps::all_apps();
  const auto app = std::find_if(
      app_list.begin(), app_list.end(),
      [&](const apps::AppPair& p) { return p.name == app_name; });
  if (app == app_list.end()) {
    std::fprintf(stderr, "unknown app '%s'\n", app_name.c_str());
    return usage();
  }
  const std::string command = a.done() ? "overview" : a.next();
  if (command == "stages" && !a.take(cfg.trace_dir)) return usage();
  obs::Telemetry::global().logger().info(
      "cli", "analyzing " + app_name + " (4 collection runs + analysis)...");
  ffm::Diogenes tool(app->pathological, cfg);
  return analysis_command(command, a, tool.analyze(), &*app, cfg);
}

struct Command {
  std::string_view name;
  int (*run)(Args&, ffm::ToolConfig&);
};

constexpr Command kCommands[] = {
    {"trace", cmd_trace},     {"explore", cmd_explore},
    {"archive", cmd_archive}, {"regress", cmd_regress},
    {"synth", cmd_synth},     {"serve", cmd_serve},
    {"push", cmd_push},       {"fuzz", cmd_fuzz},
    {"replay", cmd_replay},
};

}  // namespace

int main(int argc, char** argv) {
  // Resolve `--sink tcp://host:port` through the hub's client factory
  // (eventstore/sink.h keeps core free of a hub dependency).
  hub::register_tcp_sink();
  ffm::ToolConfig cfg;
  std::string telemetry_path;
  bool verbose = false;
  std::int64_t misplaced_us = -1;  // -1 keeps the configured default
  // The flight recorder runs only with --live, so its flags need it.
  std::string_view needs_live;
  const auto recorder = [&needs_live](Flag f) {
    return Flag{f.name, [&needs_live, f](const char* v) {
                  needs_live = f.name;
                  return f.set(v);
                }};
  };
  const Flags globals = {
      on("--verbose", verbose),
      num("--misplaced-us", misplaced_us, 0,
          std::numeric_limits<std::int64_t>::max() / 1000),
      text("--telemetry", telemetry_path),
      text("--trace-dir", cfg.trace_dir),
      num("--retain-mb", cfg.retain_mb, 0,
          std::numeric_limits<std::uint64_t>::max() >> 20),
      num("--retain-events", cfg.retain_events),
      on("--live", cfg.live),
      recorder(num("--heartbeat-ms", cfg.heartbeat_interval_ms)),
      recorder(num("--checkpoint-ms", cfg.checkpoint_interval_ms)),
      recorder(text("--sink", cfg.sink)),
      {"--threads",
       [](const char* v) {
         std::size_t threads = 0;
         if (!parse_number(v, threads)) return false;
         par::set_threads(threads);
         return true;
       }},
  };
  Args a{argc, argv, 1, "analysis"};
  while (!a.done() && is_flag(a.peek())) {
    if (!parse_flag(a, globals)) return usage();
  }
  if (a.done()) return usage();
  if (!needs_live.empty() && !cfg.live) {
    std::fprintf(stderr, "%s requires --live\n",
                 std::string(needs_live).c_str());
    return usage();
  }
  // Narration maps to log level info; the default (warn) keeps stderr
  // truly silent in non-verbose runs.
  obs::Logger& log = obs::Telemetry::global().logger();
  if (verbose) log.set_level(obs::LogLevel::kInfo);
  if (misplaced_us >= 0) cfg.misplaced_threshold = us(misplaced_us);

  // Telemetry is flushed on every exit path — normal return, exit(),
  // and uncaught exceptions (obs installs atexit + terminate hooks).
  if (!telemetry_path.empty()) {
    obs::Telemetry::set_exit_flush(telemetry_path);
  }
  if (cfg.live) {
    // `kill -USR1 <pid>` forces an immediate checkpoint + heartbeat.
    obs::install_checkpoint_signal_handler();
  }

  const auto cmd = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&a](const Command& c) { return c.name == a.peek(); });
  const bool named = cmd != std::end(kCommands);
  if (named) a.what = a.next();
  try {
    return named ? cmd->run(a, cfg) : cmd_app(a, cfg);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s failed: %s\n", a.what.c_str(), e.what());
    return 1;
  }
}
