#include "probes.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <type_traits>

#include "archive/archive.h"
#include "archive/digest.h"
#include "archive/regress.h"
#include "core/benefit.h"
#include "core/diogenes.h"
#include "core/graph.h"
#include "core/groupings.h"
#include "core/report.h"
#include "core/run_convert.h"
#include "eventstore/aggregate.h"
#include "eventstore/cursor.h"
#include "eventstore/run_io.h"
#include "explore/http.h"
#include "explore/service.h"
#include "hub/client.h"
#include "hub/protocol.h"
#include "hub/server.h"
#include "hub/session.h"
#include "obs/telemetry.h"
#include "parallel/thread_pool.h"
#include "support/error.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace ev = diog::evstore;
namespace ffm = diog::ffm;

namespace {

// Times fn() and adds the milliseconds to `metric`.
template <typename Fn>
auto timed(Ledger& out, const std::string& metric, Fn&& fn) {
  const double t0 = now_ms();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    out.add(metric, now_ms() - t0);
  } else {
    auto r = fn();
    out.add(metric, now_ms() - t0);
    return r;
  }
}

// Reads (save -> open -> scan -> count -> bin) and writes of one run.
ev::TraceRun probe_eventstore(const NamedRun& nr, const std::string& path,
                              Tally& tally, Ledger& out,
                              ev::RunFileInfo* info) {
  timed(out, "eventstore.save_ms", [&] { ev::save_run(path, nr.run); });
  out.add("eventstore.file_bytes", static_cast<double>(fs::file_size(path)));
  ev::TraceRun opened = timed(out, "eventstore.open_ms", [&] {
    return ev::open_run(path, ev::ReadMode::kAuto, info);
  });
  out.add("eventstore.column_bytes_raw",
          static_cast<double>(info->column_bytes_raw));
  out.add("eventstore.column_bytes_stored",
          static_cast<double>(info->column_bytes_stored));
  const ev::EventStore& store = *opened.store;
  tally.check(store.size() == nr.run.store->size(),
              nr.name + ": reopened run lost events");

  // A materializing scan (every row becomes an Event) and the popcount
  // count() are different operations; they are reported apart.
  std::uint64_t rows = 0;
  timed(out, "eventstore.scan_ms", [&] {
    ev::Cursor(store).for_each([&](const ev::Event&) { ++rows; });
  });
  const std::uint64_t counted = timed(
      out, "eventstore.count_ms", [&] { return ev::Cursor(store).count(); });
  tally.check(rows == store.size() && counted == rows,
              nr.name + ": scan/count disagree with the store size");

  const ev::TimeExtent ext =
      ev::time_extent(store, ev::Cursor(store).kind(ev::EventKind::kOp));
  const ev::BinnedSpans bins =
      timed(out, "eventstore.bin_events_ms", [&] {
        return ev::bin_events(store,
                              ev::Cursor(store).kind(ev::EventKind::kOp),
                              ext.t_min, ext.t_max + 1, 1024);
      });
  tally.check(bins.matched == ext.matched,
              nr.name + ": binning dropped ops");
  return opened;
}

// Stage 5 as one call, then phase by phase in run_analysis's order.
// residual = the whole call minus the phases, so the phases and the
// residual add up to the measured run_analysis time exactly.
std::string probe_stage5(const ev::TraceRun& run, Ledger& out) {
  const ffm::ToolConfig cfg;
  const double t0 = now_ms();
  const ffm::AnalysisResult whole = ffm::run_analysis(run, cfg);
  const double analysis_ms = now_ms() - t0;
  out.add("stage5.analysis_ms", analysis_ms);

  double phases = 0;
  const auto phase = [&](const std::string& name, auto&& fn) {
    const double p0 = now_ms();
    fn();
    const double ms = now_ms() - p0;
    phases += ms;
    out.add("stage5." + name + "_ms", ms);
  };
  phase("views", [&] {
    (void)ffm::stage1_view(run);
    (void)ffm::stage2_view(run);
    (void)ffm::stage3_view(run);
    (void)ffm::stage4_view(run);
  });
  ffm::ExecutionGraph g;
  phase("build_graph",
        [&] { g = ffm::build_graph(run, cfg.misplaced_threshold); });
  phase("expected_benefit", [&] { (void)ffm::expected_benefit(g); });
  phase("single_point", [&] { (void)ffm::single_point_groups(g); });
  phase("folds", [&] { (void)ffm::folded_api_groups(g); });
  phase("sequences", [&] { (void)ffm::sequence_groups(g); });
  out.add("stage5.residual_ms", analysis_ms - phases);
  out.add("stage5.graph_nodes", static_cast<double>(g.size()));
  out.add("stage5.problem_nodes",
          static_cast<double>(g.problematic_indices().size()));
  return export_hash(whole);
}

// The same save / open / analysis calls with the pool bypassed.
std::string probe_serial(const NamedRun& nr, const std::string& path,
                         Ledger& out) {
  diog::par::set_threads(1);
  std::string hash;
  try {
    timed(out, "parallel.t1.save_ms", [&] { ev::save_run(path, nr.run); });
    const ev::TraceRun opened = timed(
        out, "parallel.t1.open_ms", [&] { return ev::open_run(path); });
    const ffm::AnalysisResult r =
        timed(out, "parallel.t1.analysis_ms",
              [&] { return ffm::run_analysis(opened, ffm::ToolConfig{}); });
    hash = export_hash(r);
  } catch (...) {
    diog::par::set_threads(0);
    throw;
  }
  diog::par::set_threads(0);
  return hash;
}

void probe_archive(const std::vector<std::string>& files,
                   const std::vector<ev::TraceRun>& opened,
                   const std::vector<ev::RunFileInfo>& infos,
                   const std::string& root, Tally& tally, Ledger& out) {
  diog::archive::Archive ar({.root = root, .config = {}, .ingest_wall_ms = -1});
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string bytes = slurp(files[i]);
    const std::span<const std::byte> view(
        reinterpret_cast<const std::byte*>(bytes.data()), bytes.size());
    const std::string id = timed(out, "archive.run_id_ms", [&] {
      return diog::archive::run_id_of(view);
    });
    timed(out, "archive.digest_ms", [&] {
      (void)diog::archive::digest_run(opened[i], infos[i], ffm::ToolConfig{});
    });
    const auto added =
        timed(out, "archive.add_ms", [&] { return ar.add(files[i]); });
    const auto again =
        timed(out, "archive.dedup_ms", [&] { return ar.add(files[i]); });
    tally.check(!added.deduplicated && added.digest.run_id == id,
                "archive: first add of " + files[i] + " was not an ingest");
    tally.check(again.deduplicated && again.digest.run_id == id,
                "archive: re-add of " + files[i] + " was not a dedup");
  }
  const auto index = timed(out, "archive.index_ms", [&] { return ar.index(); });
  tally.check(index.size() == files.size(), "archive: index size");
  timed(out, "archive.check_all_ms",
        [&] { return diog::archive::check_all(index); });
}

// Session + ingest driven directly (the daemon's own path, no socket),
// then the same files pushed over loopback to a second, fresh hub: the
// push time neither of the first two explains is socket and queueing.
void probe_hub(const std::vector<std::string>& files,
               const std::vector<std::string>& workloads,
               const std::string& dir, Tally& tally, Ledger& out) {
  namespace hub = diog::hub;
  hub::HubServer direct({.archive_root = dir + "/direct"});
  double session_ms = 0;
  double ingest_ms = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string bytes =
        hub::encode_hello(workloads[i]) + slurp(files[i]);
    hub::Session s({.spool_path = direct.next_spool_path()});
    const double t0 = now_ms();
    constexpr std::size_t kRecv = 1 << 16;  // the server's recv size
    for (std::size_t off = 0; off < bytes.size(); off += kRecv) {
      s.feed(reinterpret_cast<const unsigned char*>(bytes.data()) + off,
             std::min(kRecv, bytes.size() - off));
    }
    s.end_of_stream();
    const double t1 = now_ms();
    const hub::IngestOutcome got = direct.ingest(s);
    const double t2 = now_ms();
    session_ms += t1 - t0;
    ingest_ms += t2 - t1;
    out.add("hub.bytes", static_cast<double>(s.stats().wire_bytes));
    tally.check(!got.deduplicated, "hub: direct ingest deduplicated");
  }

  hub::HubServer sock({.archive_root = dir + "/socket"});
  sock.bind();
  std::thread serve([&] { sock.serve(); });
  double push_ms = 0;
  try {
    for (std::size_t i = 0; i < files.size(); ++i) {
      const double t0 = now_ms();
      const hub::HubResponse r = hub::push_run_file(
          files[i], {.port = sock.port(), .workload = workloads[i]});
      push_ms += now_ms() - t0;
      tally.check(r.ok && !r.deduplicated, "hub: socket push not ingested");
    }
  } catch (const diog::Error& e) {
    tally.check(false, std::string("hub: ") + e.what());
  }
  sock.stop();
  serve.join();
  out.add("hub.session_ms", session_ms);
  out.add("hub.ingest_ms", ingest_ms);
  out.add("hub.queue_ms", push_ms - session_ms - ingest_ms);
}

void probe_explore(const std::vector<NamedRun>& runs, const std::string& root,
                   const std::string& history_workload, Tally& tally,
                   Ledger& out) {
  namespace ex = diog::explore;
  ex::Service svc({.root = root, .config = {}, .archive_root = {}});
  std::vector<std::string> warm;  // replayed over the socket below
  const auto call = [&](const std::string& metric, const std::string& target,
                        bool replay) {
    ex::HttpRequest req;
    ex::parse_request_line("GET " + target + " HTTP/1.1", req);
    const ex::HttpResponse r =
        timed(out, "explore." + metric + "_ms", [&] { return svc.handle(req); });
    out.add("explore.bytes_out", static_cast<double>(r.body.size()));
    tally.check(r.status == 200, "explore: " + target + " answered " +
                                     std::to_string(r.status));
    if (replay) warm.push_back(target);
  };
  for (const NamedRun& nr : runs) {
    const std::string q = "?run=" + nr.name;
    const ev::EventStore& store = *nr.run.store;
    const ev::TimeExtent ext =
        ev::time_extent(store, ev::Cursor(store).kind(ev::EventKind::kOp));
    const std::int64_t span = std::max<std::int64_t>(ext.t_max - ext.t_min, 16);
    const std::int64_t z0 = ext.t_min + span / 2;
    call("findings_cold", "/api/findings" + q, false);
    call("findings_warm", "/api/findings" + q, true);
    call("timeline_full", "/api/timeline" + q + "&px=1024", true);
    call("timeline_zoom",
         "/api/timeline" + q + "&px=1024&tracks=op&t0=" + std::to_string(z0) +
             "&t1=" + std::to_string(z0 + span / 16),
         true);
    call("flame", "/api/flame" + q, true);
    call("syncsites", "/api/syncsites" + q, true);
    call("stat", "/api/stat" + q, true);
  }
  call("history", "/api/history?workload=" + history_workload, true);
  call("metrics", "/metrics", true);

  // The same warm targets over the real server: round trip minus the
  // handler's own time is the socket layer, including queueing.
  double handle_ms = 0;
  ex::HttpServer server([&](const ex::HttpRequest& req) {
    const double t0 = now_ms();
    ex::HttpResponse r = svc.handle(req);
    handle_ms += now_ms() - t0;
    return r;
  });
  server.bind(0);
  std::thread serve([&] { server.serve(); });
  double round_trip_ms = 0;
  for (const std::string& target : warm) {
    const HttpReply r = http_get(server.port(), target);
    round_trip_ms += r.ms;
    tally.check(r.status == 200, "explore socket: " + target);
  }
  server.stop();
  serve.join();
  out.add("explore.http_ms", round_trip_ms - handle_ms);
}

}  // namespace

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string export_hash(const ffm::AnalysisResult& r) {
  return std::to_string(hash_text(ffm::export_json(r).dump()));
}

void probe_layers(const std::vector<NamedRun>& runs, const std::string& dir,
                  Tally& tally, Ledger& out) {
  const std::string serve_root = dir + "/runs";
  fs::create_directories(serve_root);
  fs::create_directories(dir + "/t1");

  std::vector<std::string> files;
  std::vector<std::string> workloads;
  std::vector<ev::TraceRun> opened;
  std::vector<ev::RunFileInfo> infos(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const NamedRun& nr = runs[i];
    files.push_back(serve_root + "/" + nr.name + ".dgtrace");
    workloads.push_back(nr.run.meta.workload);
    opened.push_back(probe_eventstore(nr, files.back(), tally, out, &infos[i]));
    const std::string hash = probe_stage5(opened.back(), out);
    const std::string serial =
        probe_serial(nr, dir + "/t1/" + nr.name + ".dgtrace", out);
    tally.check(hash == serial,
                nr.name + ": analysis differs between 1 and N threads");
  }
  const double stored = out.value("eventstore.column_bytes_stored");
  out.set("eventstore.compression_ratio",
          stored > 0 ? out.value("eventstore.column_bytes_raw") / stored : 1.0);

  probe_archive(files, opened, infos, serve_root + "/archive", tally, out);
  opened.clear();
  probe_hub(files, workloads, dir + "/hub", tally, out);
  probe_explore(runs, serve_root, workloads.front(), tally, out);
}

HttpReply http_get(std::uint16_t port, const std::string& target) {
  HttpReply reply;
  const double t0 = now_ms();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::string raw;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string req =
        "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    std::size_t off = 0;
    while (off < req.size()) {
      const ssize_t n =
          ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      raw.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  reply.ms = now_ms() - t0;
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) == 0 && head_end != std::string::npos) {
    reply.status = std::atoi(raw.c_str() + 9);
    reply.body = raw.substr(head_end + 4);
  }
  return reply;
}

PoolClock pool_clock() {
  auto& m = diog::obs::Telemetry::global().metrics();
  return {static_cast<double>(m.counter("parallel.busy_ns").value()),
          static_cast<double>(m.counter("parallel.wall_ns").value())};
}

double pool_utilization_pct(const PoolClock& from, const PoolClock& to) {
  const double wall = (to.wall_ns - from.wall_ns) *
                      static_cast<double>(diog::par::configured_threads());
  return wall > 0 ? 100.0 * (to.busy_ns - from.busy_ns) / wall : 0.0;
}

}  // namespace perfbench
