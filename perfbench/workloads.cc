#include "workloads.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "apps/apps.h"
#include "archive/archive.h"
#include "core/diogenes.h"
#include "core/run_convert.h"
#include "core/stage1_baseline.h"
#include "core/stage2_tracing.h"
#include "core/stage3_memhash.h"
#include "core/stage4_syncuse.h"
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
#include "probes.h"
#include "support/error.h"
#include "support/rng.h"
#include "testkit/synth_run.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace ev = diog::evstore;
namespace ffm = diog::ffm;
namespace json = diog::json;

namespace {

constexpr int kClients = 2;  // explore clients and hub pushers

// A traced run splits its measuring time between the untraced reference
// loop and the traced loop, so every run measures for --seconds.
double loop_seconds(const Options& o) {
  return o.trace ? o.seconds / 2 : o.seconds;
}

struct Deadline {
  double end_ms;
  explicit Deadline(double seconds) : end_ms(now_ms() + seconds * 1000) {}
  [[nodiscard]] bool more() const { return now_ms() < end_ms; }
};

// The seed picks the virtual op spacing: the same work at every seed,
// different bytes.
ev::TraceRun synth_run(std::uint64_t events, std::uint64_t seed) {
  return diog::testkit::make_synthetic_run(
      {.events = events,
       .problem_sites = 4,
       .op_spacing_ns = 1000 + static_cast<std::int64_t>(seed % 64)});
}

// Builds the workload's state repeatedly, timing each build into the
// setup_s series, and keeps the last: at least 3 times and until a second
// of set-up has been timed, so a cheap set-up still gets a steady median.
// `after` runs on every build outside the timed region.
template <typename State, typename Make, typename After>
std::unique_ptr<State> set_up(Ledger& out, Make&& make, After&& after) {
  constexpr int kMinReps = 3;
  constexpr int kMaxReps = 60;
  constexpr double kMinSetupMs = 3000;
  std::unique_ptr<State> st;
  double total_ms = 0;
  for (int rep = 0;
       rep < kMinReps || (total_ms < kMinSetupMs && rep < kMaxReps); ++rep) {
    st.reset();
    const double t0 = now_ms();
    st = make(rep);
    const double ms = now_ms() - t0;
    total_ms += ms;
    out.sample("setup_s", ms / 1000.0);
    after(*st);
  }
  return st;
}

// Layer self-time accounting for one traced loop: per-op means of each
// layer's time, the remainder no layer covers, and the difference from
// the same op untraced.
class Accounting {
 public:
  void op(double wall_ms) { walls_.push_back(wall_ms); }
  void self(const std::string& layer, double ms) { self_[layer] += ms; }

  void report(Ledger& out, double untraced_mean_ms) const {
    const double n = static_cast<double>(std::max<std::size_t>(1, walls_.size()));
    const double wall = mean(walls_);
    double accounted = 0;
    for (const auto& [layer, total] : self_) {
      out.set("self." + layer + "_ms", total / n);
      accounted += total / n;
    }
    out.set("trace.ops", static_cast<double>(walls_.size()));
    out.set("trace.untraced_ms", untraced_mean_ms);
    out.set("trace.wall_ms", wall);
    out.set("trace.unaccounted_ms", wall - accounted);
    out.set("trace.overhead_ms", wall - untraced_mean_ms);
  }

 private:
  std::vector<double> walls_;
  std::map<std::string, double> self_;
};

// ---------------------------------------------------------------------------
// trace_1m

struct Trace1m {
  ev::TraceRun run;
  std::string path;
};

void trace_1m(const Options& o, Tally& tally, Ledger& out,
              json::Object& ctx) {
  ctx["events"] = kTraceEvents;
  ctx["op_series"] = "iteration_ms";
  const auto st = set_up<Trace1m>(
      out,
      [&](int) {
        return std::make_unique<Trace1m>(Trace1m{
            synth_run(kTraceEvents, o.seed), o.work_dir + "/trace_1m.dgtrace"});
      },
      [](Trace1m&) {});
  const ffm::ToolConfig cfg;

  // One iteration: save the run, reopen it, analyze it. The whole
  // iteration is the operation; its open + analysis part is what
  // `trace analyze` costs (analyze_ms), and the traced loop accounts it.
  std::string reference;
  ev::TraceRun last_opened;
  const auto iteration = [&](Accounting* acct, bool record) {
    const double t0 = now_ms();
    ev::save_run(st->path, st->run);
    const double t1 = now_ms();
    // Traced, the op and each call get their own clock reads: the spans'
    // own cost is what unaccounted_ms shows.
    const double s0 = acct != nullptr ? now_ms() : t1;
    ev::TraceRun opened = ev::open_run(st->path);
    const double s1 = acct != nullptr ? now_ms() : 0;
    const double s2 = acct != nullptr ? now_ms() : 0;
    const ffm::AnalysisResult r = ffm::run_analysis(opened, cfg);
    const double s3 = acct != nullptr ? now_ms() : 0;
    const double t3 = now_ms();
    if (acct != nullptr) {
      acct->op(t3 - t1);
      acct->self("eventstore.open", s1 - s0);
      acct->self("stage5.analysis", s3 - s2);
    } else if (record) {
      out.sample("iteration_ms", t3 - t0);
      out.sample("save_ms", t1 - t0);
      out.sample("analyze_ms", t3 - t1);
      out.set("run_file_mb",
              static_cast<double>(fs::file_size(st->path)) / (1024.0 * 1024.0));
    }
    const std::string hash = export_hash(r);
    if (reference.empty()) reference = hash;
    tally.check(opened.store->size() == kTraceEvents && hash == reference,
                "trace_1m: reopened run or its analysis changed");
    last_opened = std::move(opened);
  };

  // One warm-up iteration lets page cache and allocator arenas settle;
  // its outputs are checked like every other.
  iteration(nullptr, false);
  const Deadline dl(loop_seconds(o));
  const double start = now_ms();
  std::uint64_t ops = 0;
  do {
    iteration(nullptr, true);
    ++ops;
  } while (dl.more());
  out.set("ops_per_s", static_cast<double>(ops) * 1000.0 / (now_ms() - start));

  // The analysis must not depend on the thread count.
  diog::par::set_threads(1);
  const std::string serial = export_hash(ffm::run_analysis(last_opened, cfg));
  diog::par::set_threads(0);
  tally.check(serial == reference, "trace_1m: 1-thread analysis differs");
  last_opened = ev::TraceRun{};
  if (!o.trace) return;

  Accounting acct;
  const PoolClock p0 = pool_clock();
  const Deadline tdl(loop_seconds(o));
  do iteration(&acct, false);
  while (tdl.more());
  out.set("parallel.utilization_pct", pool_utilization_pct(p0, pool_clock()));
  acct.report(out, mean(out.series("analyze_ms")));
  last_opened = ev::TraceRun{};
  probe_layers({{"trace_1m", st->run}}, o.work_dir + "/probe", tally, out);
}

// ---------------------------------------------------------------------------
// apps

struct Apps {
  std::vector<diog::apps::AppPair> apps;
};

// The paper's four apps are fixed programs: the seed cannot change their
// inputs, and they always run in registry order (order changes the
// allocator's state and with it the timings, not the work).
void apps(const Options& o, Tally& tally, Ledger& out, json::Object& ctx) {
  const auto st = set_up<Apps>(
      out,
      [&](int) {
        auto a = std::make_unique<Apps>();
        a->apps = diog::apps::all_apps();
        // Each app once, uninstrumented: the native baseline, and the
        // hook table and pool warmed the way a first CLI call does.
        for (const auto& app : a->apps) {
          (void)ffm::run_uninstrumented(app.pathological);
        }
        return a;
      },
      [](Apps&) {});
  ctx["op_series"] = "pipeline_ms";
  json::Array names;
  for (const auto& app : st->apps) names.emplace_back(app.name);
  ctx["apps"] = std::move(names);

  // Per app, every suite must reproduce the first suite's headline
  // numbers: times, overhead factor, benefits, per-API savings. The full
  // export must match too, but stage 3's page tracer classifies one
  // cuIBM sync differently from run to run (a program defect the
  // benchmark reports rather than hides), so an export that differs
  // only below the headline is counted as unstable, not failed.
  std::map<std::string, std::pair<std::string, std::string>> reference;
  const auto verify = [&](const std::string& app,
                          const ffm::AnalysisResult& r) {
    std::string head = std::to_string(r.exec_time().count()) + " " +
                       std::to_string(r.collection_time.count()) + " " +
                       std::to_string(r.overhead_factor) + " " +
                       std::to_string(r.benefit.total.count()) + " " +
                       std::to_string(r.benefit.sync_benefit.count()) + " " +
                       std::to_string(r.benefit.transfer_benefit.count());
    for (const auto& s : r.api_savings()) {
      head += " " + std::to_string(s.savings.count());
    }
    const auto got = std::make_pair(head, export_hash(r));
    const auto [it, fresh] = reference.emplace(app, got);
    if (fresh) return;
    if (tally.check(it->second.first == got.first,
                    "apps: " + app + " headline differs from the first suite") &&
        it->second.second != got.second) {
      out.add("apps.unstable_exports", 1);
    }
  };

  const auto pipeline = [&] {
    for (const auto& app : st->apps) {
      verify(app.name, ffm::Diogenes(app.pathological).analyze());
    }
  };
  pipeline();  // warm-up: sets the reference suite
  const Deadline dl(loop_seconds(o));
  const double start = now_ms();
  std::uint64_t ops = 0;
  do {
    const double t0 = now_ms();
    pipeline();
    out.sample("pipeline_ms", now_ms() - t0);
    ++ops;
  } while (dl.more());
  out.set("ops_per_s", static_cast<double>(ops) * 1000.0 / (now_ms() - start));
  if (!o.trace) return;

  // Traced: Diogenes::analyze's stages called one by one, so each
  // stage's time and the events it appended are visible.
  Accounting acct;
  std::vector<NamedRun> runs;
  const PoolClock p0 = pool_clock();
  const Deadline tdl(loop_seconds(o));
  const ffm::ToolConfig cfg;
  do {
    runs.clear();
    const double t0 = now_ms();
    for (const auto& app : st->apps) {
      const auto& w = app.pathological;
      ev::TraceRun run;
      run.meta.workload = w.name;
      std::uint64_t events = 0;
      const auto stage = [&](const std::string& name, auto&& fn) {
        const double s0 = now_ms();
        fn();
        acct.self(name, now_ms() - s0);
        out.add(name + ".events",
                static_cast<double>(run.store->size() - events));
        events = run.store->size();
      };
      ffm::Stage1Result s1;
      stage("stage1", [&] {
        s1 = ffm::run_stage1(w, cfg);
        ffm::append_stage1(run, s1);
      });
      stage("stage2", [&] { ffm::collect_stage2(w, cfg, s1, run); });
      stage("stage3", [&] { ffm::collect_stage3(w, cfg, run); });
      stage("stage4", [&] { ffm::collect_stage4(w, cfg, run); });
      ffm::AnalysisResult r;
      stage("stage5", [&] { r = ffm::run_analysis(run, cfg); });
      verify(app.name, r);
      runs.push_back({w.name, run});
    }
    acct.op(now_ms() - t0);
  } while (tdl.more());
  out.set("parallel.utilization_pct", pool_utilization_pct(p0, pool_clock()));
  acct.report(out, mean(out.series("pipeline_ms")));
  // Events appended per stage, per suite (not summed over suites).
  const double suites = out.value("trace.ops");
  for (int s = 1; s <= 5; ++s) {
    const std::string name = "stage" + std::to_string(s) + ".events";
    out.set(name, out.value(name) / suites);
  }
  probe_layers(runs, o.work_dir + "/probe", tally, out);
}

// ---------------------------------------------------------------------------
// explore

struct Explore {
  std::string root;
  ev::TraceRun synth;
  // Served run name -> op-time extent, for zoom windows.
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> extents;
  std::unique_ptr<diog::explore::Service> svc;
  std::unique_ptr<diog::explore::HttpServer> server;
  std::thread serve;
  // While set, the handler times Service::handle into handle_ms.
  std::atomic<bool> traced{false};
  std::mutex mu;
  double handle_ms = 0;

  Explore() = default;
  Explore(const Explore&) = delete;
  Explore& operator=(const Explore&) = delete;
  ~Explore() {
    if (server) server->stop();
    if (serve.joinable()) serve.join();
  }
};

std::unique_ptr<Explore> make_explore(const Options& o, int rep,
                                      std::vector<std::string>& names) {
  auto st = std::make_unique<Explore>();
  st->root = o.work_dir + "/explore" + std::to_string(rep);
  fs::remove_all(st->root);
  fs::create_directories(st->root);
  const auto note_extent = [&](const std::string& name, const ev::TraceRun& r) {
    const ev::TimeExtent e = ev::time_extent(
        *r.store, ev::Cursor(*r.store).kind(ev::EventKind::kOp));
    st->extents[name] = {e.t_min, e.t_max};
  };

  st->synth = synth_run(kTraceEvents, o.seed);
  ev::save_run(st->root + "/trace_1m.dgtrace", st->synth);
  note_extent("trace_1m", st->synth);

  // The four apps' runs, written the way `diogenes <app> --trace-dir`
  // writes them, then a small archive beside them.
  diog::archive::Archive ar({.root = st->root + "/archive", .config = {},
                             .ingest_wall_ms = -1});
  names = {"trace_1m"};
  for (const auto& app : diog::apps::all_apps()) {
    // A saved run carries the tool's own spans; start each app from an
    // empty collector, as one CLI process per app would.
    diog::obs::Telemetry::global().spans().reset();
    ffm::ToolConfig cfg;
    cfg.trace_dir = st->root;
    const ffm::AnalysisResult r = ffm::Diogenes(app.pathological, cfg).analyze();
    const std::string name = app.pathological.name;
    note_extent(name, r.run);
    ar.add(ev::run_file_path(st->root, name));
    names.push_back(name);
  }
  for (std::uint64_t k = 0; k < 3; ++k) {
    const std::string path = o.work_dir + "/history" + std::to_string(k) + ".dgtrace";
    ev::save_run(path, synth_run(20000, o.seed * 3 + k));
    ar.add(path);
    fs::remove(path);
  }

  st->svc = std::make_unique<diog::explore::Service>(
      diog::explore::ServiceOptions{.root = st->root, .config = {}, .archive_root = {}});
  Explore* raw = st.get();
  st->server = std::make_unique<diog::explore::HttpServer>(
      [raw](const diog::explore::HttpRequest& req) {
        if (!raw->traced.load()) return raw->svc->handle(req);
        const double t0 = now_ms();
        diog::explore::HttpResponse r = raw->svc->handle(req);
        std::lock_guard<std::mutex> lock(raw->mu);
        raw->handle_ms += now_ms() - t0;
        return r;
      });
  st->server->bind(0);
  st->serve = std::thread([raw] { raw->server->serve(); });
  if (http_get(st->server->port(), "/healthz").status != 200) {
    throw diog::Error("explore: server did not come up");
  }
  return st;
}

// One client's next target: mostly zooms into the 1M run, then the
// other views, spread over every served run.
std::string pick_target(diog::Rng& rng, const Explore& st,
                        const std::vector<std::string>& names) {
  const std::string& run =
      rng.next_below(10) < 6 ? names[0] : names[1 + rng.next_below(names.size() - 1)];
  const std::string q = "?run=" + run;
  const std::uint64_t r = rng.next_below(100);
  if (r < 60) {
    // One of 16 fixed windows per run, 1/2 .. 1/32 of its extent.
    const auto [lo, hi] = st.extents.at(run);
    const std::int64_t span = std::max<std::int64_t>(hi - lo, 64);
    const std::uint64_t k = rng.next_below(16);
    const std::int64_t width = span >> (1 + k % 5);
    const std::int64_t t0 =
        lo + (span - width) * static_cast<std::int64_t>((k * 7) % 16) / 15;
    return "/api/timeline" + q + "&px=1024&tracks=op&t0=" + std::to_string(t0) +
           "&t1=" + std::to_string(t0 + width);
  }
  if (r < 68) return "/api/timeline" + q + "&px=1024";
  if (r < 74) return "/api/flame" + q;
  if (r < 80) return "/api/syncsites" + q;
  if (r < 85) return "/api/stat" + q;
  if (r < 88) return "/api/runs";
  if (r < 94) return "/api/findings" + q;
  if (r < 97) return "/api/history?workload=synthetic";
  return "/metrics";
}

// Every body must be a 200, and one target always returns one body
// (/metrics is live counters, so only its status is checked).
class BodyCheck {
 public:
  BodyCheck(Tally& tally, bool inject_wrong)
      : tally_(tally), inject_wrong_(inject_wrong) {}

  void check(const std::string& target, const HttpReply& r) {
    if (!tally_.check(r.status == 200,
                      target + " answered " + std::to_string(r.status))) {
      return;
    }
    if (target == "/metrics") {
      tally_.check(!r.body.empty(), "/metrics: empty body");
      return;
    }
    std::uint64_t h = hash_text(r.body);
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, fresh] = seen_.emplace(target, h);
    if (!fresh && inject_wrong_) {
      inject_wrong_ = false;
      h ^= 1;  // a forced wrong body
    }
    tally_.check(fresh || it->second == h, target + ": body changed");
  }

 private:
  Tally& tally_;
  bool inject_wrong_;
  std::mutex mu_;
  std::map<std::string, std::uint64_t> seen_;
};

void explore(const Options& o, Tally& tally, Ledger& out, json::Object& ctx) {
  ctx["events"] = kTraceEvents;
  ctx["op_series"] = "request_ms";
  std::vector<std::string> names;
  BodyCheck bodies(tally, o.inject == "wrong_body");
  const std::string cold = "/api/findings?run=trace_1m";
  const auto st = set_up<Explore>(
      out, [&](int rep) { return make_explore(o, rep, names); },
      [&](Explore& s) {
        // A fresh server's first findings request runs stage 5 lazily.
        const HttpReply r = http_get(s.server->port(), cold);
        out.sample("first_findings_s", r.ms / 1000.0);
        bodies.check(cold, r);
      });
  json::Array served;
  for (const std::string& n : names) served.emplace_back(n);
  ctx["served_runs"] = std::move(served);

  const auto load = [&](double seconds, const std::string& series,
                        std::uint64_t salt) {
    const Deadline dl(seconds);
    const double start = now_ms();
    std::atomic<std::uint64_t> done{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        diog::Rng rng(o.seed * 1000003 + salt * 101 + static_cast<std::uint64_t>(c));
        do {
          const std::string target = pick_target(rng, *st, names);
          const HttpReply r = http_get(st->server->port(), target);
          out.sample(series, r.ms);
          bodies.check(target, r);
          ++done;
        } while (dl.more());
      });
    }
    for (std::thread& t : clients) t.join();
    return static_cast<double>(done.load()) * 1000.0 / (now_ms() - start);
  };

  out.set("ops_per_s", load(loop_seconds(o), "request_ms", 0));
  if (!o.trace) return;

  // Traced: the handler times Service::handle; the rest of each round
  // trip is the socket loop, including queueing behind the other client.
  st->traced = true;
  const PoolClock p0 = pool_clock();
  load(loop_seconds(o), "traced_request_ms", 1);
  out.set("parallel.utilization_pct", pool_utilization_pct(p0, pool_clock()));
  st->traced = false;
  Accounting acct;
  for (const double ms : out.series("traced_request_ms")) acct.op(ms);
  {
    std::lock_guard<std::mutex> lock(st->mu);
    acct.self("explore.handle", st->handle_ms);
  }
  acct.report(out, mean(out.series("request_ms")));

  std::vector<NamedRun> runs{{"trace_1m", st->synth}};
  for (std::size_t i = 1; i < names.size(); ++i) {
    runs.push_back({names[i], ev::open_run(ev::run_file_path(st->root, names[i]))});
  }
  probe_layers(runs, o.work_dir + "/probe", tally, out);
}

// ---------------------------------------------------------------------------
// hub

struct Hub {
  std::string dir;
  ev::TraceRun base;
  std::unique_ptr<diog::hub::HubServer> server;
  std::thread serve;
  // Run ids the hub has acknowledged, over every push loop.
  std::mutex mu;
  std::set<std::string> archived;

  Hub() = default;
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;
  ~Hub() {
    if (server) server->stop();
    if (serve.joinable()) serve.join();
  }
};

constexpr char kHubWorkload[] = "hub_synth";

std::unique_ptr<Hub> make_hub(const Options& o, const std::string& dir) {
  auto st = std::make_unique<Hub>();
  st->dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir + "/client");
  st->base = synth_run(kPushEvents, o.seed);
  st->server = std::make_unique<diog::hub::HubServer>(
      diog::hub::ServerOptions{.archive_root = dir + "/archive"});
  st->server->bind();
  Hub* raw = st.get();
  st->serve = std::thread([raw] { raw->server->serve(); });
  // The archive starts with the base run, pushed like any other: the
  // verdict also proves the hub is serving.
  const std::string base = dir + "/client/base.dgtrace";
  ev::save_run(base, st->base);
  const diog::hub::HubResponse r =
      diog::hub::push_run_file(base, {.port = raw->server->port(), .workload = kHubWorkload});
  if (!r.ok) throw diog::Error("hub: seeding the archive failed: " + r.error);
  return st;
}

// The daemon's connection loop (HubServer::handle_connection) on a
// listener of the benchmark's own, over the same HubServer, with the
// Session and ingest calls timed: the daemon's own loop runs on threads
// the benchmark cannot reach. What this copy costs beyond the daemon's
// loop is part of trace.overhead_ms.
class TracedHub {
 public:
  explicit TracedHub(diog::hub::HubServer& hub) : hub_(hub) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (fd_ < 0 || ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(fd_, 16) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw diog::Error("hub: the traced listener cannot bind");
    }
    port_ = ntohs(addr.sin_port);
    accept_ = std::thread([this] { accept_loop(); });
  }
  TracedHub(const TracedHub&) = delete;
  TracedHub& operator=(const TracedHub&) = delete;
  ~TracedHub() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    accept_.join();
    for (std::thread& t : connections_) t.join();
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  // Totals over every connection handled so far.
  [[nodiscard]] std::pair<double, double> session_ingest_ms() {
    std::lock_guard<std::mutex> lock(mu_);
    return {session_ms_, ingest_ms_};
  }

 private:
  void accept_loop() {
    for (;;) {
      const int fd = ::accept(fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // the listener was shut down
      }
      connections_.emplace_back([this, fd] { handle(fd); });
    }
  }

  void handle(int fd) {
    namespace hub = diog::hub;
    double session_ms = 0;
    double ingest_ms = 0;
    hub::Session session({.spool_path = hub_.next_spool_path()});
    hub::HubResponse resp;
    try {
      unsigned char buf[1 << 16];  // the daemon's receive size
      for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) throw diog::Error("hub: recv failed");
        if (n == 0) break;
        const double t0 = now_ms();
        session.feed(buf, static_cast<std::size_t>(n));
        session_ms += now_ms() - t0;
      }
      const double t0 = now_ms();
      session.end_of_stream();
      const double t1 = now_ms();
      const hub::IngestOutcome got = hub_.ingest(session);
      ingest_ms = now_ms() - t1;
      session_ms += t1 - t0;
      resp.ok = true;
      resp.run_id = got.run_id;
      resp.deduplicated = got.deduplicated;
      resp.events = session.stats().events;
      resp.chunks = session.stats().chunks;
      resp.dropped = session.stats().dropped;
      resp.drift_findings = got.drift_findings;
    } catch (const diog::Error& e) {
      resp.ok = false;
      resp.error = e.what();
    }
    {
      // Before the verdict goes out: a pusher that has its verdict finds
      // its push in the totals.
      std::lock_guard<std::mutex> lock(mu_);
      session_ms_ += session_ms;
      ingest_ms_ += ingest_ms;
    }
    const std::string reply = hub::encode_response(resp);
    for (std::size_t off = 0; off < reply.size();) {
      const ssize_t n =
          ::send(fd, reply.data() + off, reply.size() - off, MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }

  diog::hub::HubServer& hub_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_;
  std::vector<std::thread> connections_;  // touched by accept_ only
  std::mutex mu_;
  double session_ms_ = 0;
  double ingest_ms_ = 0;
};

// Two closed-loop pushers against `port`. A fresh push is the base run
// with a metadata stamp distinct per loop (`salt`) and push (same work,
// new bytes); every fifth push resends the pusher's previous file, which
// the hub must answer as a dedup.
double push_load(const Options& o, Hub& st, std::uint16_t port, double seconds,
                 std::uint64_t salt, const std::string& series, Tally& tally,
                 Ledger& out) {
  std::atomic<std::uint64_t> done{0};
  const Deadline dl(seconds);
  const double start = now_ms();
  std::vector<std::thread> pushers;
  for (int p = 0; p < kClients; ++p) {
    pushers.emplace_back([&, p] {
      std::string last;
      for (std::uint64_t c = 0; c == 0 || dl.more(); ++c) {
        const bool resend = c % 5 == 4;
        std::string file = last;
        if (!resend) {
          file = st.dir + "/client/p" + std::to_string(p) + "_" +
                 std::to_string(salt) + "_" + std::to_string(c) + ".dgtrace";
          ev::TraceRun run = st.base;  // shares the columns
          // Distinct per push, and never 0 (the base run's own value).
          run.meta.bytes_hashed =
              ((salt << 32) + c + 1) * kClients + static_cast<std::uint64_t>(p);
          ev::save_run(file, run);
        }
        const std::string bytes = slurp(file);
        const std::string id = diog::archive::run_id_of(
            {reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()});
        const diog::hub::ClientOptions copts{.port = port, .workload = kHubWorkload};
        bool ok = false;
        try {
          const double t0 = now_ms();
          diog::hub::HubResponse r;
          if (o.inject == "refuse_push" && salt == 0 && p == 0 && c == 1) {
            // A torn run: the hub must refuse it.
            r = diog::hub::push_bytes(
                reinterpret_cast<const unsigned char*>(bytes.data()),
                bytes.size() / 2, copts);
          } else {
            r = diog::hub::push_run_file(file, copts);
          }
          out.sample(series, now_ms() - t0);
          ok = r.ok && r.deduplicated == resend && r.run_id == id;
        } catch (const diog::Error&) {
          ok = false;
        }
        tally.check(ok, "hub: push " + std::to_string(p) + "/" +
                            std::to_string(c) + " verdict");
        if (ok) {
          std::lock_guard<std::mutex> lock(st.mu);
          st.archived.insert(id);
        }
        if (!resend) {
          if (!last.empty()) fs::remove(last);
          last = file;
        }
        ++done;
      }
      if (!last.empty()) fs::remove(last);
    });
  }
  for (std::thread& t : pushers) t.join();
  const double rate = static_cast<double>(done.load()) * 1000.0 / (now_ms() - start);

  // The index holds exactly the distinct runs that were pushed, and the
  // base run the setup seeded it with.
  const diog::archive::Archive ar({.root = st.dir + "/archive", .config = {},
                                   .ingest_wall_ms = -1});
  const auto stats = ar.stats();
  tally.check(stats.runs == st.archived.size() + 1 &&
                  stats.index_entries == st.archived.size() + 1,
              "hub: archive index does not hold exactly the pushed runs");
  return rate;
}

void hub(const Options& o, Tally& tally, Ledger& out, json::Object& ctx) {
  ctx["push_events"] = kPushEvents;
  ctx["op_series"] = "push_ms";
  const auto st = set_up<Hub>(
      out,
      [&](int rep) { return make_hub(o, o.work_dir + "/hub" + std::to_string(rep)); },
      [](Hub&) {});
  out.set("ops_per_s", push_load(o, *st, st->server->port(), loop_seconds(o), 0,
                                 "push_ms", tally, out));
  if (!o.trace) return;

  // Traced: the same pushes, into the same archive, through the timed
  // copy of the daemon's connection loop. The rest of each push is the
  // client, the socket and queueing behind the other pusher's ingest.
  Accounting acct;
  const PoolClock p0 = pool_clock();
  {
    TracedHub traced(*st->server);
    push_load(o, *st, traced.port(), loop_seconds(o), 1, "traced_push_ms",
              tally, out);
    const auto [session_ms, ingest_ms] = traced.session_ingest_ms();
    acct.self("hub.session", session_ms);
    acct.self("hub.ingest", ingest_ms);
  }
  out.set("parallel.utilization_pct", pool_utilization_pct(p0, pool_clock()));
  for (const double ms : out.series("traced_push_ms")) acct.op(ms);
  acct.report(out, mean(out.series("push_ms")));
  probe_layers({{"hub_run", st->base}}, o.work_dir + "/probe", tally, out);
}

}  // namespace

bool run_workload(const Options& o, Tally& tally, Ledger& ledger,
                  json::Object& context) {
  if (o.workload == "trace_1m") {
    trace_1m(o, tally, ledger, context);
  } else if (o.workload == "apps") {
    apps(o, tally, ledger, context);
  } else if (o.workload == "explore") {
    explore(o, tally, ledger, context);
  } else if (o.workload == "hub") {
    hub(o, tally, ledger, context);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
