#include "explore/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <unordered_map>
#include <utility>

#include "archive/archive.h"
#include "archive/regress.h"
#include "core/diagnosis.h"
#include "core/diogenes.h"
#include "eventstore/aggregate.h"
#include "eventstore/cursor.h"
#include "eventstore/run_io.h"
#include "explore/page.h"
#include "hooks/fn.h"
#include "obs/prometheus.h"
#include "obs/telemetry.h"
#include "support/error.h"

namespace diog::explore {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kRunSuffix = ".dgtrace";

HttpResponse json_response(json::Value v) {
  HttpResponse r;
  r.body = v.dump();
  return r;
}

// The state string /api/runs surfaces — same taxonomy as
// render_run_file_info, compressed to one token-ish phrase.
std::string state_of(const evstore::RunFileInfo& info) {
  if (info.finalized) return "finalized";
  if (info.clean) return "in progress (clean prefix)";
  return "in progress (torn tail ignored)";
}

// A short drawable label for a representative event.
std::string label_of(const evstore::EventStore& store,
                     const evstore::Event& e) {
  if (e.name != evstore::kNoName) return std::string(store.name(e.name));
  if (e.kind == evstore::EventKind::kPageFault) return "page_fault";
  if (e.api < static_cast<std::uint16_t>(hooks::Fn::kCount_)) {
    return std::string(hooks::fn_name(e.fn()));
  }
  return std::string(evstore::to_string(e.kind));
}

}  // namespace

// One opened run plus everything derived from it. Derivations are
// lazy (the analysis in particular) and all dropped together when a
// live file grows and forces a reopen.
struct Service::CachedRun {
  std::string name;
  std::string path;
  std::uintmax_t file_size = 0;

  bool ok = false;
  std::string error;
  evstore::RunFileInfo info;
  evstore::TraceRun run;
  evstore::TimeExtent extent;

  bool analyzed = false;
  std::string analysis_error;
  ffm::AnalysisResult analysis;
  std::vector<ffm::Finding> findings;
  std::vector<ffm::Diagnosis> diagnoses;
};

Service::Service(ServiceOptions opts) : opts_(std::move(opts)) {}
Service::~Service() = default;

std::vector<std::string> Service::discover() const {
  std::vector<std::string> names;
  for (const std::string& path : evstore::list_run_files(opts_.root)) {
    names.push_back(evstore::run_stem(path));
  }
  std::sort(names.begin(), names.end());
  return names;
}

Service::CachedRun* Service::resolve(const std::string& name) {
  std::error_code ec;
  std::string path;
  if (fs::is_regular_file(opts_.root, ec)) {
    const std::string stem =
        fs::path(opts_.root).filename().string();
    if (stem != name && stem != name + std::string(kRunSuffix)) {
      return nullptr;
    }
    path = opts_.root;
  } else {
    if (name.find('/') != std::string::npos ||
        name.find("..") != std::string::npos) {
      return nullptr;  // names are basenames, never paths
    }
    path = (fs::path(opts_.root) / (name + std::string(kRunSuffix)))
               .string();
  }
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec) return nullptr;

  auto it = cache_.find(name);
  if (it != cache_.end()) {
    CachedRun& c = *it->second;
    // Warm path: a finalized file never changes; a live (or broken)
    // file is re-read only when it has actually grown.
    if ((c.ok && c.info.finalized) || c.file_size == size) return &c;
  } else {
    it = cache_.emplace(name, std::make_unique<CachedRun>()).first;
  }

  it->second = std::make_unique<CachedRun>();  // drop stale derivations
  CachedRun& c = *it->second;
  c.name = name;
  c.path = path;
  c.file_size = size;
  try {
    c.run = evstore::open_run(path, evstore::ReadMode::kAuto, &c.info);
    c.extent = evstore::time_extent(*c.run.store,
                                    evstore::Cursor(*c.run.store));
    c.ok = true;
  } catch (const Error& e) {
    c.ok = false;
    c.error = e.what();
  }
  return &c;
}

HttpResponse Service::api_runs() {
  json::Array runs;
  for (const std::string& name : discover()) {
    CachedRun* c = resolve(name);
    if (c == nullptr) continue;  // raced with deletion
    json::Object o;
    o["run"] = c->name;
    o["file"] = c->path;
    o["file_bytes"] = static_cast<std::int64_t>(c->file_size);
    if (!c->ok) {
      o["state"] = "error";
      o["error"] = c->error;
      runs.push_back(std::move(o));
      continue;
    }
    o["state"] = state_of(c->info);
    o["workload"] = c->run.meta.workload;
    o["clean"] = c->info.clean;
    o["finalized"] = c->info.finalized;
    o["chunks"] = c->info.chunks;
    o["events"] = c->run.store->size();
    o["dropped_before_checkpoint"] = c->info.dropped_before_checkpoint;
    o["bytes_consumed"] = c->info.bytes_consumed;
    json::Object ext;
    ext["t_min"] = c->extent.t_min;
    ext["t_max"] = c->extent.t_max;
    ext["matched"] = c->extent.matched;
    o["extent"] = std::move(ext);
    runs.push_back(std::move(o));
  }
  json::Object top;
  top["root"] = opts_.root;
  top["runs"] = std::move(runs);
  return json_response(json::Value(std::move(top)));
}

HttpResponse Service::api_stat(const HttpRequest& req) {
  CachedRun* c = resolve(req.get("run"));
  if (c == nullptr) return error_response(404, "unknown run");
  if (!c->ok) return error_response(422, c->error);
  json::Object o;
  o["run"] = c->name;
  o["state"] = state_of(c->info);
  o["store"] = c->run.store->stat_json();
  o["meta"] = c->run.meta.to_json();
  return json_response(json::Value(std::move(o)));
}

HttpResponse Service::api_timeline(const HttpRequest& req) {
  CachedRun* c = resolve(req.get("run"));
  if (c == nullptr) return error_response(404, "unknown run");
  if (!c->ok) return error_response(422, c->error);
  const evstore::EventStore& store = *c->run.store;

  // Track list: comma-separated kind names; default covers everything
  // the canvas draws as a lane.
  std::vector<evstore::EventKind> kinds;
  {
    const std::string tracks =
        req.get("tracks", "op,internal_span,page_fault");
    std::size_t pos = 0;
    while (pos <= tracks.size()) {
      const std::size_t comma = tracks.find(',', pos);
      const std::string tok = tracks.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      if (!tok.empty()) {
        evstore::EventKind k{};
        if (!evstore::kind_from_name(tok, k)) {
          return error_response(400, "unknown track kind: " + tok);
        }
        kinds.push_back(k);
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (kinds.empty()) return error_response(400, "no tracks requested");
  }

  // Default viewport: the extent of the requested tracks. An explicit
  // inverted range is a caller bug (400), not a request for the default.
  const bool has_range = req.query.find("t0") != req.query.end() &&
                         req.query.find("t1") != req.query.end();
  std::int64_t t0 = req.get_i64("t0", 0);
  std::int64_t t1 = req.get_i64("t1", 0);
  if (has_range && t1 <= t0) {
    return error_response(400, "empty viewport: t1 <= t0");
  }
  if (t1 <= t0) {
    evstore::TimeExtent ext;
    for (const evstore::EventKind k : kinds) {
      const evstore::TimeExtent e = evstore::time_extent(
          store, evstore::Cursor(store).kind(k));
      if (e.matched == 0) continue;
      if (ext.matched == 0) {
        ext.t_min = e.t_min;
        ext.t_max = e.t_max;
      } else {
        ext.t_min = std::min(ext.t_min, e.t_min);
        ext.t_max = std::max(ext.t_max, e.t_max);
      }
      ext.matched += e.matched;
    }
    t0 = ext.t_min;
    t1 = ext.matched > 0 ? ext.t_max + 1 : 1;
  }

  const auto px = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
      req.get_i64("px", 1024), 1, evstore::kMaxBins));

  json::Array tracks_json;
  std::uint64_t matched_total = 0;
  evstore::ScanStats scan{};
  std::int64_t bin_width = 0;
  for (const evstore::EventKind k : kinds) {
    const evstore::BinnedSpans b = evstore::bin_events(
        store, evstore::Cursor(store).kind(k), t0, t1, px);
    bin_width = b.bin_width;
    matched_total += b.matched;
    scan.segments_skipped += b.stats.segments_skipped;
    scan.blocks_skipped += b.stats.blocks_skipped;
    json::Array data;
    for (std::uint32_t i = 0; i < b.bins; ++i) {
      const evstore::TimeBin& bin = b.data[i];
      if (bin.count == 0) continue;
      json::Array entry;
      entry.push_back(i);
      entry.push_back(bin.count);
      entry.push_back(bin.busy_ns);
      entry.push_back(bin.rep.t_start);
      entry.push_back(bin.rep.t_end - bin.rep.t_start);
      entry.push_back(label_of(store, bin.rep));
      data.push_back(std::move(entry));
    }
    json::Object track;
    track["kind"] = std::string(evstore::to_string(k));
    track["matched"] = b.matched;
    track["data"] = std::move(data);
    tracks_json.push_back(std::move(track));
  }

  json::Object o;
  o["run"] = c->name;
  o["t0"] = t0;
  o["t1"] = t1;
  o["px"] = px;
  o["bin_width"] = bin_width;
  o["matched"] = matched_total;
  o["tracks"] = std::move(tracks_json);
  json::Object sc;
  sc["segments_skipped"] = scan.segments_skipped;
  sc["blocks_skipped"] = scan.blocks_skipped;
  o["scan"] = std::move(sc);
  return json_response(json::Value(std::move(o)));
}

HttpResponse Service::api_flame(const HttpRequest& req) {
  CachedRun* c = resolve(req.get("run"));
  if (c == nullptr) return error_response(404, "unknown run");
  if (!c->ok) return error_response(422, c->error);
  const evstore::EventStore& store = *c->run.store;

  // Fold every op into its interned stack: the dictionary bounds the
  // output (distinct stacks, not events), which is what makes the flame
  // answer O(stacks) JSON over a 1M-event run.
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t sync_wait_ns = 0;
  };
  std::unordered_map<evstore::StackId, Agg> by_stack;
  std::int64_t grand_total = 0;
  evstore::ops(store).for_each([&](const evstore::Event& e) {
    Agg& a = by_stack[e.stack];
    ++a.count;
    a.total_ns += e.t_end - e.t_start;
    a.sync_wait_ns += e.aux_time;
    grand_total += e.t_end - e.t_start;
  });

  std::vector<std::pair<evstore::StackId, Agg>> rows(by_stack.begin(),
                                                     by_stack.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.total_ns != b.second.total_ns) {
      return a.second.total_ns > b.second.total_ns;
    }
    return a.first < b.first;
  });
  constexpr std::size_t kMaxStacks = 512;
  const std::size_t truncated =
      rows.size() > kMaxStacks ? rows.size() - kMaxStacks : 0;
  if (truncated > 0) rows.resize(kMaxStacks);

  json::Array stacks;
  for (const auto& [id, agg] : rows) {
    json::Object o;
    o["stack"] = id;
    o["count"] = agg.count;
    o["total_ns"] = agg.total_ns;
    o["sync_wait_ns"] = agg.sync_wait_ns;
    json::Array frames;
    const std::size_t depth = store.stacks().depth(id);
    for (std::size_t i = 0; i < depth; ++i) {
      frames.push_back(store.stacks().frame(id, i)->function);
    }
    o["frames"] = std::move(frames);
    const trace::Frame* leaf = store.stacks().leaf(id);
    o["site"] = leaf != nullptr ? leaf->pretty() : std::string("<no stack>");
    stacks.push_back(std::move(o));
  }

  json::Object o;
  o["run"] = c->name;
  o["total_ns"] = grand_total;
  o["distinct_stacks"] = by_stack.size();
  o["truncated"] = static_cast<std::uint64_t>(truncated);
  o["stacks"] = std::move(stacks);
  return json_response(json::Value(std::move(o)));
}

HttpResponse Service::api_findings(const HttpRequest& req) {
  CachedRun* c = resolve(req.get("run"));
  if (c == nullptr) return error_response(404, "unknown run");
  if (!c->ok) return error_response(422, c->error);
  if (!c->analyzed) {
    try {
      c->analysis = ffm::run_analysis(c->run, opts_.config);
      c->findings = ffm::collect_findings(c->analysis);
      c->diagnoses = ffm::diagnose(c->analysis, c->findings);
      c->analysis_error.clear();
    } catch (const Error& e) {
      c->analysis_error = e.what();
    }
    c->analyzed = true;
  }
  if (!c->analysis_error.empty()) {
    return error_response(422, c->analysis_error);
  }

  json::Array findings;
  for (std::size_t i = 0; i < c->findings.size(); ++i) {
    const ffm::Finding& f = c->findings[i];
    json::Object o;
    o["rank"] = f.rank;
    o["source"] =
        f.source == ffm::Finding::Source::kFold ? "fold" : "sequence";
    o["title"] = f.group->title;
    o["benefit_ns"] = f.group->benefit.count();
    o["members"] = f.members;
    o["instances"] = f.group->instance_count();
    o["sync_issues"] = f.group->sync_issues;
    o["transfer_issues"] = f.group->transfer_issues;
    o["member_time_ns"] = f.member_time.count();
    o["recoverable_fraction"] = f.recoverable_fraction();
    o["explanation"] = c->diagnoses[i].to_json();
    findings.push_back(std::move(o));
  }

  json::Object o;
  o["run"] = c->name;
  o["workload"] = c->analysis.workload_name;
  o["exec_time_ns"] = c->analysis.exec_time().count();
  o["total_benefit_ns"] = c->analysis.benefit.total.count();
  o["findings"] = std::move(findings);
  return json_response(json::Value(std::move(o)));
}

HttpResponse Service::api_syncsites(const HttpRequest& req) {
  CachedRun* c = resolve(req.get("run"));
  if (c == nullptr) return error_response(404, "unknown run");
  if (!c->ok) return error_response(422, c->error);
  const evstore::EventStore& store = *c->run.store;

  struct Site {
    evstore::StackId stack = 0;
    std::uint64_t hits = 0;
  };
  struct ApiGroup {
    std::uint64_t total_hits = 0;
    std::uint64_t required = 0;
    std::uint64_t unnecessary = 0;
    std::vector<Site> sites;
  };
  std::map<std::uint16_t, ApiGroup> by_api;
  evstore::sync_sites(store).for_each([&](const evstore::Event& e) {
    ApiGroup& g = by_api[e.api];
    g.total_hits += e.value;
    g.sites.push_back({e.stack, e.value});
  });
  evstore::sync_classifications(store).for_each(
      [&](const evstore::Event& e) {
        ApiGroup& g = by_api[e.api];
        if (e.has(evstore::flag::kSyncRequired)) {
          ++g.required;
        } else {
          ++g.unnecessary;
        }
      });

  json::Array groups;
  for (auto& [api, g] : by_api) {
    std::sort(g.sites.begin(), g.sites.end(),
              [](const Site& a, const Site& b) {
                if (a.hits != b.hits) return a.hits > b.hits;
                return a.stack < b.stack;
              });
    json::Object o;
    o["api"] = api < static_cast<std::uint16_t>(hooks::Fn::kCount_)
                   ? std::string(hooks::fn_name(
                         static_cast<hooks::Fn>(api)))
                   : std::string("<unknown>");
    o["total_hits"] = g.total_hits;
    o["classified_required"] = g.required;
    o["classified_unnecessary"] = g.unnecessary;
    json::Array sites;
    for (const Site& s : g.sites) {
      json::Object so;
      const trace::Frame* leaf = store.stacks().leaf(s.stack);
      so["site"] =
          leaf != nullptr ? leaf->pretty() : std::string("<no stack>");
      so["hits"] = s.hits;
      so["depth"] = store.stacks().depth(s.stack);
      sites.push_back(std::move(so));
    }
    o["sites"] = std::move(sites);
    groups.push_back(std::move(o));
  }

  json::Object o;
  o["run"] = c->name;
  o["groups"] = std::move(groups);
  return json_response(json::Value(std::move(o)));
}

std::string Service::archive_root() const {
  std::error_code ec;
  if (!opts_.archive_root.empty()) return opts_.archive_root;
  // Auto-discovery keys on the index file, not the directory: a serve
  // root that merely contains an `archive/` subdir with no index is not
  // an archive.
  const fs::path base = fs::is_regular_file(opts_.root, ec)
                            ? fs::path(opts_.root).parent_path()
                            : fs::path(opts_.root);
  for (const fs::path& cand : {base, base / "archive"}) {
    if (fs::is_regular_file(archive::index_path(cand.string()), ec)) {
      return cand.string();
    }
  }
  return std::string();
}

template <typename Fn>
auto Service::with_archive(const std::string& root, Fn&& fn) {
  std::lock_guard<std::mutex> lock(archive_mu_);
  if (archive_ == nullptr || archive_->root() != root) {
    archive::ArchiveOptions aopts;
    aopts.root = root;
    archive_ = std::make_unique<archive::Archive>(std::move(aopts));
  }
  return fn(std::as_const(*archive_));
}

HttpResponse Service::api_history(const HttpRequest& req) {
  const std::string root = archive_root();
  if (root.empty()) {
    return error_response(404, "no archive next to the serve root");
  }
  const std::string workload = req.get("workload");
  if (workload.empty()) {
    return error_response(400, "missing required parameter: workload");
  }

  const std::vector<archive::RunDigest> series =
      with_archive(root, [&](const archive::Archive& ar) {
        std::vector<archive::RunDigest> mine;
        for (const archive::RunDigest& d : ar.index()) {
          if (d.workload == workload) mine.push_back(d);
        }
        return mine;
      });
  if (series.empty()) return error_response(404, "unknown workload");

  // Same LoD contract as /api/timeline, over ingest sequence index
  // instead of event time: the client asks for a pixel budget and gets
  // at most that many bins, each covering a contiguous run of ingests.
  const auto px = static_cast<std::size_t>(std::clamp<std::int64_t>(
      req.get_i64("px", 256), 1, evstore::kMaxBins));
  const std::size_t n = series.size();
  const std::size_t bins = std::min(px, n);

  json::Array data;
  for (std::size_t b = 0; b < bins; ++b) {
    // Equal-width partition of [0, n): bin b covers [i0, i1).
    const std::size_t i0 = b * n / bins;
    const std::size_t i1 = (b + 1) * n / bins;
    const archive::RunDigest& last = series[i1 - 1];
    std::int64_t min_benefit = last.total_benefit_ns;
    std::int64_t max_benefit = last.total_benefit_ns;
    std::uint64_t dropped = 0;
    for (std::size_t i = i0; i < i1; ++i) {
      min_benefit = std::min(min_benefit, series[i].total_benefit_ns);
      max_benefit = std::max(max_benefit, series[i].total_benefit_ns);
      dropped += series[i].dropped_events;
    }
    json::Object o;
    o["i0"] = static_cast<std::uint64_t>(i0);
    o["i1"] = static_cast<std::uint64_t>(i1);
    o["run_id"] = last.run_id;
    o["ingest_wall_ms"] = last.ingest_wall_ms;
    o["benefit_ns"] = last.total_benefit_ns;
    o["min_benefit_ns"] = min_benefit;
    o["max_benefit_ns"] = max_benefit;
    o["events"] = last.events;
    o["dropped_events"] = dropped;
    o["unnecessary_syncs"] = last.unnecessary_syncs;
    o["overhead_factor"] = last.overhead_factor;
    o["findings"] = static_cast<std::uint64_t>(last.findings.size());
    data.push_back(std::move(o));
  }

  json::Object o;
  o["schema"] = obs::schema_id("history");
  o["workload"] = workload;
  o["runs"] = static_cast<std::uint64_t>(n);
  o["px"] = static_cast<std::uint64_t>(px);
  o["bins"] = std::move(data);
  return json_response(json::Value(std::move(o)));
}

HttpResponse Service::api_regressions(const HttpRequest& req) {
  const std::string root = archive_root();
  if (root.empty()) {
    return error_response(404, "no archive next to the serve root");
  }
  archive::RegressOptions ropts;
  const std::int64_t window = req.get_i64("window", 0);
  if (window < 0) return error_response(400, "window must be positive");
  if (window > 0) ropts.baseline_window = static_cast<std::size_t>(window);

  const std::vector<archive::RunDigest> index = with_archive(
      root, [](const archive::Archive& ar) { return ar.index(); });
  json::Array reports;
  std::uint64_t drifted = 0;
  for (const archive::RegressReport& r : archive::check_all(index, ropts)) {
    if (r.drifted()) ++drifted;
    reports.push_back(r.to_json());
  }
  json::Object o;
  o["schema"] = obs::schema_id("regress");
  o["archive"] = root;
  o["digests"] = static_cast<std::uint64_t>(index.size());
  o["drifted_workloads"] = drifted;
  o["reports"] = std::move(reports);
  return json_response(json::Value(std::move(o)));
}

HttpResponse Service::api_metrics() {
  auto& metrics = obs::Telemetry::global().metrics();
  std::string body = obs::prometheus_text(metrics);
  // Archive gauges are rendered straight into the exposition instead of
  // going through the registry: they are per-scrape filesystem facts,
  // and they must survive -DDIOG_OBS=OFF (which no-ops Gauge::set).
  const std::string root = archive_root();
  if (!root.empty()) {
    const archive::Archive::Stats st = with_archive(
        root, [](const archive::Archive& ar) { return ar.stats(); });
    body += obs::prometheus_gauge_line(
        "archive.runs", static_cast<std::int64_t>(st.runs));
    body += obs::prometheus_gauge_line(
        "archive.object_bytes", static_cast<std::int64_t>(st.bytes));
    body += obs::prometheus_gauge_line(
        "archive.workloads", static_cast<std::int64_t>(st.workloads));
    body += obs::prometheus_gauge_line(
        "archive.index_entries",
        static_cast<std::int64_t>(st.index_entries));
  }
  HttpResponse r;
  r.content_type = "text/plain; version=0.0.4; charset=utf-8";
  r.body = std::move(body);
  return r;
}

HttpResponse Service::handle(const HttpRequest& req) {
  const auto start = std::chrono::steady_clock::now();
  auto& metrics = obs::Telemetry::global().metrics();
  metrics.counter("explore.requests").inc();

  HttpResponse resp;
  try {
    if (req.path == "/" || req.path == "/index.html") {
      resp.content_type = "text/html; charset=utf-8";
      resp.body = explorer_page();
    } else if (req.path == "/healthz") {
      resp.body = "{\"ok\":true}";
    } else if (req.path == "/api/runs") {
      resp = api_runs();
    } else if (req.path == "/api/stat") {
      resp = api_stat(req);
    } else if (req.path == "/api/timeline") {
      resp = api_timeline(req);
    } else if (req.path == "/api/flame") {
      resp = api_flame(req);
    } else if (req.path == "/api/findings") {
      resp = api_findings(req);
    } else if (req.path == "/api/syncsites") {
      resp = api_syncsites(req);
    } else if (req.path == "/api/history") {
      resp = api_history(req);
    } else if (req.path == "/api/regressions") {
      resp = api_regressions(req);
    } else if (req.path == "/metrics") {
      resp = api_metrics();
    } else {
      resp = error_response(404, "no such endpoint");
    }
  } catch (const Error& e) {
    // Bad data is a 4xx by contract: the CI smoke run treats any 5xx
    // as an explorer bug.
    resp = error_response(422, e.what());
  } catch (const std::exception& e) {
    resp = error_response(500, e.what());
  }

  if (resp.status >= 400) metrics.counter("explore.errors").inc();
  metrics.counter("explore.bytes_out").inc(resp.body.size());
  metrics.histogram("explore.request_ns")
      .record_ns(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  return resp;
}

int run_explorer(const ServiceOptions& opts, std::uint16_t port) {
  std::error_code ec;
  if (!fs::exists(opts.root, ec)) {
    std::fprintf(stderr, "explore: no such file or directory: %s\n",
                 opts.root.c_str());
    return 1;
  }
  Service svc(opts);
  HttpServer server(
      [&svc](const HttpRequest& req) { return svc.handle(req); });
  try {
    server.bind(port);
    std::printf("exploring %s\n", opts.root.c_str());
    std::printf("listening on http://127.0.0.1:%u/\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    server.serve();
  } catch (const Error& e) {
    std::fprintf(stderr, "explore: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace diog::explore
