// The explorer's request layer: routes HTTP requests to JSON views over
// mmap'd .dgtrace runs.
//
// One Service owns one serve root — a trace directory or a single run
// file — and a cache of opened runs. Requests answer from the cache;
// a non-finalized (live) run is reopened only when the file has grown
// since the cached open, so the warm path touches the filesystem once
// (a size probe) per request. The stage-5 analysis behind /api/findings
// is computed lazily, once per cached run.
//
// Error model: the explorer never answers 5xx for bad input or bad
// files. Unknown runs are 404, malformed parameters 400, and a run file
// that cannot be opened is listed with its error string and answers 422
// on data endpoints. Torn or live prefixes are not errors at all — the
// readable prefix is served and the state surfaced in /api/runs.
//
// Determinism: every data endpoint's body is byte-identical at any
// --threads value (binning merges in segment order; findings come from
// the already-deterministic analysis; json::Object sorts keys).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/findings.h"
#include "core/tool_config.h"
#include "explore/http.h"

namespace diog::archive {
class Archive;
}  // namespace diog::archive

namespace diog::explore {

struct ServiceOptions {
  // A directory containing *.dgtrace files, or one run file.
  std::string root;
  // Analysis configuration for /api/findings (thresholds etc.).
  ffm::ToolConfig config;
  // Archive root for /api/history and /api/regressions. Empty means
  // auto-discover: <root>/index.jsonl, then <root>/archive/index.jsonl
  // (relative to the containing directory when root is one file).
  std::string archive_root;
};

class Service {
 public:
  explicit Service(ServiceOptions opts);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // The HttpServer handler: full routing, never throws. Tests call this
  // directly — no sockets required.
  HttpResponse handle(const HttpRequest& req);

 private:
  struct CachedRun;

  // Run names (file basename minus ".dgtrace"), sorted.
  std::vector<std::string> discover() const;
  // Cache lookup with live-reopen-on-growth; nullptr when the name does
  // not resolve to a file on disk.
  CachedRun* resolve(const std::string& name);

  HttpResponse api_runs();
  HttpResponse api_stat(const HttpRequest& req);
  HttpResponse api_timeline(const HttpRequest& req);
  HttpResponse api_flame(const HttpRequest& req);
  HttpResponse api_findings(const HttpRequest& req);
  HttpResponse api_syncsites(const HttpRequest& req);
  HttpResponse api_history(const HttpRequest& req);
  HttpResponse api_regressions(const HttpRequest& req);
  HttpResponse api_metrics();

  // The archive root the fleet endpoints answer from; empty when none
  // was configured and none was discovered next to the serve root.
  std::string archive_root() const;
  // Calls fn(const archive::Archive&) on the fleet endpoints' shared
  // archive at `root`, under archive_mu_, and returns its result.
  template <typename Fn>
  auto with_archive(const std::string& root, Fn&& fn);

  ServiceOptions opts_;
  std::map<std::string, std::unique_ptr<CachedRun>> cache_;
  // One Archive for /api/history, /api/regressions and /metrics,
  // created on first use (again if the discovered root changes). It
  // reads the index incrementally, so a request parses only the lines
  // appended since the last one.
  std::mutex archive_mu_;
  std::unique_ptr<archive::Archive> archive_;
};

// `diogenes explore <root> [--port N]`: bind, print the URL, serve until
// interrupted. Returns a process exit code.
int run_explorer(const ServiceOptions& opts, std::uint16_t port);

}  // namespace diog::explore
