#include "hub/server.h"

#include <chrono>
#include <filesystem>
#include <optional>
#include <utility>

#include "archive/regress.h"
#include "hub/protocol.h"
#include "obs/telemetry.h"
#include "support/error.h"
#include "testkit/fault_plan.h"

namespace diog::hub {

namespace {

// The verdict line for a refused or failed session.
std::string refusal(const std::string& error) {
  HubResponse r;
  r.error = error;
  return encode_response(r);
}

ServerOptions checked(ServerOptions opts) {
  DIOG_CHECK(!opts.archive_root.empty(), "hub: no archive root");
  if (opts.spool_dir.empty()) opts.spool_dir = opts.archive_root + "/spool";
  if (opts.max_clients == 0) opts.max_clients = 1;
  return opts;
}

void record_since(const char* histogram,
                  std::chrono::steady_clock::time_point start) {
  obs::Telemetry::global().metrics().histogram(histogram).record_ns(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

HubServer::HubServer(ServerOptions opts)
    : opts_(checked(std::move(opts))),
      archive_(archive::ArchiveOptions{
          .root = opts_.archive_root,
          .config = opts_.config,
          .ingest_wall_ms = opts_.ingest_wall_ms,
      }),
      server_("hub", opts_.max_clients) {}

HubServer::~HubServer() { stop(); }

std::string HubServer::next_spool_path() {
  const std::uint64_t id =
      session_seq_.fetch_add(1, std::memory_order_relaxed);
  return opts_.spool_dir + "/session-" + std::to_string(id) + ".dgtrace";
}

IngestOutcome HubServer::ingest(const Session& session) {
  DIOG_CHECK(session.finalized(),
             "hub: ingest of a non-finalized session spool");
  // Sessions already validated and decoded their runs, so the critical
  // section is the digest of the decoded run plus one line append, and
  // the sentinel's read of that line.
  std::lock_guard<std::mutex> lock(ingest_mu_);
  const auto start = std::chrono::steady_clock::now();
  const archive::Archive::AddResult added =
      archive_.add(session.spool_path(), session.run(), session.info());
  // The verdict checks the workload the run's digest is filed under
  // (its own meta), and counts drift only when this run is that
  // workload's newest: a dedup of an older run says nothing new.
  const archive::RegressReport report =
      archive::check_workload(archive_.index(), added.digest.workload);
  IngestOutcome out;
  out.run_id = added.digest.run_id;
  out.deduplicated = added.deduplicated;
  out.drift_findings = report.newest_run_id == out.run_id
                           ? report.findings.size()
                           : 0;
  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("hub.ingested").inc();
    if (added.deduplicated) m.counter("hub.dedup").inc();
    if (out.drift_findings > 0) m.counter("hub.drift").inc();
  }
  // The archived object is the durable copy; the spool was scaffolding.
  std::error_code ec;
  std::filesystem::remove(session.spool_path(), ec);
  record_since("hub.ingest_ns", start);
  return out;
}

void HubServer::bind() { server_.listen(opts_.port); }

void HubServer::serve() {
  server_.serve({
      .handle = [this](net::Conn& conn) { handle_connection(conn); },
      .refusal = refusal,
  });
}

void HubServer::stop() { server_.stop(); }

void HubServer::handle_connection(net::Conn& conn) {
  Session session(SessionOptions{
      .spool_path = next_spool_path(),
      .max_pending_bytes = opts_.max_pending_bytes,
      .fsync_spool = opts_.fsync_spool,
  });
  HubResponse resp;
  std::optional<std::chrono::steady_clock::time_point> hello_at;
  try {
    if (testkit::fault_at("hub.accept") != nullptr) {
      throw Error("hub: accept failed (injected fault)");
    }
    unsigned char buf[1 << 16];
    for (;;) {
      if (testkit::fault_at("hub.session.read") != nullptr) {
        throw Error("hub: read failed on session (injected fault)");
      }
      const std::size_t n = conn.recv_some(buf, sizeof buf);
      if (n == 0) break;  // peer shut down its write side
      session.feed(buf, n);
      if (!hello_at && session.hello_done()) {
        hello_at = std::chrono::steady_clock::now();
        conn.first_message_done();
      }
    }
    session.end_of_stream();
    const IngestOutcome out = ingest(session);
    resp.ok = true;
    resp.run_id = out.run_id;
    resp.deduplicated = out.deduplicated;
    resp.events = session.stats().events;
    resp.chunks = session.stats().chunks;
    resp.dropped = session.stats().dropped;
    resp.drift_findings = out.drift_findings;
  } catch (const Error& e) {
    // Answered with the classified error; rethrown, the core counts it
    // as hub.errors.
    if (hello_at) record_since("hub.push_ns", *hello_at);
    conn.send_all(refusal(e.what()));
    throw;
  }
  // Recorded as the verdict goes out, so a pusher holding its verdict
  // finds its push counted.
  if (hello_at) record_since("hub.push_ns", *hello_at);
  conn.send_all(encode_response(resp));
}

}  // namespace diog::hub
