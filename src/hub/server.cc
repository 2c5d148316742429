#include "hub/server.h"

#include <filesystem>
#include <utility>

#include "archive/archive.h"
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

}  // namespace

HubServer::HubServer(ServerOptions opts)
    : opts_(std::move(opts)), server_("hub", opts_.max_clients) {
  DIOG_CHECK(!opts_.archive_root.empty(), "hub: no archive root");
  if (opts_.spool_dir.empty()) {
    opts_.spool_dir = opts_.archive_root + "/spool";
  }
  if (opts_.max_clients == 0) opts_.max_clients = 1;
}

HubServer::~HubServer() { stop(); }

std::string HubServer::next_spool_path() {
  const std::uint64_t id =
      session_seq_.fetch_add(1, std::memory_order_relaxed);
  return opts_.spool_dir + "/session-" + std::to_string(id) + ".dgtrace";
}

IngestOutcome HubServer::ingest(const Session& session) {
  DIOG_CHECK(session.finalized(),
             "hub: ingest of a non-finalized session spool");
  // The index is an append-only file, not a concurrent structure; one
  // writer at a time. Sessions already validated their bytes, so the
  // critical section is digest extraction + one line append.
  std::lock_guard<std::mutex> lock(ingest_mu_);
  archive::Archive ar(archive::ArchiveOptions{
      .root = opts_.archive_root,
      .config = opts_.config,
      .ingest_wall_ms = opts_.ingest_wall_ms,
  });
  const archive::Archive::AddResult added = ar.add(session.spool_path());
  const archive::RegressReport report =
      archive::check_workload(ar.index(), session.workload());
  IngestOutcome out;
  out.run_id = added.digest.run_id;
  out.deduplicated = added.deduplicated;
  out.drift_findings = report.findings.size();
  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("hub.ingested").inc();
    if (added.deduplicated) m.counter("hub.dedup").inc();
    if (report.drifted()) m.counter("hub.drift").inc();
  }
  // The archived object is the durable copy; the spool was scaffolding.
  std::error_code ec;
  std::filesystem::remove(session.spool_path(), ec);
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
      if (session.hello_done()) conn.first_message_done();
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
    conn.send_all(refusal(e.what()));
    throw;
  }
  conn.send_all(encode_response(resp));
}

}  // namespace diog::hub
