// The trace hub daemon: concurrent streaming ingestion into the fleet
// archive over loopback TCP.
//
// Thread model: the socket core (net/) runs each connection on its own
// thread, bounded by max_clients (beyond it: a classified "at capacity"
// error line). The hello must complete within net::kFirstMessageDeadline;
// after it there is no idle limit, since a --sink stream is quiet
// between checkpoints. Sessions are independent — each owns its spool
// file and the obs registry is thread-safe — except for the final ingest
// step, which serializes on one mutex: the server's one Archive (its
// index read incrementally, not thread-safe) digests the run the session
// already decoded and appends one index line, then the regression
// sentinel reads the index. The session/ingest half is socket-free, so
// tests drive it directly.
//
// Per-push histograms: hub.push_ns (hello to verdict) and
// hub.ingest_ns (the ingest critical section).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "archive/archive.h"
#include "core/tool_config.h"
#include "hub/session.h"
#include "net/socket.h"

namespace diog::hub {

struct ServerOptions {
  std::string archive_root;
  // Analysis configuration for archive ingestion (digest extraction).
  ffm::ToolConfig config;
  std::uint16_t port = 0;  // 0 = ephemeral (report via port())
  std::size_t max_clients = 8;
  // Per-session spool files land here; default <archive_root>/spool.
  std::string spool_dir;
  // Ingest wall-clock override (ms since epoch); -1 stamps the real
  // clock. Pin it for byte-identical index lines (archive.h contract).
  std::int64_t ingest_wall_ms = -1;
  std::size_t max_pending_bytes = 64ull << 20;
  bool fsync_spool = true;
};

struct IngestOutcome {
  std::string run_id;
  bool deduplicated = false;
  std::uint64_t drift_findings = 0;
};

class HubServer {
 public:
  explicit HubServer(ServerOptions opts);
  ~HubServer();
  HubServer(const HubServer&) = delete;
  HubServer& operator=(const HubServer&) = delete;

  // Socket half. bind() throws on a taken port; serve() blocks until
  // stop(), which waits for in-flight sessions to drain.
  void bind();
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  void serve();
  void stop();

  // The spool path for the next session. Public so tests can drive
  // Sessions through the exact path the daemon uses, without sockets.
  std::string next_spool_path();

  // Ingests a finalized session's spool into the archive and runs the
  // regression sentinel for its workload; removes the spool on success
  // (the archived object is the durable copy). Throws diog::Error when
  // the session is not finalized or the archive rejects the file.
  IngestOutcome ingest(const Session& session);

  [[nodiscard]] const ServerOptions& options() const { return opts_; }

 private:
  void handle_connection(net::Conn& conn);

  ServerOptions opts_;
  std::mutex ingest_mu_;
  archive::Archive archive_;  // guarded by ingest_mu_
  std::atomic<std::uint64_t> session_seq_{0};
  net::Server server_;  // last: destroyed (drained) first
};

}  // namespace diog::hub
