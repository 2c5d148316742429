// Client half of the trace hub: one-shot uploads (`diogenes push`) and
// the flight recorder's streaming HubSink (`--live --sink tcp://...`).
//
// push_* sends bytes verbatim — the wire format is the file format, so
// uploading a saved run re-archives the exact same object id a local
// `archive add` would have produced, and re-pushing dedups for free.
//
// HubSink implements eventstore/sink.h over one TCP connection. It is
// the wire target of the same RunEncoder (eventstore/chunk_codec.h) a
// LiveRunWriter writes through: each recorder checkpoint ships
// everything new since the previous one as a sealed chunk, and finish()
// seals the stream with the final footer, then waits for the server's
// ingest verdict. Unlike the file writer there are no
// intermediate footers — a byte stream cannot seek — so a connection
// torn mid-run leaves the server a torn (footerless) prefix, which is
// exactly what a SIGKILL'd local writer leaves. When finish() is the
// first thing that ships data (a run with no intermediate checkpoints),
// the stream is byte-identical to save_run of the same store.
// Both block the calling thread on the socket core (net/). A hub that
// refuses a stream still being sent makes the send fail (EPIPE/RST);
// the client then reads the refusal and throws that, not the reset.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "eventstore/chunk_codec.h"
#include "eventstore/run.h"
#include "eventstore/sink.h"
#include "hub/protocol.h"
#include "net/socket.h"

namespace diog::hub {

struct ClientOptions {
  std::string host = "127.0.0.1";  // numeric IPv4
  std::uint16_t port = 0;
  std::string workload;
};

// Parses "tcp://host:port" into ClientOptions (workload attached).
// Throws diog::Error on any other shape.
ClientOptions parse_tcp_url(const std::string& url,
                            const std::string& workload);

// One-shot upload: hello, the bytes verbatim, shutdown, read the
// verdict. Throws diog::Error on connection failure or a server-side
// error response.
HubResponse push_bytes(const unsigned char* data, std::size_t n,
                       const ClientOptions& opts);
// Reads the file and pushes its bytes. When opts.workload is empty it
// defaults to the file's basename minus ".dgtrace".
HubResponse push_run_file(const std::string& path, ClientOptions opts);

class HubSink : public evstore::CheckpointSink {
 public:
  struct Options {
    // Footer wall-clock override (ms since epoch); -1 stamps the real
    // clock. Pin it to make the streamed bytes reproducible.
    std::int64_t footer_wall_ms = -1;
  };

  // Connects and sends hello + the run header immediately, so even a
  // sink torn before its first checkpoint leaves a classifiable spool.
  explicit HubSink(ClientOptions copts) : HubSink(std::move(copts), Options()) {}
  HubSink(ClientOptions copts, Options opts);
  // Closing without finish() tears the connection: no footer, and the
  // server keeps the checkpointed prefix — the crash contract.
  ~HubSink() override;

  void checkpoint(const evstore::TraceRun& run, bool force) override;
  // Ships the remaining events and the final footer, then blocks for
  // the server's verdict; throws diog::Error when the hub rejects the
  // run. Idempotent.
  void finish(const evstore::TraceRun& run) override;

  [[nodiscard]] bool finished() const { return finished_; }
  // The ingest verdict; only meaningful after finish() returned.
  [[nodiscard]] const HubResponse& response() const { return response_; }
  [[nodiscard]] std::uint64_t chunks_sent() const { return enc_.chunks(); }

 private:
  std::optional<net::Conn> conn_;  // reset once finish() has the verdict
  bool finished_ = false;
  HubResponse response_;
  // The same encoder a LiveRunWriter writes through, pointed at the
  // wire: the streamed bytes are file bytes by construction.
  evstore::RunEncoder enc_;
  evstore::RunEncoder::Emit emit_;  // sends one chunk frame
};

// Registers the sink factory for tcp:// URLs (eventstore/sink.h), so
// `--sink tcp://host:port` resolves without core linking this module.
void register_tcp_sink();

}  // namespace diog::hub
