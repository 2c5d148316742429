#include "hub/client.h"

#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "eventstore/run_io.h"
#include "support/error.h"
#include "support/input_file.h"

namespace diog::hub {

namespace {

// Reads the server's single-line reply (connection closed after it).
HubResponse read_response(net::Conn& conn) {
  std::string line;
  char buf[4096];
  while (line.find('\n') == std::string::npos) {
    const std::size_t n = conn.recv_some(buf, sizeof buf);
    if (n == 0) break;
    line.append(buf, n);
  }
  if (line.empty()) throw Error("hub: connection closed before a response");
  return parse_response(line.substr(0, line.find('\n')));
}

Error rejection(const HubResponse& resp) {
  return Error("hub rejected the run: " + resp.error);
}

HubResponse read_verdict(net::Conn& conn) {
  const HubResponse resp = read_response(conn);
  if (!resp.ok) throw rejection(resp);
  return resp;
}

// Sends `bytes`, then half-closes when they are the last. A refusal
// arrives while the client may still be sending, so the send (or the
// half-close) fails; the verdict saying why is still readable, and wins.
void send_or_verdict(net::Conn& conn, std::string_view bytes,
                     bool last = false) {
  try {
    conn.send_all(bytes);
    if (last) conn.shutdown_write();
  } catch (const Error&) {
    std::optional<HubResponse> verdict;
    try {
      verdict = read_response(conn);
    } catch (const Error&) {  // nothing readable: the send error stands
    }
    if (verdict && !verdict->ok) throw rejection(*verdict);
    throw;
  }
}

std::unique_ptr<evstore::CheckpointSink> make_tcp_sink(
    const std::string& url, const std::string& workload) {
  return std::make_unique<HubSink>(parse_tcp_url(url, workload));
}

}  // namespace

ClientOptions parse_tcp_url(const std::string& url,
                            const std::string& workload) {
  const std::string scheme = "tcp://";
  if (url.rfind(scheme, 0) != 0) {
    throw Error("hub: unsupported sink URL (expected tcp://host:port): " +
                url);
  }
  const std::string rest = url.substr(scheme.size());
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= rest.size()) {
    throw Error("hub: sink URL has no port: " + url);
  }
  ClientOptions opts;
  opts.host = rest.substr(0, colon);
  char* end = nullptr;
  const unsigned long port = std::strtoul(rest.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
    throw Error("hub: sink URL has a bad port: " + url);
  }
  opts.port = static_cast<std::uint16_t>(port);
  opts.workload = workload;
  return opts;
}

HubResponse push_bytes(const unsigned char* data, std::size_t n,
                       const ClientOptions& opts) {
  net::Conn conn = net::connect("hub", opts.host, opts.port);
  send_or_verdict(conn, encode_hello(opts.workload));
  send_or_verdict(
      conn, std::string_view(reinterpret_cast<const char*>(data), n),
      /*last=*/true);
  return read_verdict(conn);
}

HubResponse push_run_file(const std::string& path, ClientOptions opts) {
  if (opts.workload.empty()) opts.workload = evstore::run_stem(path);
  const std::optional<std::string> bytes = support::read_file(path);
  DIOG_CHECK(bytes.has_value(), "cannot open run file: " + path);
  return push_bytes(reinterpret_cast<const unsigned char*>(bytes->data()),
                    bytes->size(), opts);
}

// --- HubSink -----------------------------------------------------------------

HubSink::HubSink(ClientOptions copts, Options opts)
    : conn_(net::connect("hub", copts.host, copts.port)),
      enc_(opts.footer_wall_ms),
      emit_([this](const std::string& chunk) {
        send_or_verdict(*conn_, chunk);
      }) {
  send_or_verdict(*conn_, encode_hello(copts.workload));
  send_or_verdict(*conn_, evstore::RunEncoder::header());
}

HubSink::~HubSink() = default;

void HubSink::checkpoint(const evstore::TraceRun& run, bool force) {
  if (finished_) return;
  enc_.checkpoint(run, force, emit_);
}

void HubSink::finish(const evstore::TraceRun& run) {
  if (finished_) return;
  enc_.finish(run, emit_);
  send_or_verdict(*conn_, enc_.footer(/*final=*/true), /*last=*/true);
  response_ = read_verdict(*conn_);
  conn_.reset();
  finished_ = true;
}

void register_tcp_sink() { evstore::set_sink_factory(&make_tcp_sink); }

}  // namespace diog::hub
