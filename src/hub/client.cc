#include "hub/client.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>
#include <vector>

#include "eventstore/chunk_codec.h"
#include "eventstore/run_format.h"
#include "support/error.h"

namespace diog::hub {

namespace {

namespace fmt = evstore::format;
namespace codec = evstore::codec;

std::int64_t wall_clock_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

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
  if (opts.workload.empty()) {
    std::string stem = std::filesystem::path(path).filename().string();
    const std::string ext = ".dgtrace";
    if (stem.size() > ext.size() &&
        stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0) {
      stem.resize(stem.size() - ext.size());
    }
    opts.workload = stem;
  }
  std::ifstream in(path, std::ios::binary);
  DIOG_CHECK(in.good(), "cannot open run file: " + path);
  std::vector<unsigned char> buf;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    buf.insert(buf.end(), chunk, chunk + in.gcount());
  }
  return push_bytes(buf.data(), buf.size(), opts);
}

// --- HubSink -----------------------------------------------------------------

HubSink::HubSink(ClientOptions copts, Options opts)
    : opts_(opts), conn_(net::connect("hub", copts.host, copts.port)) {
  send_or_verdict(*conn_, encode_hello(copts.workload));
  std::string header;
  codec::put_bytes(header, fmt::kMagic, sizeof(fmt::kMagic));
  codec::put_u32(header, evstore::kFormatVersion);
  codec::put_u32(header, 0);  // reserved
  send_or_verdict(*conn_, header);
}

HubSink::~HubSink() = default;

// The LiveRunWriter high-water-mark discipline, pointed at the wire:
// one chunk per checkpoint carrying everything appended (and every
// dictionary entry interned) since the previous one. Returns false when
// there was nothing new and the checkpoint was not forced.
bool HubSink::send_delta_chunk(const evstore::TraceRun& run, bool force) {
  const evstore::EventStore& store = *run.store;
  const std::uint64_t first_avail = store.first_index();
  std::uint64_t chunk_first = next_event_;
  if (first_avail > chunk_first) {
    dropped_ += first_avail - chunk_first;
    chunk_first = first_avail;
  }
  const std::uint64_t total = store.total_appended();
  const std::uint64_t count = total - chunk_first;

  const evstore::StackDict& stacks = store.stacks();
  const std::uint32_t frame_count = stacks.frame_count();
  const std::uint32_t stack_count = stacks.stack_count();
  const std::uint32_t name_count = store.name_count();
  const bool new_dicts = frame_count > frames_written_ ||
                         stack_count > stacks_written_ ||
                         name_count > names_written_;

  evstore::RunMeta meta = run.meta;
  meta.dropped_events += dropped_;
  const std::string meta_json = meta.to_json().dump();

  if (count == 0 && !new_dicts && meta_json == last_meta_ && chunks_ > 0 &&
      !force) {
    return false;
  }

  const codec::DictRange dicts{.frames_from = frames_written_,
                               .frames_to = frame_count,
                               .stacks_from = stacks_written_,
                               .stacks_to = stack_count,
                               .names_from = names_written_,
                               .names_to = name_count};
  codec::encode_chunk_blob(arena_, store, meta_json, dicts, chunk_first,
                           count, chunk_first - first_avail);
  send_or_verdict(*conn_, arena_.blob);

  next_event_ = total;
  frames_written_ = frame_count;
  stacks_written_ = stack_count;
  names_written_ = name_count;
  last_meta_ = meta_json;
  ++chunks_;
  return true;
}

// The save_run layout for the whole resident store: same chunk_rows
// splits, full dictionaries on chunk 0, same meta on every chunk. Used
// by finish() when no checkpoint ever shipped, which makes the stream
// byte-identical to a local save_run of the same store.
void HubSink::send_save_layout(const evstore::TraceRun& run) {
  const evstore::EventStore& store = *run.store;
  const std::uint64_t chunk_rows = evstore::kSegmentRows;
  const std::uint64_t first_avail = store.first_index();
  const std::uint64_t n = store.size();
  const std::uint64_t chunks = n == 0 ? 1 : (n + chunk_rows - 1) / chunk_rows;

  dropped_ += first_avail - next_event_;
  evstore::RunMeta meta = run.meta;
  meta.dropped_events += dropped_;
  const std::string meta_json = meta.to_json().dump();

  const evstore::StackDict& stacks = store.stacks();
  const codec::DictRange all_dicts{.frames_from = 0,
                                   .frames_to = stacks.frame_count(),
                                   .stacks_from = 1,
                                   .stacks_to = stacks.stack_count(),
                                   .names_from = 1,
                                   .names_to = store.name_count()};
  for (std::uint64_t i = 0; i < chunks; ++i) {
    const std::uint64_t rel_first = i * chunk_rows;
    const std::uint64_t count = std::min<std::uint64_t>(chunk_rows, n - rel_first);
    codec::encode_chunk_blob(arena_, store, meta_json,
                             i == 0 ? all_dicts : codec::DictRange{},
                             first_avail + rel_first, count, rel_first);
    send_or_verdict(*conn_, arena_.blob);
  }

  next_event_ = first_avail + n;
  frames_written_ = stacks.frame_count();
  stacks_written_ = stacks.stack_count();
  names_written_ = store.name_count();
  last_meta_ = meta_json;
  chunks_ += chunks;
}

void HubSink::checkpoint(const evstore::TraceRun& run, bool force) {
  if (finished_) return;
  send_delta_chunk(run, force || chunks_ == 0);
}

void HubSink::finish(const evstore::TraceRun& run) {
  if (finished_) return;
  if (chunks_ == 0) {
    send_save_layout(run);
  } else {
    send_delta_chunk(run, /*force=*/true);
  }
  const std::int64_t wall_ms =
      opts_.footer_wall_ms >= 0 ? opts_.footer_wall_ms : wall_clock_ms();
  send_or_verdict(
      *conn_,
      codec::encode_footer(/*final=*/true, next_event_, chunks_, wall_ms),
      /*last=*/true);
  response_ = read_verdict(*conn_);
  conn_.reset();
  finished_ = true;
}

void register_tcp_sink() { evstore::set_sink_factory(&make_tcp_sink); }

}  // namespace diog::hub
