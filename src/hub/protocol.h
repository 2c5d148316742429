// Wire protocol of the trace hub (`diogenes serve`), schema
// diogenes.hub.v1.
//
// The deliberate design decision is that there is almost no protocol:
// after a tiny hello frame, the client sends a .dgtrace byte stream
// — the exact bytes save_run or a LiveRunWriter would put in a file —
// and the server spools the validated frames verbatim. The wire format
// IS the file format, so a completed stream is a valid run file, a torn
// connection leaves the same readable prefix a SIGKILL'd writer leaves,
// and byte-identity between an archived upload and a local save is a
// structural property rather than a test aspiration.
//
//   client -> server:  hello | .dgtrace header | chunk* | footer
//   client:            shutdown(SHUT_WR)
//   server -> client:  one JSON line (ingest result or classified error)
//
//   hello:  u32 magic "DHLO" | u32 json_len |
//           {"schema":"diogenes.hub.v1","workload":"<name>"}
//
// Frames are delimited by the run format itself (length-prefixed chunk
// envelopes, fixed-size header/footer records), so the hub needs no
// extra framing layer: evstore::StreamParser reads them with the run
// reader's own frame decoder. The backpressure rule is simple: never
// buffer more than one announced frame (bounded by the session receive
// budget); stop reading until it validates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace diog::hub {

inline constexpr char kSchemaId[] = "diogenes.hub.v1";
// Little-endian "DHLO".
inline constexpr std::uint32_t kHelloMagic = 0x4F4C4844u;
inline constexpr std::size_t kMaxHelloBytes = 64 * 1024;
inline constexpr std::size_t kMaxWorkloadChars = 128;

// Workload names become spool/archive file names; restrict to the same
// url- and filename-safe alphabet the explorer's history endpoint uses.
bool workload_name_ok(const std::string& name);

// Encodes the hello frame for `workload` (validated).
std::string encode_hello(const std::string& workload);

// Incremental hello parse over a receive buffer. Returns false while
// more bytes are needed; on true fills *consumed and *workload. Throws
// diog::Error on a malformed hello (bad magic, oversized, wrong schema,
// unusable workload name).
bool parse_hello(const unsigned char* data, std::size_t n,
                 std::size_t* consumed, std::string* workload);

// The server's one-line JSON reply (newline-terminated on the wire).
struct HubResponse {
  bool ok = false;
  std::string error;   // when !ok: the classified Error text
  std::string run_id;  // when ok: archive id of the ingested run
  bool deduplicated = false;
  std::uint64_t events = 0;
  std::uint64_t chunks = 0;
  std::uint64_t dropped = 0;
  std::uint64_t drift_findings = 0;
};

std::string encode_response(const HubResponse& r);
// Throws diog::Error on anything that is not a diogenes.hub.v1 reply.
HubResponse parse_response(const std::string& line);

}  // namespace diog::hub
