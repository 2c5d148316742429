// One client's ingest session: hello, then the run stream (header ->
// chunks -> footer).
//
// A Session consumes raw wire bytes and applies the validate-then-spool
// discipline. It parses the hello itself and hands every later byte to
// an evstore::StreamParser, which decodes frames with the same decoder
// and chunk parser open_run uses and accepts a frame only once it is
// complete and valid. The Session appends exactly the accepted bytes to
// the per-session spool file, so the spool contains nothing but
// validated complete frames and is, at every instant, a readable
// run-file prefix. A torn connection therefore leaves exactly what a
// SIGKILL'd LiveRunWriter leaves, and open_run classifies both
// identically.
//
// The Session keeps the run it decoded (run(), info()), so ingest
// digests it instead of decoding the spool a second time.
//
// Backpressure: the pending buffer never holds more than one announced
// frame (the parser refuses any frame beyond the receive budget from its
// 12-byte prefix), and the server reads the socket only between feed()
// calls. A peer that announces an oversized frame gets a classified
// error, never unbounded memory.
//
// Fault sites (testkit/fault_plan.h): "hub.spool.write" (supports
// kShortWrite: a torn spool write), "hub.spool.fsync". The socket-side
// sites ("hub.accept", "hub.session.read") live in server.cc.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "eventstore/run_io.h"

namespace diog::hub {

struct SessionOptions {
  std::string spool_path;
  // Bound on buffered unvalidated bytes, and thus on any single frame a
  // peer may announce. Exceeding it is a classified protocol error.
  std::size_t max_pending_bytes = 64ull << 20;
  // fsync the spool after every feed() that appended a frame, so the
  // validated prefix survives power loss, not just process death.
  bool fsync_spool = true;
};

// Per-session accounting, mirrored into the obs registry as it accrues
// (hub.bytes / hub.chunks / hub.events / hub.dropped / hub.spool_bytes).
struct SessionStats {
  std::uint64_t wire_bytes = 0;   // bytes fed (hello + run stream)
  std::uint64_t spool_bytes = 0;  // validated bytes written to the spool
  std::uint64_t chunks = 0;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;  // ring-evicted gaps declared by the chunks
};

class Session {
 public:
  explicit Session(SessionOptions opts);
  // Closes the spool without finalizing anything — deliberately: an
  // error-path destruction must leave the same readable prefix a torn
  // connection would.
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Feeds raw wire bytes; validates every complete frame and appends it
  // to the spool (fsync'd once per feed that spooled anything). Throws
  // diog::Error on any protocol violation; after a throw the spool
  // keeps the validated prefix and the session refuses further bytes.
  void feed(const unsigned char* data, std::size_t n);

  // Clean end-of-stream (the peer shut down its write side). Flushes
  // and closes the spool. Throws diog::Error unless a footer with the
  // finalized flag arrived and nothing trailed it.
  void end_of_stream();

  [[nodiscard]] bool hello_done() const { return state_ > State::kHello; }
  // Empty until the hello parses.
  [[nodiscard]] const std::string& workload() const { return workload_; }
  // A final footer arrived and validated.
  [[nodiscard]] bool finalized() const;
  [[nodiscard]] bool failed() const { return state_ == State::kFailed; }
  [[nodiscard]] const SessionStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& spool_path() const {
    return opts_.spool_path;
  }
  // The decoded run and what open_run would report for the spool; for
  // ingest, once end_of_stream() has returned.
  [[nodiscard]] const evstore::TraceRun& run() const { return parser_.run(); }
  [[nodiscard]] evstore::RunFileInfo info() const { return parser_.info(); }

 private:
  // After the hello, the parser tracks the run stream's progress.
  enum class State { kHello, kRun, kFailed };

  void feed_frames();
  void spool_append(const unsigned char* data, std::size_t n);
  void spool_sync();
  void spool_close();

  SessionOptions opts_;
  State state_ = State::kHello;
  std::string workload_;
  std::vector<unsigned char> pending_;
  std::size_t pending_off_ = 0;  // consumed prefix of pending_
  evstore::StreamParser parser_;
  std::FILE* spool_ = nullptr;
  bool spooled_this_feed_ = false;
  SessionStats stats_;
};

}  // namespace diog::hub
