#include "hub/session.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "hub/protocol.h"
#include "obs/telemetry.h"
#include "support/error.h"
#include "testkit/fault_plan.h"

namespace diog::hub {

Session::Session(SessionOptions opts) : opts_(std::move(opts)) {
  DIOG_CHECK(!opts_.spool_path.empty(), "hub session: no spool path");
  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("hub.sessions").inc();
    m.gauge("hub.sessions_active").add(1);
  }
}

Session::~Session() {
  if (spool_ != nullptr) std::fclose(spool_);
  if (obs::Telemetry::enabled()) {
    obs::Telemetry::global().metrics().gauge("hub.sessions_active").add(-1);
  }
}

bool Session::finalized() const {
  return state_ == State::kRun && parser_.finalized();
}

void Session::feed(const unsigned char* data, std::size_t n) {
  DIOG_CHECK(state_ != State::kFailed,
             "hub session: feed after a protocol error");
  stats_.wire_bytes += n;
  if (obs::Telemetry::enabled()) {
    obs::Telemetry::global().metrics().counter("hub.bytes").inc(n);
  }
  pending_.insert(pending_.end(), data, data + n);
  spooled_this_feed_ = false;
  try {
    feed_frames();
    // Frames are validated as they complete, so whatever is left
    // pending is a single incomplete frame within the receive budget.
    pending_.erase(
        pending_.begin(),
        pending_.begin() + static_cast<std::ptrdiff_t>(pending_off_));
    pending_off_ = 0;
    DIOG_CHECK(pending_.size() <= opts_.max_pending_bytes + n,
               "hub session: pending buffer exceeded the receive budget");
    if (spooled_this_feed_) spool_sync();
  } catch (...) {
    state_ = State::kFailed;
    // Whatever validated before the error stays durable: the spool is a
    // readable prefix even when the stream turned hostile mid-frame.
    if (spool_ != nullptr) {
      (void)std::fflush(spool_);
    }
    throw;
  }
}

void Session::feed_frames() {
  for (;;) {
    const unsigned char* p = pending_.data() + pending_off_;
    const std::size_t avail = pending_.size() - pending_off_;
    if (state_ == State::kHello) {
      std::size_t consumed = 0;
      if (!parse_hello(p, avail, &consumed, &workload_)) return;
      pending_off_ += consumed;
      state_ = State::kRun;
      continue;
    }
    const std::size_t frame_len =
        parser_.accept(p, avail, opts_.max_pending_bytes);
    if (frame_len == 0) return;
    spool_append(p, frame_len);
    pending_off_ += frame_len;
    if (obs::Telemetry::enabled()) {
      auto& m = obs::Telemetry::global().metrics();
      m.counter("hub.chunks").inc(parser_.chunks() - stats_.chunks);
      m.counter("hub.events").inc(parser_.events() - stats_.events);
      m.counter("hub.dropped").inc(parser_.dropped() - stats_.dropped);
    }
    stats_.chunks = parser_.chunks();
    stats_.events = parser_.events();
    stats_.dropped = parser_.dropped();
  }
}

void Session::end_of_stream() {
  DIOG_CHECK(state_ != State::kFailed,
             "hub session: end_of_stream after a protocol error");
  if (state_ == State::kHello) {
    state_ = State::kFailed;
    throw Error("hub session: stream ended before the hello");
  }
  if (!parser_.header_seen()) {
    state_ = State::kFailed;
    throw Error("hub session: stream ended before the run header");
  }
  spool_close();
  if (!parser_.clean()) {
    // The torn-connection case: the spool stays behind as the readable
    // checkpointed prefix.
    state_ = State::kFailed;
    if (obs::Telemetry::enabled()) {
      obs::Telemetry::global().metrics().counter("hub.torn").inc();
    }
    throw Error("hub session: stream torn before a footer (spool keeps " +
                std::to_string(stats_.chunks) + " validated chunks)");
  }
  if (!parser_.finalized()) {
    state_ = State::kFailed;
    throw Error("hub session: stream ended without a finalized footer");
  }
}

void Session::spool_append(const unsigned char* data, std::size_t n) {
  if (spool_ == nullptr) {
    std::error_code ec;
    const std::filesystem::path parent =
        std::filesystem::path(opts_.spool_path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    spool_ = std::fopen(opts_.spool_path.c_str(), "wb");
    DIOG_CHECK(spool_ != nullptr,
               "cannot open hub spool: " + opts_.spool_path);
  }
  if (const testkit::FaultSpec* spec = testkit::fault_at("hub.spool.write")) {
    if (spec->action == testkit::FaultAction::kShortWrite) {
      // Model a torn spool write (ENOSPC, a killed server): some prefix
      // of the frame reaches the file, then the write reports failure.
      const std::size_t keep = std::min(
          n, static_cast<std::size_t>(
                 std::max<std::int64_t>(0, spec->magnitude)));
      (void)std::fwrite(data, 1, keep, spool_);
      (void)std::fflush(spool_);
    }
    throw Error("write failed for hub spool: " + opts_.spool_path +
                " (injected fault)");
  }
  DIOG_CHECK(std::fwrite(data, 1, n, spool_) == n,
             "write failed for hub spool: " + opts_.spool_path);
  stats_.spool_bytes += n;
  spooled_this_feed_ = true;
  if (obs::Telemetry::enabled()) {
    obs::Telemetry::global().metrics().counter("hub.spool_bytes").inc(n);
  }
}

void Session::spool_sync() {
  if (spool_ == nullptr) return;
  DIOG_CHECK(std::fflush(spool_) == 0,
             "flush failed for hub spool: " + opts_.spool_path);
  if (opts_.fsync_spool) {
    if (testkit::fault_at("hub.spool.fsync") != nullptr) {
      throw Error("fsync failed for hub spool: " + opts_.spool_path +
                  " (injected fault)");
    }
    DIOG_CHECK(::fsync(::fileno(spool_)) == 0,
               "fsync failed for hub spool: " + opts_.spool_path);
  }
}

void Session::spool_close() {
  if (spool_ == nullptr) return;
  spool_sync();
  std::fclose(spool_);
  spool_ = nullptr;
}

}  // namespace diog::hub
