#include "eventstore/live_writer.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "eventstore/chunk_codec.h"
#include "eventstore/run_format.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "support/error.h"
#include "testkit/fault_plan.h"

namespace diog::evstore {

namespace {

using codec::put_bytes;
using codec::put_u32;

std::int64_t wall_clock_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

LiveRunWriter::LiveRunWriter(std::string path)
    : LiveRunWriter(std::move(path), Options{}) {}

LiveRunWriter::LiveRunWriter(std::string path, Options opts)
    : path_(std::move(path)), opts_(opts) {
  // Run files routinely target a fresh directory (`--trace-dir out/`);
  // create it on demand.
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(path_).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);

  if (testkit::fault_at("live_writer.open") != nullptr) {
    throw Error("cannot open run file for writing: " + path_ +
                " (injected fault)");
  }
  f_ = std::fopen(path_.c_str(), "wb+");
  DIOG_CHECK(f_ != nullptr, "cannot open run file for writing: " + path_);
  std::string header;
  put_bytes(header, format::kMagic, sizeof(format::kMagic));
  put_u32(header, kFormatVersion);
  put_u32(header, 0);  // reserved
  DIOG_CHECK(std::fwrite(header.data(), 1, header.size(), f_) ==
                 header.size(),
             "write failed for run file: " + path_);
  data_end_ = format::kHeaderBytes;
  flush(false);
}

LiveRunWriter::~LiveRunWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

void LiveRunWriter::flush(bool with_fsync) {
  DIOG_CHECK(std::fflush(f_) == 0, "flush failed for run file: " + path_);
  if (with_fsync) {
    DIOG_SPAN("evstore.save.fsync");
    if (testkit::fault_at("live_writer.fsync") != nullptr) {
      throw Error("fsync failed for run file: " + path_ + " (injected fault)");
    }
    DIOG_CHECK(::fsync(::fileno(f_)) == 0,
               "fsync failed for run file: " + path_);
  }
}

bool LiveRunWriter::write_chunk(const TraceRun& run, bool force) {
  const EventStore& store = *run.store;

  // Events evicted from the ring before this checkpoint could persist
  // them are gone; record the gap and continue from what is resident.
  const std::uint64_t first_avail = store.first_index();
  std::uint64_t chunk_first = next_event_;
  if (first_avail > chunk_first) {
    dropped_ += first_avail - chunk_first;
    chunk_first = first_avail;
  }
  const std::uint64_t total = store.total_appended();
  const std::uint64_t count = total - chunk_first;

  const StackDict& stacks = store.stacks();
  const std::uint32_t frame_count = stacks.frame_count();
  const std::uint32_t stack_count = stacks.stack_count();
  const std::uint32_t name_count = store.name_count();
  const bool new_dicts = frame_count > frames_written_ ||
                         stack_count > stacks_written_ ||
                         name_count > names_written_;

  RunMeta meta = run.meta;
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
  {
    DIOG_SPAN("evstore.save.encode");
    codec::encode_chunk_payload(arena_, store, meta_json, dicts, chunk_first,
                                count, chunk_first - first_avail);
  }
  const std::string& payload = arena_.payload;
  const std::string envelope = codec::encode_chunk_envelope(payload);

  DIOG_CHECK(std::fseek(f_, static_cast<long>(data_end_), SEEK_SET) == 0,
             "seek failed for run file: " + path_);
  const auto write_all = [&](const std::string& b) {
    if (const testkit::FaultSpec* spec =
            testkit::fault_at("live_writer.write.chunk")) {
      if (spec->action == testkit::FaultAction::kShortWrite) {
        // Model a torn write: some prefix reaches the file, then the
        // write reports failure (ENOSPC, a killed writer, ...).
        const std::size_t keep = std::min(
            b.size(), static_cast<std::size_t>(
                          std::max<std::int64_t>(0, spec->magnitude)));
        (void)std::fwrite(b.data(), 1, keep, f_);
        (void)std::fflush(f_);
      }
      throw Error("write failed for run file: " + path_ + " (injected fault)");
    }
    DIOG_CHECK(std::fwrite(b.data(), 1, b.size(), f_) == b.size(),
               "write failed for run file: " + path_);
  };
  {
    DIOG_SPAN("evstore.save.write");
    write_all(envelope);
    write_all(payload);
  }
  const std::string tail = codec::encode_chunk_checksum(payload);
  write_all(tail);
  // The chunk must be on disk (at least in the page cache, in order)
  // before the footer describes it.
  flush(opts_.fsync_checkpoints);

  data_end_ += envelope.size() + payload.size() + tail.size();
  next_event_ = total;
  frames_written_ = frame_count;
  stacks_written_ = stack_count;
  names_written_ = name_count;
  last_meta_ = meta_json;
  ++chunks_;

  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("evstore.live.chunks").inc();
    m.counter("evstore.live.chunk_bytes")
        .inc(envelope.size() + payload.size() + tail.size());
    m.counter("evstore.live.chunk_events").inc(count);
  }
  return true;
}

void LiveRunWriter::write_footer(bool final) {
  const std::int64_t wall_ms =
      opts_.footer_wall_ms >= 0 ? opts_.footer_wall_ms : wall_clock_ms();
  const std::string footer =
      codec::encode_footer(final, next_event_, chunks_, wall_ms);
  DIOG_CHECK(footer.size() == format::kFooterBytes,
             "internal: footer size mismatch");

  // Crash window 1: the chunk is flushed but the footer rewrite never
  // starts. The file must read back as a torn (non-clean) prefix that
  // still contains every checkpointed chunk.
  if (testkit::fault_at("live_writer.footer.before") != nullptr) {
    throw Error("checkpoint failed before footer rewrite: " + path_ +
                " (injected fault)");
  }
  DIOG_CHECK(std::fseek(f_, static_cast<long>(data_end_), SEEK_SET) == 0,
             "seek failed for run file: " + path_);
  // Crash window 2: the footer rewrite itself tears after `magnitude`
  // bytes. Same contract: readable prefix, never a lie.
  if (const testkit::FaultSpec* spec =
          testkit::fault_at("live_writer.footer.torn")) {
    const std::size_t keep = std::min(
        footer.size(), static_cast<std::size_t>(
                           std::max<std::int64_t>(0, spec->magnitude)));
    (void)std::fwrite(footer.data(), 1, keep, f_);
    (void)std::fflush(f_);
    throw Error("write failed for run file footer: " + path_ +
                " (injected torn footer)");
  }
  DIOG_CHECK(std::fwrite(footer.data(), 1, footer.size(), f_) ==
                 footer.size(),
             "write failed for run file: " + path_);
  flush(opts_.fsync_checkpoints);
}

void LiveRunWriter::do_checkpoint(const TraceRun& run, bool force,
                                  bool final) {
  const bool wrote = write_chunk(run, force || chunks_ == 0);
  if (!wrote && !force && !final) return;
  write_footer(final);
  ++checkpoints_;
  if (obs::Telemetry::enabled()) {
    obs::Telemetry::global().metrics().counter("evstore.live.checkpoints")
        .inc();
  }
}

void LiveRunWriter::checkpoint(const TraceRun& run, bool force) {
  if (finished_) return;
  do_checkpoint(run, force, /*final=*/false);
}

void LiveRunWriter::finish(const TraceRun& run) {
  if (finished_) return;
  do_checkpoint(run, /*force=*/true, /*final=*/true);
  finished_ = true;
  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("evstore.saved_runs").inc();
    m.counter("evstore.saved_bytes").inc(data_end_ - format::kHeaderBytes);
    // Segments flushed from the in-memory arena to disk.
    m.counter("evstore.spilled_segments").inc(run.store->segment_count());
  }
}

}  // namespace diog::evstore
