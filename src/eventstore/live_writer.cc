#include "eventstore/live_writer.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "eventstore/run_format.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "support/error.h"
#include "testkit/fault_plan.h"

namespace diog::evstore {

namespace {

// Models a torn write: the first `magnitude` bytes reach the file (a
// killed writer, ENOSPC, ...), then nothing more.
void write_prefix(std::FILE* f, const std::string& bytes,
                  std::int64_t magnitude) {
  const std::size_t keep = std::min(
      bytes.size(),
      static_cast<std::size_t>(std::max<std::int64_t>(0, magnitude)));
  (void)std::fwrite(bytes.data(), 1, keep, f);
  (void)std::fflush(f);
}

}  // namespace

LiveRunWriter::LiveRunWriter(std::string path)
    : LiveRunWriter(std::move(path), Options{}) {}

LiveRunWriter::LiveRunWriter(std::string path, Options opts)
    : path_(std::move(path)), opts_(opts), enc_(opts.footer_wall_ms) {
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
  const std::string header = RunEncoder::header();
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

void LiveRunWriter::write_chunk(const std::string& chunk) {
  DIOG_SPAN("evstore.save.write");
  DIOG_CHECK(std::fseek(f_, static_cast<long>(data_end_), SEEK_SET) == 0,
             "seek failed for run file: " + path_);
  if (const testkit::FaultSpec* spec =
          testkit::fault_at("live_writer.write.chunk")) {
    if (spec->action == testkit::FaultAction::kShortWrite) {
      write_prefix(f_, chunk, spec->magnitude);
    }
    throw Error("write failed for run file: " + path_ + " (injected fault)");
  }
  DIOG_CHECK(std::fwrite(chunk.data(), 1, chunk.size(), f_) == chunk.size(),
             "write failed for run file: " + path_);
  data_end_ += chunk.size();
  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("evstore.live.chunks").inc();
    m.counter("evstore.live.chunk_bytes").inc(chunk.size());
  }
}

void LiveRunWriter::write_footer(bool final) {
  const std::string footer = enc_.footer(final);
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
    write_prefix(f_, footer, spec->magnitude);
    throw Error("write failed for run file footer: " + path_ +
                " (injected torn footer)");
  }
  DIOG_CHECK(std::fwrite(footer.data(), 1, footer.size(), f_) ==
                 footer.size(),
             "write failed for run file: " + path_);
  flush(opts_.fsync_checkpoints);
}

void LiveRunWriter::commit(bool final, std::uint64_t shipped_before) {
  // The chunks must be on disk (at least in the page cache, in order)
  // before the footer describes them.
  flush(opts_.fsync_checkpoints);
  write_footer(final);
  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("evstore.live.chunk_events")
        .inc(enc_.events() - enc_.dropped() - shipped_before);
    m.counter("evstore.live.checkpoints").inc();
  }
}

void LiveRunWriter::checkpoint(const TraceRun& run, bool force) {
  if (finished_) return;
  const std::uint64_t shipped = enc_.events() - enc_.dropped();
  if (enc_.checkpoint(run, force, emit_)) commit(/*final=*/false, shipped);
}

void LiveRunWriter::finish(const TraceRun& run) {
  if (finished_) return;
  const std::uint64_t shipped = enc_.events() - enc_.dropped();
  enc_.finish(run, emit_);
  commit(/*final=*/true, shipped);
  finished_ = true;
  if (obs::Telemetry::enabled()) {
    auto& m = obs::Telemetry::global().metrics();
    m.counter("evstore.saved_runs").inc();
    // The file size minus the header: every chunk plus the footer.
    m.counter("evstore.saved_bytes")
        .inc(data_end_ + format::kFooterBytes - format::kHeaderBytes);
    // Segments flushed from the in-memory arena to disk.
    m.counter("evstore.spilled_segments").inc(run.store->segment_count());
  }
}

}  // namespace diog::evstore
