// The trace hub (ISSUE 9): protocol units, session streaming semantics,
// the torn-stream matrix, and the socket end-to-end path.
//
// The property under test throughout is the wire-format-is-the-file-
// format invariant: a completed stream IS a valid run file, a torn
// connection leaves exactly the readable prefix a SIGKILL'd local
// writer leaves, and an archived upload is byte-identical to a local
// save of the same store. The session half runs without sockets (the
// daemon's exact code path, driven directly); the loopback tests cover
// the accept/read/respond plumbing, concurrent ingestion, and the socket
// core's rules: the hello deadline, the capacity verdict, and accept at
// the descriptor limit.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.h"
#include "core/diogenes.h"
#include "core/flight_recorder.h"
#include "core/report.h"
#include "core/tool_config.h"
#include "eventstore/event_store.h"
#include "eventstore/live_writer.h"
#include "eventstore/run_format.h"
#include "eventstore/run_io.h"
#include "eventstore/sink.h"
#include "hub/client.h"
#include "hub/protocol.h"
#include "hub/server.h"
#include "hub/session.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "support/error.h"
#include "testkit/dgtrace_builder.h"
#include "testkit/synth_run.h"

namespace diog::hub {
namespace {

namespace fs = std::filesystem;
namespace fmt = evstore::format;

std::vector<unsigned char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

std::uint64_t hub_counter(const char* name) {
  return obs::Telemetry::global().metrics().counter(name).value();
}

class HubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("diog_hub_") + info->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // A deterministic run with a pinned save: the byte-identity baseline.
  evstore::TraceRun make_run(std::uint64_t events,
                             const std::string& workload) {
    testkit::SynthRunOptions so;
    so.events = events;
    evstore::TraceRun run = testkit::make_synthetic_run(so);
    run.meta.workload = workload;
    return run;
  }

  std::vector<unsigned char> pinned_save_bytes(const evstore::TraceRun& run,
                                               const std::string& name) {
    const std::string path = dir_ + "/" + name;
    evstore::SaveOptions so;
    so.footer_wall_ms = 0;
    evstore::save_run(path, run, so);
    return read_bytes(path);
  }

  // Streams hello + `bytes` into a fresh session in fixed-size slices.
  // Returns the session for inspection; throws whatever feed() throws.
  std::unique_ptr<Session> stream_session(
      const std::vector<unsigned char>& bytes, const std::string& spool,
      std::size_t step = 799, std::size_t max_pending = 64ull << 20,
      const std::string& hello_workload = "hubtest") {
    SessionOptions sopts;
    sopts.spool_path = spool;
    sopts.max_pending_bytes = max_pending;
    sopts.fsync_spool = false;
    auto session = std::make_unique<Session>(std::move(sopts));
    const std::string hello = encode_hello(hello_workload);
    session->feed(reinterpret_cast<const unsigned char*>(hello.data()),
                  hello.size());
    for (std::size_t off = 0; off < bytes.size(); off += step) {
      session->feed(bytes.data() + off,
                    std::min(step, bytes.size() - off));
    }
    return session;
  }

  std::string dir_;
};

// --- Protocol units ----------------------------------------------------------

TEST_F(HubTest, HelloRoundTrips) {
  const std::string hello = encode_hello("cumf_als");
  std::size_t consumed = 0;
  std::string workload;
  // Incremental: every strict prefix wants more bytes.
  for (std::size_t n = 0; n < hello.size(); ++n) {
    EXPECT_FALSE(parse_hello(
        reinterpret_cast<const unsigned char*>(hello.data()), n, &consumed,
        &workload));
  }
  ASSERT_TRUE(parse_hello(reinterpret_cast<const unsigned char*>(hello.data()),
                          hello.size(), &consumed, &workload));
  EXPECT_EQ(consumed, hello.size());
  EXPECT_EQ(workload, "cumf_als");
}

TEST_F(HubTest, HelloRejectsHostileFrames) {
  // Wrong magic.
  std::string bad = encode_hello("x");
  bad[0] = 'Z';
  std::size_t consumed = 0;
  std::string workload;
  EXPECT_THROW(parse_hello(reinterpret_cast<const unsigned char*>(bad.data()),
                           bad.size(), &consumed, &workload),
               Error);
  // Absurd announced length must be rejected from the fixed prefix
  // alone, before any buffering happens.
  unsigned char huge[8];
  std::memcpy(huge, &kHelloMagic, 4);
  const std::uint32_t len = 1u << 30;
  std::memcpy(huge + 4, &len, 4);
  EXPECT_THROW(parse_hello(huge, sizeof huge, &consumed, &workload), Error);
  // Wrong schema id.
  const std::string wrong_schema =
      "{\"schema\":\"diogenes.hub.v0\",\"workload\":\"x\"}";
  std::string frame;
  frame.append(reinterpret_cast<const char*>(&kHelloMagic), 4);
  const std::uint32_t wlen = static_cast<std::uint32_t>(wrong_schema.size());
  frame.append(reinterpret_cast<const char*>(&wlen), 4);
  frame += wrong_schema;
  EXPECT_THROW(
      parse_hello(reinterpret_cast<const unsigned char*>(frame.data()),
                  frame.size(), &consumed, &workload),
      Error);
}

TEST_F(HubTest, WorkloadNamesAreFilenameSafe) {
  EXPECT_TRUE(workload_name_ok("cumf_als"));
  EXPECT_TRUE(workload_name_ok("run-2.1"));
  EXPECT_FALSE(workload_name_ok(""));
  EXPECT_FALSE(workload_name_ok("."));
  EXPECT_FALSE(workload_name_ok(".."));
  EXPECT_FALSE(workload_name_ok("a/b"));
  EXPECT_FALSE(workload_name_ok("a b"));
  EXPECT_FALSE(workload_name_ok(std::string(kMaxWorkloadChars + 1, 'a')));
  EXPECT_THROW(encode_hello("a/b"), Error);
}

TEST_F(HubTest, FrameDecoderClassifiesChunkAndFooter) {
  using Kind = evstore::Frame::Kind;
  const testkit::Bytes chunk = testkit::make_chunk(testkit::ChunkParams{});
  // Every strict prefix: need more, with the announced size once the
  // 12-byte prefix is in.
  for (std::size_t n = 0; n < chunk.size(); ++n) {
    const evstore::Frame f = evstore::read_frame(chunk.data(), n, 0);
    EXPECT_EQ(f.kind, Kind::kNeedMore);
    EXPECT_EQ(f.size, n < 12 ? 0u : chunk.size());
  }
  const evstore::Frame c = evstore::read_frame(chunk.data(), chunk.size(), 0);
  EXPECT_EQ(c.kind, Kind::kChunk);
  EXPECT_EQ(c.size, chunk.size());
  EXPECT_EQ(c.payload, chunk.data() + 12);
  EXPECT_EQ(c.payload_len, chunk.size() - fmt::kChunkEnvelopeBytes);

  const testkit::Bytes footer = testkit::make_footer(true, 0, 1, 77);
  ASSERT_EQ(footer.size(), fmt::kFooterBytes);
  EXPECT_EQ(evstore::read_frame(footer.data(), footer.size() - 1, 0).kind,
            Kind::kNeedMore);
  const evstore::Frame f =
      evstore::read_frame(footer.data(), footer.size(), 0);
  EXPECT_EQ(f.kind, Kind::kFooter);
  EXPECT_EQ(f.size, static_cast<std::uint64_t>(fmt::kFooterBytes));
  EXPECT_TRUE(f.footer.finalized);
  EXPECT_EQ(f.footer.events, 0u);
  EXPECT_EQ(f.footer.chunks, 1u);
  EXPECT_EQ(f.footer.wall_ms, 77);
}

TEST_F(HubTest, FrameDecoderRejectsUnknownMagicAndOversizedFrames) {
  using Kind = evstore::Frame::Kind;
  const unsigned char junk[12] = {'J', 'U', 'N', 'K', 0, 0, 0, 0, 0, 0, 0, 0};
  const evstore::Frame bad = evstore::read_frame(junk, sizeof junk, 0);
  EXPECT_EQ(bad.kind, Kind::kMalformed);
  EXPECT_FALSE(bad.corrupt);  // a file tail may hold stale bytes

  unsigned char huge[12];
  std::memcpy(huge, &fmt::kChunkMagic, 4);
  const std::uint64_t len = 1ull << 41;
  std::memcpy(huge + 4, &len, 8);
  const evstore::Frame implausible = evstore::read_frame(huge, sizeof huge, 0);
  EXPECT_EQ(implausible.kind, Kind::kMalformed);
  EXPECT_NE(implausible.reason.find("implausible chunk length"),
            std::string::npos)
      << implausible.reason;

  // On a stream both are violations.
  const testkit::Bytes header = testkit::make_header();
  for (const unsigned char* frame : {junk, static_cast<const unsigned char*>(huge)}) {
    evstore::StreamParser parser;
    ASSERT_EQ(parser.accept(header.data(), header.size(), 1u << 20),
              fmt::kHeaderBytes);
    EXPECT_THROW(parser.accept(frame, 12, 1u << 20), Error);
  }

  // The backpressure rule: an announced frame beyond the receive budget
  // is refused from its 12-byte prefix, before any payload is buffered.
  const testkit::Bytes chunk = testkit::make_chunk(testkit::ChunkParams{});
  evstore::StreamParser parser;
  ASSERT_EQ(parser.accept(header.data(), header.size(), 32),
            fmt::kHeaderBytes);
  try {
    parser.accept(chunk.data(), 12, /*budget=*/32);
    FAIL() << "oversized frame accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("receive budget"), std::string::npos)
        << e.what();
  }
}

TEST_F(HubTest, ResponseRoundTrips) {
  HubResponse ok;
  ok.ok = true;
  ok.run_id = "abc123";
  ok.deduplicated = true;
  ok.events = 42;
  ok.chunks = 3;
  ok.dropped = 7;
  ok.drift_findings = 1;
  const std::string line = encode_response(ok);
  EXPECT_EQ(line.back(), '\n');
  const HubResponse back = parse_response(line.substr(0, line.size() - 1));
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.run_id, "abc123");
  EXPECT_TRUE(back.deduplicated);
  EXPECT_EQ(back.events, 42u);
  EXPECT_EQ(back.chunks, 3u);
  EXPECT_EQ(back.dropped, 7u);
  EXPECT_EQ(back.drift_findings, 1u);

  HubResponse err;
  err.ok = false;
  err.error = "hub session: stream torn before a footer";
  const std::string eline = encode_response(err);
  const HubResponse eback = parse_response(eline.substr(0, eline.size() - 1));
  EXPECT_FALSE(eback.ok);
  EXPECT_EQ(eback.error, err.error);

  EXPECT_THROW(parse_response("not json"), Error);
  EXPECT_THROW(parse_response("{\"schema\":\"other\"}"), Error);
}

// --- Session streaming -------------------------------------------------------

TEST_F(HubTest, SessionSpoolsACleanStreamByteForByte) {
  const evstore::TraceRun run = make_run(3000, "clean_wl");
  const std::vector<unsigned char> bytes = pinned_save_bytes(run, "local.dgtrace");
  const std::string spool = dir_ + "/spool.dgtrace";
  auto session = stream_session(bytes, spool);
  session->end_of_stream();

  EXPECT_TRUE(session->finalized());
  EXPECT_FALSE(session->failed());
  EXPECT_EQ(session->workload(), "hubtest");
  EXPECT_EQ(session->stats().events, 3000u);
  EXPECT_EQ(session->stats().spool_bytes, bytes.size());
  // The spool is the stream is the file: byte-identical to the save.
  EXPECT_EQ(read_bytes(spool), bytes);

  evstore::RunFileInfo info;
  const evstore::TraceRun round =
      evstore::open_run(spool, evstore::ReadMode::kAuto, &info);
  EXPECT_TRUE(info.clean);
  EXPECT_TRUE(info.finalized);
  EXPECT_EQ(round.store->size(), 3000u);
}

TEST_F(HubTest, SessionByteAtATimeStillLandsIdentical) {
  const evstore::TraceRun run = make_run(200, "slow_wl");
  const std::vector<unsigned char> bytes = pinned_save_bytes(run, "local.dgtrace");
  const std::string spool = dir_ + "/spool.dgtrace";
  auto session = stream_session(bytes, spool, /*step=*/1);
  session->end_of_stream();
  EXPECT_TRUE(session->finalized());
  EXPECT_EQ(read_bytes(spool), bytes);
}

// The torn-stream matrix: kill the client mid-chunk, between chunks, and
// mid-footer. In every case the spool must classify exactly as open_run
// classifies a local file truncated at the same point — the crash
// contract, transplanted onto the wire.
TEST_F(HubTest, TornStreamMatrixMatchesLocalTruncation) {
  const evstore::TraceRun run = make_run(3000, "torn_wl");
  const std::vector<unsigned char> bytes = pinned_save_bytes(run, "local.dgtrace");
  const testkit::FileShape shape =
      testkit::scan_shape(testkit::Bytes(bytes.begin(), bytes.end()));
  ASSERT_TRUE(shape.has_footer);
  ASSERT_GE(shape.chunks.size(), 1u);

  struct Cut {
    const char* name;
    std::size_t at;
  };
  const std::size_t chunk0_end =
      shape.chunks[0].offset + fmt::kChunkEnvelopeBytes +
      static_cast<std::size_t>(shape.chunks[0].payload_len);
  const std::vector<Cut> cuts = {
      {"mid_first_chunk", shape.chunks[0].offset + 25},
      {"between_chunks", chunk0_end},
      {"mid_footer", shape.footer_offset + fmt::kFooterBytes / 2},
  };
  for (const Cut& cut : cuts) {
    SCOPED_TRACE(cut.name);
    const std::vector<unsigned char> torn(bytes.begin(),
                                          bytes.begin() + cut.at);
    // Local ground truth: the same truncation as a file.
    const std::string local = dir_ + "/" + cut.name + ".dgtrace";
    {
      std::ofstream out(local, std::ios::binary);
      out.write(reinterpret_cast<const char*>(torn.data()),
                static_cast<std::streamsize>(torn.size()));
    }
    evstore::RunFileInfo file_info;
    (void)evstore::open_run(local, evstore::ReadMode::kAuto, &file_info);

    const std::string spool = dir_ + "/" + cut.name + ".spool.dgtrace";
    auto session = stream_session(torn, spool);
    EXPECT_THROW(session->end_of_stream(), Error);
    EXPECT_TRUE(session->failed());
    EXPECT_FALSE(session->finalized());

    evstore::RunFileInfo spool_info;
    (void)evstore::open_run(spool, evstore::ReadMode::kAuto, &spool_info);
    EXPECT_EQ(spool_info.clean, file_info.clean);
    EXPECT_EQ(spool_info.finalized, file_info.finalized);
    EXPECT_EQ(spool_info.events, file_info.events);
    EXPECT_EQ(spool_info.chunks, file_info.chunks);
    EXPECT_EQ(spool_info.dropped_before_checkpoint,
              file_info.dropped_before_checkpoint);
  }
}

// The committed regression inputs (tests/data/dgtrace/regression): the
// hub_torn_* matrix must load as prefixes when streamed, and the
// malformed suite must be rejected with a classified error — with the
// spool always left openable.
TEST_F(HubTest, RegressionInputsClassifyAndNeverCorruptTheSpool) {
  const fs::path reg = fs::path(DIOG_TEST_DATA_DIR) / "dgtrace" / "regression";
  ASSERT_TRUE(fs::is_directory(reg));
  std::size_t seen = 0;
  for (const auto& entry : fs::directory_iterator(reg)) {
    if (entry.path().extension() != ".dgtrace") continue;
    SCOPED_TRACE(entry.path().filename().string());
    ++seen;
    const std::vector<unsigned char> bytes = read_bytes(entry.path().string());
    const std::string spool =
        dir_ + "/" + entry.path().filename().string() + ".spool";
    bool rejected = false;
    std::unique_ptr<Session> session;
    try {
      session = stream_session(bytes, spool, /*step=*/61);
      session->end_of_stream();
    } catch (const Error&) {
      rejected = true;
    }
    if (!rejected) {
      EXPECT_TRUE(session->finalized());
    }
    if (fs::exists(spool)) {
      // Validate-then-spool: whatever the wire did, the spool opens.
      evstore::RunFileInfo info;
      EXPECT_NO_THROW(
          (void)evstore::open_run(spool, evstore::ReadMode::kAuto, &info));
    }
  }
  EXPECT_GE(seen, 9u);
}

TEST_F(HubTest, SessionRejectsBytesAfterTheFinalFooter) {
  const evstore::TraceRun run = make_run(100, "tail_wl");
  std::vector<unsigned char> bytes = pinned_save_bytes(run, "local.dgtrace");
  const std::size_t clean_size = bytes.size();
  const unsigned char junk[] = {1, 2, 3, 4};
  bytes.insert(bytes.end(), junk, junk + sizeof junk);
  const std::string spool = dir_ + "/spool.dgtrace";
  try {
    auto session = stream_session(bytes, spool);
    FAIL() << "bytes after the footer accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("after the final footer"),
              std::string::npos)
        << e.what();
  }
  // The validated prefix — the complete clean run — is still intact.
  EXPECT_EQ(read_bytes(spool).size(), clean_size);
  evstore::RunFileInfo info;
  (void)evstore::open_run(spool, evstore::ReadMode::kAuto, &info);
  EXPECT_TRUE(info.clean);
}

TEST_F(HubTest, SessionEnforcesTheReceiveBudget) {
  const evstore::TraceRun run = make_run(3000, "big_wl");
  const std::vector<unsigned char> bytes = pinned_save_bytes(run, "local.dgtrace");
  const std::string spool = dir_ + "/spool.dgtrace";
  try {
    // A 4 KiB budget is below any 3000-event chunk; the announced
    // length must be refused before the payload is buffered.
    auto session = stream_session(bytes, spool, 799, /*max_pending=*/4096);
    FAIL() << "oversized frame accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("receive budget"), std::string::npos)
        << e.what();
  }
}

TEST_F(HubTest, SessionRejectsGarbageFrameMagic) {
  std::vector<unsigned char> bytes;
  const testkit::Bytes header = testkit::make_header();
  bytes.insert(bytes.end(), header.begin(), header.end());
  const char junk[] = "JUNKJUNKJUNK";
  bytes.insert(bytes.end(), junk, junk + 12);
  const std::string spool = dir_ + "/spool.dgtrace";
  try {
    auto session = stream_session(bytes, spool);
    FAIL() << "garbage magic accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("frame magic"), std::string::npos)
        << e.what();
  }
  // The header was validated and spooled before the garbage arrived.
  evstore::RunFileInfo info;
  (void)evstore::open_run(spool, evstore::ReadMode::kAuto, &info);
  EXPECT_EQ(info.events, 0u);
  EXPECT_FALSE(info.finalized);
}

TEST_F(HubTest, SessionRefusesStreamsEndingBeforeTheHeader) {
  {
    SessionOptions sopts;
    sopts.spool_path = dir_ + "/s1.dgtrace";
    Session session(std::move(sopts));
    EXPECT_THROW(session.end_of_stream(), Error);  // before the hello
  }
  {
    SessionOptions sopts;
    sopts.spool_path = dir_ + "/s2.dgtrace";
    Session session(std::move(sopts));
    const std::string hello = encode_hello("w");
    session.feed(reinterpret_cast<const unsigned char*>(hello.data()),
                 hello.size());
    EXPECT_THROW(session.end_of_stream(), Error);  // before the header
  }
}

// --- Server ingest (socket-free) ---------------------------------------------

TEST_F(HubTest, ServerIngestsAndDedupsSessions) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  HubServer server(std::move(sopts));

  const evstore::TraceRun run = make_run(2000, "ingest_wl");
  const std::vector<unsigned char> bytes = pinned_save_bytes(run, "local.dgtrace");

  auto s1 = stream_session(bytes, server.next_spool_path());
  s1->end_of_stream();
  const IngestOutcome o1 = server.ingest(*s1);
  EXPECT_FALSE(o1.deduplicated);
  ASSERT_FALSE(o1.run_id.empty());

  // The archived object is byte-identical to the local save, and the
  // spool was removed after the copy became durable.
  const std::string object =
      dir_ + "/archive/objects/" + o1.run_id + ".dgtrace";
  EXPECT_EQ(read_bytes(object), bytes);
  EXPECT_FALSE(fs::exists(s1->spool_path()));

  auto s2 = stream_session(bytes, server.next_spool_path());
  s2->end_of_stream();
  EXPECT_NE(s1->spool_path(), s2->spool_path());
  const IngestOutcome o2 = server.ingest(*s2);
  EXPECT_TRUE(o2.deduplicated);
  EXPECT_EQ(o2.run_id, o1.run_id);

  archive::ArchiveOptions aopts;
  aopts.root = dir_ + "/archive";
  const archive::Archive ar(std::move(aopts));
  EXPECT_EQ(ar.index().size(), 1u);
}

TEST_F(HubTest, ServerRefusesToIngestAnUnfinalizedSession) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  HubServer server(std::move(sopts));
  const evstore::TraceRun run = make_run(500, "torn_ingest");
  std::vector<unsigned char> bytes = pinned_save_bytes(run, "local.dgtrace");
  bytes.resize(bytes.size() - fmt::kFooterBytes);  // drop the footer
  auto session = stream_session(bytes, server.next_spool_path());
  EXPECT_THROW(session->end_of_stream(), Error);
  EXPECT_THROW(server.ingest(*session), Error);
  // The torn spool survives for post-mortem reads.
  EXPECT_TRUE(fs::exists(session->spool_path()));
}

// --- Loopback end-to-end -----------------------------------------------------

class ServeGuard {
 public:
  explicit ServeGuard(HubServer& server) : server_(server) {
    server_.bind();
    thread_ = std::thread([this] {
      server_.serve();
      returned_ = true;
    });
  }
  ~ServeGuard() {
    server_.stop();
    thread_.join();
  }

  // False once serve() has returned, which only stop() should cause.
  [[nodiscard]] bool serving() const { return !returned_.load(); }

 private:
  HubServer& server_;
  std::atomic<bool> returned_{false};
  std::thread thread_;
};

TEST_F(HubTest, PushOverLoopbackArchivesByteIdentical) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  HubServer server(std::move(sopts));
  ServeGuard guard(server);

  const evstore::TraceRun run = make_run(2000, "push_wl");
  const std::vector<unsigned char> bytes = pinned_save_bytes(run, "local.dgtrace");

  ClientOptions copts;
  copts.port = server.port();
  copts.workload = "push_wl";
  const HubResponse r1 = push_bytes(bytes.data(), bytes.size(), copts);
  EXPECT_TRUE(r1.ok);
  EXPECT_FALSE(r1.deduplicated);
  EXPECT_EQ(r1.events, 2000u);
  ASSERT_FALSE(r1.run_id.empty());
  EXPECT_EQ(read_bytes(dir_ + "/archive/objects/" + r1.run_id + ".dgtrace"),
            bytes);

  // Re-push: content-addressed dedup, nothing appended.
  const HubResponse r2 = push_bytes(bytes.data(), bytes.size(), copts);
  EXPECT_TRUE(r2.deduplicated);
  EXPECT_EQ(r2.run_id, r1.run_id);
  archive::ArchiveOptions aopts;
  aopts.root = dir_ + "/archive";
  const archive::Archive ar(std::move(aopts));
  EXPECT_EQ(ar.index().size(), 1u);
}

TEST_F(HubTest, PushRunFileDefaultsWorkloadFromTheFilename) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  HubServer server(std::move(sopts));
  ServeGuard guard(server);

  const evstore::TraceRun run = make_run(400, "file_wl");
  (void)pinned_save_bytes(run, "file_wl.dgtrace");
  ClientOptions copts;
  copts.port = server.port();
  const HubResponse r =
      push_run_file(dir_ + "/file_wl.dgtrace", copts);
  EXPECT_TRUE(r.ok);
  archive::ArchiveOptions aopts;
  aopts.root = dir_ + "/archive";
  const archive::Archive ar(std::move(aopts));
  ASSERT_EQ(ar.index().size(), 1u);
  EXPECT_EQ(ar.index()[0].workload, "file_wl");
}

TEST_F(HubTest, HostileStreamGetsAClassifiedRejection) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  HubServer server(std::move(sopts));
  ServeGuard guard(server);

  std::vector<unsigned char> bytes;
  const testkit::Bytes header = testkit::make_header();
  bytes.insert(bytes.end(), header.begin(), header.end());
  const char junk[] = "JUNKJUNKJUNKJUNK";
  bytes.insert(bytes.end(), junk, junk + 16);

  ClientOptions copts;
  copts.port = server.port();
  copts.workload = "hostile";
  try {
    (void)push_bytes(bytes.data(), bytes.size(), copts);
    FAIL() << "hostile stream accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("hub rejected the run"),
              std::string::npos)
        << e.what();
  }
  // The daemon survives and keeps serving.
  const evstore::TraceRun run = make_run(100, "after_hostile");
  const std::vector<unsigned char> good = pinned_save_bytes(run, "g.dgtrace");
  copts.workload = "after_hostile";
  EXPECT_TRUE(push_bytes(good.data(), good.size(), copts).ok);
}

TEST_F(HubTest, HubSinkFinishOnlyStreamIsByteIdenticalToSaveRun) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  HubServer server(std::move(sopts));
  ServeGuard guard(server);

  // One chunk, then three: the save layout's chunk split must match too.
  for (const std::uint64_t events :
       {std::uint64_t{2000}, std::uint64_t{2 * evstore::kSegmentRows + 1000}}) {
    SCOPED_TRACE(events);
    const std::string workload = "sink_wl_" + std::to_string(events);
    const evstore::TraceRun run = make_run(events, workload);
    const std::vector<unsigned char> bytes =
        pinned_save_bytes(run, workload + ".dgtrace");

    ClientOptions copts;
    copts.port = server.port();
    copts.workload = workload;
    HubSink::Options hopts;
    hopts.footer_wall_ms = 0;
    HubSink sink(copts, hopts);
    sink.finish(run);
    ASSERT_TRUE(sink.finished());
    const HubResponse& r = sink.response();
    EXPECT_TRUE(r.ok);
    ASSERT_FALSE(r.run_id.empty());
    // finish() with no prior checkpoints uses the save_run layout, so the
    // streamed bytes — and thus the archived object — are byte-identical
    // to the local pinned save.
    EXPECT_EQ(read_bytes(dir_ + "/archive/objects/" + r.run_id + ".dgtrace"),
              bytes);
  }
}

TEST_F(HubTest, CheckpointedHubSinkMatchesTheLiveWriterChunkForChunk) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  HubServer server(std::move(sopts));
  ServeGuard guard(server);

  // Build a run incrementally, checkpointing file and wire in lockstep —
  // the flight recorder's exact call pattern, with the wall pinned.
  evstore::TraceRun run;
  run.meta.workload = "lockstep_wl";
  const auto append_events = [&run](std::uint64_t from, std::uint64_t n) {
    for (std::uint64_t i = from; i < from + n; ++i) {
      evstore::Event e;
      e.kind = static_cast<evstore::EventKind>(i % evstore::kEventKindCount);
      e.op_index = i;
      e.t_start = static_cast<std::int64_t>(i * 2);
      e.t_end = e.t_start + 1;
      run.store->append(e);
    }
  };

  const std::string local = dir_ + "/lockstep.dgtrace";
  evstore::LiveRunWriter::Options wopts;
  wopts.footer_wall_ms = 0;
  evstore::LiveRunWriter writer(local, wopts);
  ClientOptions copts;
  copts.port = server.port();
  copts.workload = "lockstep_wl";
  HubSink::Options hsopts;
  hsopts.footer_wall_ms = 0;
  HubSink sink(copts, hsopts);

  writer.checkpoint(run, /*force=*/true);
  sink.checkpoint(run, /*force=*/true);
  append_events(0, 700);
  writer.checkpoint(run, /*force=*/true);
  sink.checkpoint(run, /*force=*/true);
  append_events(700, 1300);
  writer.finish(run);
  sink.finish(run);

  ASSERT_TRUE(sink.response().ok);
  EXPECT_EQ(sink.response().events, 2000u);
  EXPECT_GE(sink.chunks_sent(), 3u);
  // The streamed bytes equal the live file's bytes: same chunks, same
  // dictionaries, same (pinned) footer.
  EXPECT_EQ(
      read_bytes(dir_ + "/archive/objects/" + sink.response().run_id +
                 ".dgtrace"),
      read_bytes(local));
}

// The hub's ingest digests the run its session decoded; `archive add`
// opens the file. Both must write the same index line (pinned clock),
// the same object and run id, and agree on a re-push's dedup.
TEST_F(HubTest, HubIngestWritesTheLineArchiveAddWrites) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/hub";
  sopts.ingest_wall_ms = 0;
  HubServer server(std::move(sopts));
  ServeGuard guard(server);
  archive::Archive local(archive::ArchiveOptions{
      .root = dir_ + "/local", .config = {}, .ingest_wall_ms = 0});

  const auto last_line = [](const std::string& root) {
    std::ifstream in(archive::index_path(root));
    std::string line;
    std::string last;
    while (std::getline(in, line)) last = line;
    return last;
  };
  // `pushed` and `repushed` are the hub's verdicts for the file's bytes.
  const auto compare = [&](const std::string& file, const IngestOutcome& pushed,
                           const IngestOutcome& repushed) {
    const archive::Archive::AddResult added = local.add(file);
    EXPECT_FALSE(pushed.deduplicated);
    EXPECT_FALSE(added.deduplicated);
    EXPECT_EQ(pushed.run_id, added.digest.run_id);
    EXPECT_EQ(last_line(dir_ + "/hub"), last_line(dir_ + "/local"));
    EXPECT_EQ(read_bytes(archive::object_path(dir_ + "/hub", pushed.run_id)),
              read_bytes(added.object_path));
    const archive::Archive::AddResult readded = local.add(file);
    EXPECT_EQ(repushed.deduplicated, readded.deduplicated);
    EXPECT_TRUE(repushed.deduplicated);
    EXPECT_EQ(repushed.run_id, readded.digest.run_id);
  };
  const auto ingest_file = [&](const std::string& file) {
    auto s = stream_session(read_bytes(file), server.next_spool_path(),
                            /*step=*/1 << 16);
    s->end_of_stream();
    return server.ingest(*s);
  };

  // Synthetic runs of one, one and four chunks.
  for (const std::uint64_t events : {std::uint64_t{1'000},
                                     std::uint64_t{50'000},
                                     std::uint64_t{200'000}}) {
    SCOPED_TRACE(events);
    const std::string name = "synth_" + std::to_string(events) + ".dgtrace";
    (void)pinned_save_bytes(make_run(events, "digest_wl"), name);
    const std::string file = dir_ + "/" + name;
    const IngestOutcome pushed = ingest_file(file);
    compare(file, pushed, ingest_file(file));
  }

  // A checkpointed stream whose delta chunks are not segment-aligned:
  // the second chunk crosses a segment boundary, the third extends the
  // partly filled segment. The HubSink streams the LiveRunWriter's bytes.
  SCOPED_TRACE("checkpointed");
  evstore::TraceRun run;
  run.meta.workload = "checkpointed_wl";
  const auto append_events = [&run](std::uint64_t from, std::uint64_t n) {
    for (std::uint64_t i = from; i < from + n; ++i) {
      evstore::Event e;
      e.kind = static_cast<evstore::EventKind>(i % evstore::kEventKindCount);
      e.op_index = i;
      e.t_start = static_cast<std::int64_t>(i * 2);
      e.t_end = e.t_start + 1;
      run.store->append(e);
    }
  };
  const std::string file = dir_ + "/checkpointed.dgtrace";
  evstore::LiveRunWriter writer(file, {.fsync_checkpoints = false,
                                       .footer_wall_ms = 0});
  ClientOptions copts;
  copts.port = server.port();
  copts.workload = "checkpointed_wl";
  HubSink sink(copts, HubSink::Options{.footer_wall_ms = 0});
  std::uint64_t appended = 0;
  for (const std::uint64_t n : {std::uint64_t{700},
                                evstore::kSegmentRows + 300}) {
    append_events(appended, n);
    appended += n;
    writer.checkpoint(run, /*force=*/true);
    sink.checkpoint(run, /*force=*/true);
  }
  append_events(appended, 1'300);
  writer.finish(run);
  sink.finish(run);
  ASSERT_TRUE(sink.response().ok);
  EXPECT_EQ(sink.chunks_sent(), 3u);
  const IngestOutcome pushed{.run_id = sink.response().run_id,
                             .deduplicated = sink.response().deduplicated};
  compare(file, pushed, ingest_file(file));
}

// The incremental readers fold segment and block stats chunk by chunk.
// Polled per checkpoint of a stream whose chunks are not segment-aligned
// (a chunk crossing a segment boundary, then one extending the partly
// filled segment), they must hold what open_run's one pass folds.
TEST_F(HubTest, IncrementalReadersFoldWhatOpenRunFolds) {
  testkit::SynthRunOptions so;
  so.events = 100'000;
  const evstore::TraceRun src = testkit::make_synthetic_run(so);
  const evstore::EventStore& from = *src.store;
  // The same run, grown event by event over the same dictionaries.
  evstore::TraceRun run;
  run.meta = src.meta;
  for (std::uint32_t s = 1; s < from.stacks().stack_count(); ++s) {
    ASSERT_EQ(run.store->intern_stack(from.stack_trace(s)), s);
  }
  for (std::uint32_t n = 1; n < from.name_count(); ++n) {
    ASSERT_EQ(run.store->intern_name(from.name(n)), n);
  }

  const std::string file = dir_ + "/live.dgtrace";
  evstore::LiveRunWriter writer(file, {.fsync_checkpoints = false,
                                       .footer_wall_ms = 0});
  evstore::RunFollower follower(file);
  Session session(SessionOptions{.spool_path = dir_ + "/spool.dgtrace",
                                 .fsync_spool = false});
  const std::string hello = encode_hello("hubtest");
  session.feed(reinterpret_cast<const unsigned char*>(hello.data()),
               hello.size());
  // Feeds the session the file's bytes it has not seen; a checkpoint's
  // footer is rewritten by the next one, so only the last is streamed.
  std::size_t fed = 0;
  const auto feed_new = [&](bool final) {
    const std::vector<unsigned char> bytes = read_bytes(file);
    const std::size_t end =
        final ? bytes.size() : bytes.size() - fmt::kFooterBytes;
    session.feed(bytes.data() + fed, end - fed);
    fed = end;
  };
  std::uint64_t appended = 0;
  const auto append_events = [&](std::uint64_t n) {
    for (std::uint64_t i = appended; i < appended + n; ++i) {
      run.store->append(from.event(i));
    }
    appended += n;
  };
  for (const std::uint64_t n : {std::uint64_t{700},
                                evstore::kSegmentRows + 300,
                                std::uint64_t{20'000}}) {
    append_events(n);
    writer.checkpoint(run, /*force=*/true);
    EXPECT_EQ(follower.poll(), n);
    feed_new(/*final=*/false);
  }
  append_events(from.size() - appended);
  writer.finish(run);
  (void)follower.poll();
  feed_new(/*final=*/true);
  session.end_of_stream();
  ASSERT_TRUE(follower.finalized());

  const evstore::TraceRun opened = evstore::open_run(file);
  const evstore::EventStore& want = *opened.store;
  const auto same = [](const evstore::EventStore::SegmentStats& a,
                       const evstore::EventStore::SegmentStats& b) {
    return a.kinds_mask == b.kinds_mask && a.flags_or == b.flags_or &&
           a.api_mask == b.api_mask && a.min_t == b.min_t &&
           a.max_t == b.max_t;
  };
  const ffm::ToolConfig cfg;
  const std::string want_export =
      ffm::export_json(ffm::run_analysis(opened, cfg)).dump();
  for (const evstore::TraceRun* got : {&follower.run(), &session.run()}) {
    SCOPED_TRACE(got == &session.run() ? "session" : "follower");
    const evstore::EventStore& store = *got->store;
    ASSERT_EQ(store.size(), want.size());
    ASSERT_EQ(store.segment_count(), want.segment_count());
    for (std::size_t s = 0; s < want.segment_count(); ++s) {
      EXPECT_TRUE(same(store.segment_stats(s), want.segment_stats(s))) << s;
    }
    ASSERT_EQ(store.block_count(), want.block_count());
    for (std::size_t b = 0; b < want.block_count(); ++b) {
      EXPECT_TRUE(same(store.block_stats(b), want.block_stats(b))) << b;
    }
    for (std::size_t k = 0; k < evstore::kEventKindCount; ++k) {
      const auto kind = static_cast<evstore::EventKind>(k);
      EXPECT_EQ(store.count_of(kind), want.count_of(kind)) << k;
    }
    EXPECT_EQ(ffm::export_json(ffm::run_analysis(*got, cfg)).dump(),
              want_export);
  }
}

// One long-lived server parses each index line once: N distinct ingests
// read N lines (the line each appends), not the whole index every time.
TEST_F(HubTest, IngestReadsEachIndexLineOnce) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  HubServer server(std::move(sopts));
  constexpr std::uint64_t kRuns = 6;
  const std::uint64_t before = hub_counter("archive.index_lines_read");
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    const std::vector<unsigned char> bytes = pinned_save_bytes(
        make_run(500 + 10 * i, "lines_wl"), "r" + std::to_string(i));
    auto s = stream_session(bytes, server.next_spool_path(), 1 << 16);
    s->end_of_stream();
    EXPECT_FALSE(server.ingest(*s).deduplicated);
  }
  EXPECT_EQ(hub_counter("archive.index_lines_read") - before, kRuns);
}

// The server's index stays current across writers outside it: a run an
// `archive add` appended is in the next verdict's baseline.
TEST_F(HubTest, RegressVerdictCountsAnExternalArchiveAdd) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  HubServer server(std::move(sopts));
  const auto session_for = [&](const std::vector<unsigned char>& bytes) {
    auto s = stream_session(bytes, server.next_spool_path(), 1 << 16);
    s->end_of_stream();
    return s;
  };
  // The server reads the index once before the external add.
  const auto other = session_for(
      pinned_save_bytes(make_run(1'000, "other_wl"), "other.dgtrace"));
  (void)server.ingest(*other);

  const auto synth = [&](const std::string& name, std::uint32_t sites) {
    evstore::TraceRun run = testkit::make_synthetic_run(
        {.events = 20'000, .problem_sites = sites});
    run.meta.workload = "hubtest";  // the sessions' hello workload
    (void)pinned_save_bytes(run, name);
    return dir_ + "/" + name;
  };
  archive::Archive external(archive::ArchiveOptions{
      .root = dir_ + "/archive", .config = {}, .ingest_wall_ms = 0});
  (void)external.add(synth("quiet.dgtrace", 2));
  // Alone, the drifted run has nothing to compare with; with the
  // external run as its baseline it drifts.
  const auto drifted = session_for(read_bytes(synth("drift.dgtrace", 6)));
  EXPECT_GT(server.ingest(*drifted).drift_findings, 0u);
}

// The verdict checks the workload the run is filed under (its meta),
// whatever the hello named, and a dedup of an older run does not carry
// the drift of the workload's newest.
TEST_F(HubTest, VerdictChecksTheRunsOwnWorkload) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  HubServer server(std::move(sopts));
  const auto push = [&](const std::string& name, std::uint32_t sites,
                        const std::string& hello) {
    const evstore::TraceRun run = testkit::make_synthetic_run(
        {.events = 20'000, .problem_sites = sites});
    auto s = stream_session(pinned_save_bytes(run, name),
                            server.next_spool_path(), 1 << 16, 64ull << 20,
                            hello);
    s->end_of_stream();
    return server.ingest(*s);
  };
  const IngestOutcome quiet = push("quiet.dgtrace", 2, "synthetic");
  EXPECT_EQ(quiet.drift_findings, 0u);
  const IngestOutcome drift = push("drift.dgtrace", 6, "another_name");
  EXPECT_FALSE(drift.deduplicated);
  EXPECT_GT(drift.drift_findings, 0u);
  const IngestOutcome again = push("quiet.dgtrace", 2, "synthetic");
  EXPECT_TRUE(again.deduplicated);
  EXPECT_EQ(again.run_id, quiet.run_id);
  EXPECT_EQ(again.drift_findings, 0u);
}

// Each push lands in hub.push_ns (hello to verdict) and hub.ingest_ns
// (the ingest critical section).
TEST_F(HubTest, PushAndIngestHistogramsCountEachPush) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  HubServer server(std::move(sopts));
  ServeGuard guard(server);
  auto& m = obs::Telemetry::global().metrics();
  const std::uint64_t push_before = m.histogram("hub.push_ns").count();
  const std::uint64_t ingest_before = m.histogram("hub.ingest_ns").count();
  ClientOptions copts;
  copts.port = server.port();
  copts.workload = "hist_wl";
  for (const std::uint64_t events : {std::uint64_t{300}, std::uint64_t{400}}) {
    const std::vector<unsigned char> bytes = pinned_save_bytes(
        make_run(events, "hist_wl"), "h" + std::to_string(events));
    EXPECT_TRUE(push_bytes(bytes.data(), bytes.size(), copts).ok);
  }
  EXPECT_EQ(m.histogram("hub.push_ns").count() - push_before, 2u);
  EXPECT_EQ(m.histogram("hub.ingest_ns").count() - ingest_before, 2u);
}

TEST_F(HubTest, TornSinkLeavesACheckpointedPrefixOnTheServer) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  HubServer server(std::move(sopts));
  ServeGuard guard(server);

  const std::uint64_t torn_before = hub_counter("hub.torn");
  evstore::TraceRun run = make_run(1500, "torn_sink_wl");
  {
    ClientOptions copts;
    copts.port = server.port();
    copts.workload = "torn_sink_wl";
    HubSink sink(copts);
    sink.checkpoint(run, /*force=*/true);
    // Destroyed without finish(): the crash contract on the wire.
  }
  // The spool survives as a readable checkpointed prefix: all 1500
  // events from the forced checkpoint, no footer. The server writes it
  // as the chunk arrives, so wait until the whole prefix reads back.
  std::vector<std::string> spools;
  evstore::RunFileInfo info;
  std::uint64_t events = 0;
  for (int i = 0; i < 500 && events < 1500; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    spools.clear();
    for (const auto& entry :
         fs::directory_iterator(dir_ + "/archive/spool")) {
      spools.push_back(entry.path().string());
    }
    if (spools.size() != 1) continue;
    try {
      events = evstore::open_run(spools[0], evstore::ReadMode::kAuto, &info)
                   .store->size();
    } catch (const Error&) {
      // Header not on disk yet.
    }
  }
  ASSERT_EQ(spools.size(), 1u);
  EXPECT_FALSE(info.finalized);
  EXPECT_EQ(events, 1500u);

  // The server counts the torn stream when the connection drops.
  if (obs::kCompiledIn) {
    for (int i = 0; i < 500 && hub_counter("hub.torn") == torn_before; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(hub_counter("hub.torn"), torn_before);
  }
}

TEST_F(HubTest, FlightRecorderStreamsThroughTheRegisteredSinkFactory) {
  register_tcp_sink();
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  HubServer server(std::move(sopts));
  ServeGuard guard(server);

  evstore::TraceRun run = make_run(1200, "fr_wl");
  ffm::ToolConfig cfg;
  cfg.trace_dir = dir_ + "/traces";
  cfg.sink = "tcp://127.0.0.1:" + std::to_string(server.port());
  {
    ffm::FlightRecorder rec(run, cfg, "fr_wl");
    rec.finish();
  }
  archive::ArchiveOptions aopts;
  aopts.root = dir_ + "/archive";
  const archive::Archive ar(std::move(aopts));
  ASSERT_EQ(ar.index().size(), 1u);
  EXPECT_EQ(ar.index()[0].workload, "fr_wl");
  EXPECT_EQ(ar.index()[0].events, 1200u);
  // The streamed object opens clean and holds the full store.
  const evstore::TraceRun round = evstore::open_run(
      dir_ + "/archive/objects/" + ar.index()[0].run_id + ".dgtrace");
  EXPECT_EQ(round.store->size(), 1200u);
}

TEST_F(HubTest, BadSinkUrlFailsTheRecorderBeforeCollection) {
  register_tcp_sink();
  evstore::TraceRun run;
  ffm::ToolConfig cfg;
  cfg.sink = "udp://nope";
  EXPECT_THROW(ffm::FlightRecorder(run, cfg, "w"), Error);
}

// --- Socket core: hello deadline, capacity, descriptor limit -----------------

// Reads one reply line from a raw peer. Stops at the newline, so a reset
// that follows the line does not matter.
std::string read_line(net::Conn& peer) {
  std::string line;
  char buf[512];
  while (line.find('\n') == std::string::npos) {
    const std::size_t n = peer.recv_some(buf, sizeof buf);
    if (n == 0) break;
    line.append(buf, n);
  }
  return line.substr(0, line.find('\n'));
}

net::Conn connect_peer(const HubServer& server) {
  return net::connect("test", "127.0.0.1", server.port());
}

TEST_F(HubTest, HellolessPeersAreDroppedAtTheDeadlineThenAPushArchives) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  sopts.max_clients = 2;
  HubServer server(std::move(sopts));
  ServeGuard guard(server);

  const std::uint64_t expired_before = hub_counter("hub.deadline_expired");
  const auto start = std::chrono::steady_clock::now();
  std::vector<net::Conn> peers;
  peers.push_back(connect_peer(server));
  peers.push_back(connect_peer(server));
  for (net::Conn& peer : peers) {
    const HubResponse r = parse_response(read_line(peer));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("deadline expired"), std::string::npos) << r.error;
    char byte = 0;
    EXPECT_EQ(peer.recv_some(&byte, 1), 0u);  // then the hub closes
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, net::kFirstMessageDeadline - std::chrono::milliseconds(100));
  EXPECT_LT(waited, std::chrono::seconds(10));
  if (obs::kCompiledIn) {
    EXPECT_EQ(hub_counter("hub.deadline_expired") - expired_before, 2u);
  }

  // Both slots are free again.
  const evstore::TraceRun run = make_run(300, "after_idle");
  const std::vector<unsigned char> bytes = pinned_save_bytes(run, "a.dgtrace");
  ClientOptions copts;
  copts.port = server.port();
  copts.workload = "after_idle";
  const HubResponse r = push_bytes(bytes.data(), bytes.size(), copts);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(read_bytes(dir_ + "/archive/objects/" + r.run_id + ".dgtrace"),
            bytes);
}

TEST_F(HubTest, SlowDripHelloGetsAClassifiedRefusal) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  HubServer server(std::move(sopts));
  ServeGuard guard(server);

  // One byte every 100 ms: the hello would take seconds past the
  // deadline, which is total, not per read.
  net::Conn peer = connect_peer(server);
  const std::string hello = encode_hello("drip_wl");
  bool cut = false;
  for (char byte : hello) {
    try {
      peer.send_all(std::string_view(&byte, 1));
    } catch (const Error&) {
      cut = true;  // the hub answered and closed
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!cut) peer.shutdown_write();
  const HubResponse r = parse_response(read_line(peer));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("hub: first message not received"),
            std::string::npos)
      << r.error;
}

TEST_F(HubTest, HalfClosedPeerIsRefusedWithoutWaitingForTheDeadline) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  HubServer server(std::move(sopts));
  ServeGuard guard(server);

  const auto start = std::chrono::steady_clock::now();
  net::Conn peer = connect_peer(server);
  peer.shutdown_write();
  const HubResponse r = parse_response(read_line(peer));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("stream ended before the hello"), std::string::npos)
      << r.error;
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            net::kFirstMessageDeadline);
}

TEST_F(HubTest, RefusedPusherReadsTheCapacityVerdict) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.max_clients = 1;
  HubServer server(std::move(sopts));
  ServeGuard guard(server);

  const std::uint64_t refused_before = hub_counter("hub.refused");
  // The only slot goes to a peer that never says hello; the push behind
  // it is refused while it is still sending, and must say why.
  net::Conn holder = connect_peer(server);
  const std::vector<unsigned char> bytes(32u << 20, 0xAB);
  ClientOptions copts;
  copts.port = server.port();
  copts.workload = "refused_wl";
  try {
    (void)push_bytes(bytes.data(), bytes.size(), copts);
    FAIL() << "push admitted past max_clients";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("at capacity"), std::string::npos)
        << e.what();
  }
  if (obs::kCompiledIn) {
    EXPECT_EQ(hub_counter("hub.refused") - refused_before, 1u);
  }
}

TEST_F(HubTest, AcceptAtTheDescriptorLimitKeepsServing) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  HubServer server(std::move(sopts));
  ServeGuard guard(server);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  {
    // The idle peer's socket is the last descriptor the lowered limit
    // allows, so the hub's next accept fails with EMFILE. (accept takes
    // its descriptor before it blocks, which is why the limit drops
    // between socket() and connect().)
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    net::Conn idle("test", fd);
    rlimit low = saved;
    low.rlim_cur = static_cast<rlim_t>(fd) + 1;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
    struct Restore {
      const rlimit& saved;
      ~Restore() { ::setrlimit(RLIMIT_NOFILE, &saved); }
    } restore{saved};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }
  ASSERT_TRUE(guard.serving()) << "serve() ended on EMFILE";

  // The idle peer closed and the limit is back: a push archives.
  const evstore::TraceRun run = make_run(300, "after_emfile");
  const std::vector<unsigned char> bytes = pinned_save_bytes(run, "e.dgtrace");
  ClientOptions copts;
  copts.port = server.port();
  copts.workload = "after_emfile";
  EXPECT_TRUE(push_bytes(bytes.data(), bytes.size(), copts).ok);
  EXPECT_TRUE(guard.serving());
}

// --- Concurrency soak --------------------------------------------------------

TEST_F(HubTest, ConcurrentWritersAllLandByteIdenticalAndCountersReconcile) {
  ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  sopts.max_clients = 16;
  HubServer server(std::move(sopts));
  ServeGuard guard(server);

  constexpr int kWriters = 8;
  const std::uint64_t ingested_before = hub_counter("hub.ingested");
  const std::uint64_t dedup_before = hub_counter("hub.dedup");
  const std::uint64_t events_before = hub_counter("hub.events");

  // Distinct deterministic workloads, pinned saves as ground truth.
  std::vector<std::vector<unsigned char>> payloads(kWriters);
  std::uint64_t expected_events = 0;
  for (int w = 0; w < kWriters; ++w) {
    const std::uint64_t events = 500 + 250 * static_cast<std::uint64_t>(w);
    evstore::TraceRun run = make_run(events, "soak_" + std::to_string(w));
    payloads[w] = pinned_save_bytes(run, "soak_" + std::to_string(w) +
                                             ".dgtrace");
    expected_events += events;
  }

  // Wave 1: all archived. Wave 2: all deduplicated. Both concurrent.
  for (const bool expect_dedup : {false, true}) {
    std::vector<HubResponse> responses(kWriters);
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        ClientOptions copts;
        copts.port = server.port();
        copts.workload = "soak_" + std::to_string(w);
        responses[w] =
            push_bytes(payloads[w].data(), payloads[w].size(), copts);
      });
    }
    for (auto& t : writers) t.join();
    for (int w = 0; w < kWriters; ++w) {
      SCOPED_TRACE(w);
      EXPECT_TRUE(responses[w].ok);
      EXPECT_EQ(responses[w].deduplicated, expect_dedup);
      EXPECT_EQ(responses[w].events, 500u + 250u * static_cast<unsigned>(w));
      // Byte-identity holds under concurrency: every archived object
      // equals its local pinned save.
      EXPECT_EQ(read_bytes(dir_ + "/archive/objects/" + responses[w].run_id +
                           ".dgtrace"),
                payloads[w]);
    }
  }

  // The index holds each writer's run exactly once, with its events.
  archive::ArchiveOptions aopts;
  aopts.root = dir_ + "/archive";
  const archive::Archive ar(std::move(aopts));
  EXPECT_EQ(ar.index().size(), static_cast<std::size_t>(kWriters));
  std::uint64_t indexed_events = 0;
  for (const auto& entry : ar.index()) indexed_events += entry.events;
  EXPECT_EQ(indexed_events, expected_events);

  // Per-session accounting reconciles exactly: both waves validated
  // every chunk, so the counters advance by exactly two sweeps.
  if (obs::kCompiledIn) {
    EXPECT_EQ(hub_counter("hub.ingested") - ingested_before,
              2u * kWriters);
    EXPECT_EQ(hub_counter("hub.dedup") - dedup_before,
              static_cast<std::uint64_t>(kWriters));
    EXPECT_EQ(hub_counter("hub.events") - events_before,
              2 * expected_events);
  }
  // No session left behind: the gauge drains to its pre-test level and
  // every spool was consumed by ingestion.
  std::size_t spools = 0;
  for (const auto& entry :
       fs::directory_iterator(dir_ + "/archive/spool")) {
    (void)entry;
    ++spools;
  }
  EXPECT_EQ(spools, 0u);
}

}  // namespace
}  // namespace diog::hub
