// The trace explorer: HTTP parsing, the server's socket path
// (idle and slow-drip peers, malformed and non-GET requests), the LoD
// aggregation layer's determinism contract, the Service error model over
// empty and torn runs, the viewport byte budget at a million events, the
// filtered dump's predicate pushdown, and the diagnosis's totality.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "archive/archive.h"
#include "core/diagnosis.h"
#include "core/diogenes.h"
#include "core/findings.h"
#include "core/report.h"
#include "eventstore/aggregate.h"
#include "eventstore/live_writer.h"
#include "eventstore/run_io.h"
#include "explore/http.h"
#include "explore/service.h"
#include "json/json.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "parallel/thread_pool.h"
#include "testkit/synth_run.h"

namespace diog {
namespace {

namespace fs = std::filesystem;

class ExploreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("diog_explore_") + info->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    saved_threads_ = par::threads_override();
  }
  void TearDown() override {
    par::set_threads(saved_threads_);
    fs::remove_all(dir_);
  }

  std::string save(const std::string& name, const evstore::TraceRun& run) {
    const std::string path = dir_ + "/" + name + ".dgtrace";
    evstore::save_run(path, run, evstore::SaveOptions{.footer_wall_ms = 0});
    return path;
  }

  static explore::HttpResponse get(explore::Service& svc,
                                   const std::string& target) {
    explore::HttpRequest req;
    EXPECT_TRUE(
        explore::parse_request_line("GET " + target + " HTTP/1.1", req))
        << target;
    return svc.handle(req);
  }

  std::string dir_;
  std::size_t saved_threads_ = 0;
};

// --- HTTP layer (no sockets) ------------------------------------------------

TEST(ExploreHttp, UrlDecodeHandlesEscapesAndPassesInvalidOnesThrough) {
  EXPECT_EQ(explore::url_decode("%41%2fb+c"), "A/b c");
  EXPECT_EQ(explore::url_decode("plain"), "plain");
  EXPECT_EQ(explore::url_decode("%zz%4"), "%zz%4");  // malformed: literal
}

TEST(ExploreHttp, ParseRequestLineSplitsPathAndQuery) {
  explore::HttpRequest req;
  ASSERT_TRUE(explore::parse_request_line(
      "GET /api/timeline?t0=10&t1=20&tracks=op%2cpage_fault HTTP/1.1", req));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/api/timeline");
  EXPECT_EQ(req.get("tracks"), "op,page_fault");
  EXPECT_EQ(req.get_i64("t0", -1), 10);
  EXPECT_EQ(req.get_i64("t1", -1), 20);
  EXPECT_EQ(req.get_i64("missing", -7), -7);
  EXPECT_EQ(req.get_i64("tracks", -7), -7);  // non-numeric -> fallback

  EXPECT_FALSE(explore::parse_request_line("garbage", req));
  EXPECT_FALSE(explore::parse_request_line("GET /x", req));
}

TEST(ExploreHttp, StatusTextNamesTheSocketCoreStatuses) {
  EXPECT_EQ(explore::status_text(408), "Request Timeout");
  EXPECT_EQ(explore::status_text(503), "Service Unavailable");
  EXPECT_EQ(explore::status_text(500), "Internal Server Error");
}

// --- HTTP over loopback -----------------------------------------------------

// A Service over an empty root, served on an ephemeral port until the
// end of the scope.
class ServedExplorer {
 public:
  explicit ServedExplorer(const std::string& root)
      : svc_(explore::ServiceOptions{
            .root = root, .config = {}, .archive_root = {}}),
        http_([this](const explore::HttpRequest& req) {
          return svc_.handle(req);
        }) {
    http_.bind(0);
    thread_ = std::thread([this] { http_.serve(); });
  }
  ~ServedExplorer() {
    http_.stop();
    thread_.join();
  }
  ServedExplorer(const ServedExplorer&) = delete;
  ServedExplorer& operator=(const ServedExplorer&) = delete;

  [[nodiscard]] net::Conn connect() const {
    return net::connect("test", "127.0.0.1", http_.port());
  }

 private:
  explore::Service svc_;
  explore::HttpServer http_;
  std::thread thread_;
};

// Reads until the server closes. A reset after the response (the peer
// was still sending) keeps what arrived.
std::string read_until_close(net::Conn& conn) {
  std::string out;
  char buf[4096];
  try {
    while (const std::size_t n = conn.recv_some(buf, sizeof buf)) {
      out.append(buf, n);
    }
  } catch (const Error&) {
  }
  return out;
}

std::string exchange(const ServedExplorer& server, std::string_view request) {
  net::Conn conn = server.connect();
  conn.send_all(request);
  return read_until_close(conn);
}

std::string body_of(const std::string& response) {
  const std::size_t end = response.find("\r\n\r\n");
  return end == std::string::npos ? "" : response.substr(end + 4);
}

TEST_F(ExploreTest, IdlePeerDoesNotDelayOtherRequests) {
  ServedExplorer server(dir_);
  std::optional<net::Conn> idle = server.connect();
  auto reply = std::async(std::launch::async, [&server] {
    return exchange(server, "GET /healthz HTTP/1.1\r\n\r\n");
  });
  const bool in_time =
      reply.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
  idle.reset();  // a server that waits on the idle peer is released here
  ASSERT_TRUE(in_time) << "/healthz waited on an idle connection";
  const std::string response = reply.get();
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_EQ(body_of(response), "{\"ok\":true}");
}

TEST_F(ExploreTest, SlowDripHeaderGets408AtTheDeadline) {
  ServedExplorer server(dir_);
  const std::uint64_t expired_before = obs::Telemetry::global()
                                           .metrics()
                                           .counter("http.deadline_expired")
                                           .value();
  const auto start = std::chrono::steady_clock::now();
  net::Conn conn = server.connect();
  const std::string request = "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  for (char byte : request) {
    try {
      conn.send_all(std::string_view(&byte, 1));
    } catch (const Error&) {
      break;  // the server answered and closed
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const std::string response = read_until_close(conn);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(response.rfind("HTTP/1.1 408 Request Timeout\r\n", 0), 0u)
      << response;
  json::Value body = json::parse(body_of(response));
  EXPECT_NE(body["error"].as_string().find("deadline expired"),
            std::string::npos);
  EXPECT_GE(waited, net::kFirstMessageDeadline - std::chrono::milliseconds(100));
  if (obs::kCompiledIn) {
    EXPECT_EQ(obs::Telemetry::global()
                      .metrics()
                      .counter("http.deadline_expired")
                      .value() -
                  expired_before,
              1u);
  }
}

TEST_F(ExploreTest, MalformedAndNonGetRequestsOverTheSocket) {
  ServedExplorer server(dir_);
  const std::string bad = exchange(server, "garbage\r\n\r\n");
  EXPECT_EQ(bad.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << bad;
  EXPECT_EQ(body_of(bad), "{\"error\":\"malformed request\"}");

  const std::string post = exchange(server, "POST /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(post.rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0), 0u)
      << post;
  EXPECT_EQ(body_of(post), "{\"error\":\"method not allowed\"}");

  // A peer that half-closes without a request is answered at once.
  net::Conn half = server.connect();
  half.shutdown_write();
  const std::string empty = read_until_close(half);
  EXPECT_EQ(empty.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << empty;
}

// --- LoD binning ------------------------------------------------------------

// Phase-ordered kinds over more than three segments, the shape the
// real pipeline produces: ops fill the first segment and spill into the
// second, so two shards merge into the bins that straddle the segment
// boundary, and the later sync/internal phases give the kind filter
// whole segments to skip. Durations cycle through 0..6, so both shards
// of the straddling bin hold a heaviest event of the same duration and
// the merge must keep the first in append order.
TEST_F(ExploreTest, BinEventsIsIdenticalAtEveryThreadCount) {
  constexpr std::uint64_t kPerPhase = evstore::kSegmentRows + 1'000;
  evstore::EventStore store;
  evstore::Event e;
  e.kind = evstore::EventKind::kOp;
  for (std::uint64_t i = 0; i < kPerPhase; ++i) {
    e.op_index = i;
    e.t_start = static_cast<std::int64_t>(i * 10);
    e.t_end = e.t_start + static_cast<std::int64_t>(i % 7);
    store.append(e);
  }
  for (const evstore::EventKind k :
       {evstore::EventKind::kSyncUse, evstore::EventKind::kInternalSpan}) {
    e = evstore::Event{};
    e.kind = k;
    for (std::uint64_t i = 0; i < kPerPhase; ++i) store.append(e);
  }
  ASSERT_GE(store.segment_count(), 3u);
  const std::int64_t t1 = static_cast<std::int64_t>(kPerPhase * 10);

  constexpr std::uint32_t kBins = 777;
  auto render = [](const std::vector<evstore::TimeBin>& bins) {
    std::string s;
    for (const evstore::TimeBin& bin : bins) {
      s += ";" + std::to_string(bin.count) + "," +
           std::to_string(bin.busy_ns) + "," +
           std::to_string(bin.rep.t_start) + "," +
           std::to_string(bin.rep.t_end) + "," +
           std::to_string(bin.rep.op_index);
    }
    return s;
  };

  // The serial reference: one cursor over the whole store, folded in
  // append order (heaviest representative, first among equals).
  const std::int64_t width = (t1 + kBins - 1) / kBins;
  std::vector<evstore::TimeBin> serial_bins(kBins);
  evstore::Cursor serial(store);
  serial.kind(evstore::EventKind::kOp);
  serial.for_each([&](const evstore::Event& ev) {
    evstore::TimeBin& bin = serial_bins[std::min<std::int64_t>(
        ev.t_start / width, kBins - 1)];
    ++bin.count;
    bin.busy_ns += ev.t_end - ev.t_start;
    if (bin.count == 1 ||
        ev.t_end - ev.t_start > bin.rep.t_end - bin.rep.t_start) {
      bin.rep = ev;
    }
  });
  const std::string expected = render(serial_bins);

  std::uint64_t blocks_skipped_at_1 = 0;
  for (const std::size_t tc : {1, 2, 8}) {
    par::set_threads(tc);
    evstore::Cursor proto(store);
    proto.kind(evstore::EventKind::kOp);
    const evstore::BinnedSpans b =
        evstore::bin_events(store, proto, 0, t1, kBins);
    EXPECT_EQ(b.matched, kPerPhase) << "threads=" << tc;
    EXPECT_EQ(b.bin_width, width) << "threads=" << tc;
    EXPECT_EQ(render(b.data), expected) << "threads=" << tc;
    // Pushdown skips whole sync/internal segments and the non-op blocks
    // of the mixed segment, the same count at every thread count.
    EXPECT_EQ(b.stats.segments_skipped, 2u) << "threads=" << tc;
    EXPECT_GE(b.stats.blocks_skipped, 1u) << "threads=" << tc;
    if (tc == 1) blocks_skipped_at_1 = b.stats.blocks_skipped;
    EXPECT_EQ(b.stats.blocks_skipped, blocks_skipped_at_1)
        << "threads=" << tc;
  }
}

TEST_F(ExploreTest, BinEventsClampsAndHandlesEmptyRanges) {
  const evstore::TraceRun run = testkit::make_synthetic_run({.events = 100});
  evstore::Cursor proto(*run.store);
  const evstore::BinnedSpans huge =
      evstore::bin_events(*run.store, proto, 0, 1'000'000, 1 << 20);
  EXPECT_EQ(huge.bins, evstore::kMaxBins);
  const evstore::BinnedSpans inverted =
      evstore::bin_events(*run.store, proto, 10, 10, 64);
  EXPECT_EQ(inverted.bins, 1u);
  EXPECT_EQ(inverted.matched, 0u);
}

namespace {
// A store with one op per requested (t_start, t_end) pair: the minimal
// instrument for boundary arithmetic.
evstore::TraceRun run_with_ops(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& spans) {
  evstore::TraceRun run;
  std::uint64_t idx = 0;
  for (const auto& [t0, t1] : spans) {
    evstore::Event e;
    e.kind = evstore::EventKind::kOp;
    e.op_index = idx++;
    e.t_start = t0;
    e.t_end = t1;
    run.store->append(e);
  }
  return run;
}
}  // namespace

TEST_F(ExploreTest, BinBoundaryEventsLandInTheirOwnBinHalfOpen) {
  // Range [0, 100) over 10 bins: width 10, and an event starting
  // exactly on a boundary belongs to the bin it OPENS, not the one it
  // closes. t_start == t1 is outside the half-open viewport entirely.
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (std::int64_t t = 0; t <= 100; t += 10) spans.emplace_back(t, t + 3);
  const evstore::TraceRun run = run_with_ops(spans);
  evstore::Cursor proto(*run.store);
  const evstore::BinnedSpans b =
      evstore::bin_events(*run.store, proto, 0, 100, 10);
  ASSERT_EQ(b.bins, 10u);
  EXPECT_EQ(b.bin_width, 10);
  EXPECT_EQ(b.matched, 10u) << "t_start == 100 must fall outside [0, 100)";
  for (std::uint32_t i = 0; i < b.bins; ++i) {
    EXPECT_EQ(b.data[i].count, 1u) << "bin " << i;
    EXPECT_EQ(b.data[i].rep.t_start, static_cast<std::int64_t>(i) * 10)
        << "bin " << i;
  }
}

TEST_F(ExploreTest, ZeroDurationEventsCountButAddNoBusyTime) {
  const evstore::TraceRun run =
      run_with_ops({{5, 5}, {5, 5}, {7, 9}});
  evstore::Cursor proto(*run.store);
  const evstore::BinnedSpans b =
      evstore::bin_events(*run.store, proto, 0, 10, 1);
  ASSERT_EQ(b.bins, 1u);
  EXPECT_EQ(b.matched, 3u);
  EXPECT_EQ(b.data[0].count, 3u);
  EXPECT_EQ(b.data[0].busy_ns, 2) << "only the (7,9) op has duration";
  // The representative is the heaviest event, never a zero-width one
  // when an alternative exists.
  EXPECT_EQ(b.data[0].rep.t_start, 7);
}

TEST_F(ExploreTest, RangeOutsideTheExtentMatchesNothing) {
  const evstore::TraceRun run = run_with_ops({{0, 10}, {50, 60}, {90, 100}});
  evstore::Cursor proto(*run.store);
  const evstore::TimeExtent ext = evstore::time_extent(*run.store, proto);
  EXPECT_EQ(ext.t_min, 0);
  EXPECT_EQ(ext.t_max, 100);

  for (const auto& [t0, t1] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{
           {1'000, 2'000}, {-500, -100}, {100, 200}}) {
    const evstore::BinnedSpans b =
        evstore::bin_events(*run.store, proto, t0, t1, 8);
    EXPECT_EQ(b.matched, 0u) << "[" << t0 << ", " << t1 << ")";
    for (const evstore::TimeBin& bin : b.data) EXPECT_EQ(bin.count, 0u);
  }
}

TEST_F(ExploreTest, EdgeCaseBinningIsDeterministicAcrossThreadCounts) {
  // Boundary-aligned and zero-duration events across several segments:
  // the shapes most likely to diverge under a sharded scan.
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (std::int64_t i = 0; i < 200'000; ++i) {
    spans.emplace_back(i * 10, (i % 3 == 0) ? i * 10 : i * 10 + 7);
  }
  const evstore::TraceRun run = run_with_ops(spans);
  auto snapshot = [&run] {
    evstore::Cursor proto(*run.store);
    const evstore::BinnedSpans b =
        evstore::bin_events(*run.store, proto, 0, 2'000'000, 333);
    std::string s;
    for (const evstore::TimeBin& bin : b.data) {
      s += std::to_string(bin.count) + "," + std::to_string(bin.busy_ns) +
           "," + std::to_string(bin.rep.op_index) + ";";
    }
    return s;
  };
  par::set_threads(1);
  const std::string ref = snapshot();
  for (const std::size_t tc : {2, 8}) {
    par::set_threads(tc);
    EXPECT_EQ(snapshot(), ref) << "threads=" << tc;
  }
}

// --- Service endpoints ------------------------------------------------------

TEST_F(ExploreTest, EndpointBodiesAreByteIdenticalAtEveryThreadCount) {
  save("tiny", testkit::make_synthetic_run({.events = 20'000}));
  const std::vector<std::string> targets = {
      "/api/timeline?run=tiny&px=512",
      "/api/timeline?run=tiny&px=64&tracks=op",
      "/api/flame?run=tiny",
      "/api/findings?run=tiny",
      "/api/syncsites?run=tiny",
  };
  std::vector<std::string> ref;
  for (const std::size_t tc : {1, 2, 8}) {
    par::set_threads(tc);
    // A fresh Service per thread count: nothing may answer from a cache
    // warmed under a different thread count.
    explore::Service svc({.root = dir_, .config = {}, .archive_root = {}});
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const explore::HttpResponse r = get(svc, targets[i]);
      EXPECT_EQ(r.status, 200) << targets[i];
      if (tc == 1) {
        ref.push_back(r.body);
      } else {
        EXPECT_EQ(r.body, ref[i]) << targets[i] << " threads=" << tc;
      }
    }
  }
}

TEST_F(ExploreTest, EmptyRunServesEveryEndpointWithoutServerError) {
  evstore::TraceRun empty;
  save("empty", empty);
  explore::Service svc({.root = dir_, .config = {}, .archive_root = {}});
  for (const std::string target :
       {"/api/runs", "/api/stat?run=empty", "/api/timeline?run=empty",
        "/api/flame?run=empty", "/api/findings?run=empty",
        "/api/syncsites?run=empty", "/", "/healthz"}) {
    const explore::HttpResponse r = get(svc, target);
    EXPECT_LT(r.status, 500) << target;
    if (r.content_type == "application/json") {
      EXPECT_NO_THROW((void)json::parse(r.body)) << target;
    }
  }
}

TEST_F(ExploreTest, TornLiveRunServesTheReadablePrefix) {
  const std::string path = dir_ + "/live.dgtrace";
  {
    // A writer that checkpoints every 1000 events and never finishes:
    // a live file with several complete chunks. Tearing a few bytes off
    // the end leaves the last chunk torn and the rest a clean prefix.
    const evstore::TraceRun src =
        testkit::make_synthetic_run({.events = 5'000});
    const evstore::EventStore& s = *src.store;
    evstore::TraceRun dst;
    dst.meta = src.meta;
    evstore::LiveRunWriter w(
        path, evstore::LiveRunWriter::Options{.fsync_checkpoints = false});
    for (std::uint64_t i = 0; i < s.size(); ++i) {
      evstore::Event e = s.event(i);
      e.stack = dst.store->intern_stack(s.stack_trace(e.stack));
      e.aux_stack = dst.store->intern_stack(s.stack_trace(e.aux_stack));
      e.name = e.name == evstore::kNoName
                   ? evstore::kNoName
                   : dst.store->intern_name(s.name(e.name));
      dst.store->append(e);
      if ((i + 1) % 1000 == 0) w.checkpoint(dst);
    }
  }
  fs::resize_file(path, fs::file_size(path) - 37);

  explore::Service svc({.root = dir_, .config = {}, .archive_root = {}});
  const explore::HttpResponse runs = get(svc, "/api/runs");
  ASSERT_EQ(runs.status, 200);
  EXPECT_NE(runs.body.find("in progress"), std::string::npos)
      << "live/torn state must be surfaced: " << runs.body;
  for (const std::string target :
       {"/api/stat?run=live", "/api/timeline?run=live", "/api/flame?run=live",
        "/api/syncsites?run=live"}) {
    const explore::HttpResponse r = get(svc, target);
    EXPECT_LT(r.status, 500) << target;
    EXPECT_NO_THROW((void)json::parse(r.body)) << target;
  }
  const json::Value tl = json::parse(get(svc, "/api/timeline?run=live").body);
  EXPECT_GT(tl.at("matched").as_int(), 0)
      << "the clean prefix must still be served";
}

TEST_F(ExploreTest, ErrorModelIs404ForUnknownAnd400ForBadParams) {
  save("ok", testkit::make_synthetic_run({.events = 1'000}));
  explore::Service svc({.root = dir_, .config = {}, .archive_root = {}});
  EXPECT_EQ(get(svc, "/api/stat?run=nope").status, 404);
  EXPECT_EQ(get(svc, "/api/timeline?run=../../etc/passwd").status, 404);
  EXPECT_EQ(get(svc, "/api/timeline?run=ok&tracks=flying_carpet").status,
            400);
  EXPECT_EQ(get(svc, "/api/timeline?run=ok&t0=9&t1=3").status, 400);
  EXPECT_EQ(get(svc, "/nope").status, 404);
  EXPECT_EQ(get(svc, "/healthz").status, 200);
}

TEST_F(ExploreTest, MillionEventViewportStaysUnderTheByteBudget) {
  save("big", testkit::make_synthetic_run({.events = 1'000'000}));
  explore::Service svc({.root = dir_, .config = {}, .archive_root = {}});
  for (const std::string target :
       {"/api/timeline?run=big&px=1024",
        "/api/timeline?run=big&px=2048&tracks=op,internal_span"}) {
    const explore::HttpResponse r = get(svc, target);
    ASSERT_EQ(r.status, 200) << target;
    EXPECT_LE(r.body.size(), std::size_t{512} * 1024) << target;
    const json::Value v = json::parse(r.body);
    EXPECT_GT(v.at("matched").as_int(), 900'000) << target;
  }
}

// --- Fleet endpoints --------------------------------------------------------

TEST_F(ExploreTest, HistoryEndpointBinsTheArchiveAndValidatesInput) {
  save("a", testkit::make_synthetic_run({.events = 5'000,
                                         .problem_sites = 2}));
  save("b", testkit::make_synthetic_run({.events = 5'000,
                                         .problem_sites = 2,
                                         .op_spacing_ns = 1001}));
  save("c", testkit::make_synthetic_run({.events = 5'000,
                                         .problem_sites = 6}));
  archive::Archive ar(archive::ArchiveOptions{
      .root = dir_ + "/archive", .config = {}, .ingest_wall_ms = 0});
  for (const char* n : {"a", "b", "c"}) {
    (void)ar.add(dir_ + "/" + n + ".dgtrace");
  }

  explore::Service svc({.root = dir_, .config = {}, .archive_root = {}});
  EXPECT_EQ(get(svc, "/api/history").status, 400) << "workload is required";
  EXPECT_EQ(get(svc, "/api/history?workload=nope").status, 404);

  const explore::HttpResponse ok =
      get(svc, "/api/history?workload=synthetic&px=2");
  ASSERT_EQ(ok.status, 200);
  const json::Value v = json::parse(ok.body);
  EXPECT_EQ(v.at("schema").as_string(), "diogenes.history.v1");
  EXPECT_EQ(v.at("runs").as_int(), 3);
  ASSERT_EQ(v.at("bins").size(), 2u);
  // Equal-width partition of 3 ingests into 2 bins: [0,1) and [1,3);
  // each bin reports its newest member plus min/max over the span.
  EXPECT_EQ(v.at("bins").at(0).at("i1").as_int(), 1);
  EXPECT_EQ(v.at("bins").at(1).at("i0").as_int(), 1);
  EXPECT_GE(v.at("bins").at(1).at("max_benefit_ns").as_int(),
            v.at("bins").at(1).at("min_benefit_ns").as_int());

  // px beyond the ingest count degenerates to one bin per ingest.
  const json::Value wide = json::parse(
      get(svc, "/api/history?workload=synthetic&px=500").body);
  EXPECT_EQ(wide.at("bins").size(), 3u);
}

TEST_F(ExploreTest, RegressionsEndpointReportsDriftedWorkloads) {
  save("a", testkit::make_synthetic_run({.events = 5'000,
                                         .problem_sites = 2}));
  save("b", testkit::make_synthetic_run({.events = 5'000,
                                         .problem_sites = 2,
                                         .op_spacing_ns = 1001}));
  save("c", testkit::make_synthetic_run({.events = 5'000,
                                         .problem_sites = 6}));
  archive::Archive ar(archive::ArchiveOptions{
      .root = dir_ + "/archive", .config = {}, .ingest_wall_ms = 0});
  for (const char* n : {"a", "b", "c"}) {
    (void)ar.add(dir_ + "/" + n + ".dgtrace");
  }

  explore::Service svc({.root = dir_, .config = {}, .archive_root = {}});
  EXPECT_EQ(get(svc, "/api/regressions?window=-2").status, 400);
  const explore::HttpResponse r = get(svc, "/api/regressions");
  ASSERT_EQ(r.status, 200);
  const json::Value v = json::parse(r.body);
  EXPECT_EQ(v.at("schema").as_string(), "diogenes.regress.v1");
  EXPECT_EQ(v.at("digests").as_int(), 3);
  EXPECT_EQ(v.at("drifted_workloads").as_int(), 1)
      << "the 6-site variant must register as drift: " << r.body;
  EXPECT_GT(v.at("reports").at(0).at("findings").size(), 0u);
}

TEST_F(ExploreTest, FleetEndpointsAnswer404WithoutAnArchive) {
  save("a", testkit::make_synthetic_run({.events = 1'000}));
  explore::Service svc({.root = dir_, .config = {}, .archive_root = {}});
  EXPECT_EQ(get(svc, "/api/history?workload=synthetic").status, 404);
  EXPECT_EQ(get(svc, "/api/regressions").status, 404);
  // /metrics still serves process metrics; the archive gauges are
  // simply absent.
  const explore::HttpResponse m = get(svc, "/metrics");
  EXPECT_EQ(m.status, 200);
  EXPECT_EQ(m.body.find("diogenes_archive_runs"), std::string::npos);
}

TEST_F(ExploreTest, MetricsEndpointSpeaksPrometheusTextFormat) {
  save("a", testkit::make_synthetic_run({.events = 1'000}));
  archive::Archive ar(archive::ArchiveOptions{
      .root = dir_ + "/archive", .config = {}, .ingest_wall_ms = 0});
  (void)ar.add(dir_ + "/a.dgtrace");

  explore::Service svc({.root = dir_, .config = {}, .archive_root = {}});
  (void)get(svc, "/api/runs");  // populate request counters
  const explore::HttpResponse m = get(svc, "/metrics");
  ASSERT_EQ(m.status, 200);
  EXPECT_NE(m.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(m.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(m.body.find("diogenes_archive_runs 1"), std::string::npos)
      << m.body;
  EXPECT_NE(m.body.find("diogenes_archive_workloads 1"), std::string::npos);

  // Every line is a comment or `name[{labels}] value`, names restricted
  // to the exposition alphabet.
  std::size_t pos = 0;
  while (pos < m.body.size()) {
    std::size_t eol = m.body.find('\n', pos);
    if (eol == std::string::npos) eol = m.body.size();
    const std::string line = m.body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string name = line.substr(0, line.find_first_of(" {"));
    EXPECT_FALSE(name.empty()) << line;
    for (const char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << line;
    }
    EXPECT_NO_THROW((void)std::stod(line.substr(sp + 1))) << line;
  }
}

// The fleet endpoints share one incrementally read archive: scrapes with
// no ingest in between parse no index line again, and an ingest costs
// the next request its one new line.
TEST_F(ExploreTest, FleetEndpointsReadEachIndexLineOnce) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::Telemetry::global().set_enabled(true);
  save("a", testkit::make_synthetic_run({.events = 1'000}));
  save("b", testkit::make_synthetic_run({.events = 1'000,
                                         .op_spacing_ns = 1001}));
  save("c", testkit::make_synthetic_run({.events = 1'000,
                                         .op_spacing_ns = 1002}));
  archive::Archive ar(archive::ArchiveOptions{
      .root = dir_ + "/archive", .config = {}, .ingest_wall_ms = 0});
  (void)ar.add(dir_ + "/a.dgtrace");
  (void)ar.add(dir_ + "/b.dgtrace");
  const auto lines_read = [] {
    return obs::Telemetry::global()
        .metrics()
        .counter("archive.index_lines_read")
        .value();
  };

  explore::Service svc({.root = dir_, .config = {}, .archive_root = {}});
  const std::uint64_t before = lines_read();
  std::vector<std::uint64_t> seen;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(get(svc, "/metrics").status, 200);
    seen.push_back(lines_read() - before);
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{2, 2, 2}));
  EXPECT_EQ(get(svc, "/api/history?workload=synthetic").status, 200);
  EXPECT_EQ(get(svc, "/api/regressions").status, 200);
  EXPECT_EQ(lines_read() - before, 2u);

  (void)ar.add(dir_ + "/c.dgtrace");
  const std::uint64_t after_add = lines_read();
  const explore::HttpResponse m = get(svc, "/metrics");
  EXPECT_NE(m.body.find("diogenes_archive_runs 3"), std::string::npos)
      << m.body;
  EXPECT_EQ(lines_read() - after_add, 1u);
}

// --- Filtered dump pushdown -------------------------------------------------

TEST_F(ExploreTest, DumpRangeAndKindFiltersSkipSegmentsAndBlocks) {
  // ~5 segments of 64K rows; ops carry t_start = i * 1000ns, so a narrow
  // late window leaves whole early segments (and most blocks of the
  // segment it lands in) skippable from their stats alone.
  const evstore::TraceRun run =
      testkit::make_synthetic_run({.events = 300'000});

  ffm::DumpOptions opts;
  opts.kind = "op";
  opts.t0 = 200'000'000;
  opts.t1 = 200'064'000;
  opts.max_events = 32;
  ffm::DumpStats stats;
  const std::string out = ffm::render_run_dump(run, opts, &stats);
  EXPECT_GT(stats.shown, 0u);
  EXPECT_LE(stats.shown, 32u);
  EXPECT_GT(stats.segments_skipped, 0u)
      << "range pushdown must skip whole early segments";
  EXPECT_GT(stats.blocks_skipped, 0u)
      << "range pushdown must skip blocks inside partial segments";
  EXPECT_NE(out.find("op"), std::string::npos);

  // A kind that never occurs: everything is skipped, nothing shown.
  ffm::DumpOptions none;
  none.kind = "duplicate_transfer";
  ffm::DumpStats nstats;
  (void)ffm::render_run_dump(run, none, &nstats);
  EXPECT_EQ(nstats.shown, 0u);
  EXPECT_GT(nstats.segments_skipped + nstats.blocks_skipped, 0u);

  EXPECT_THROW((void)ffm::render_run_dump(
                   run, ffm::DumpOptions{.kind = "no_such_kind"}),
               diog::Error);
}

// --- Explanation engine -----------------------------------------------------

TEST_F(ExploreTest, EveryFindingGetsANonEmptyExplanation) {
  const evstore::TraceRun run =
      testkit::make_synthetic_run({.events = 50'000});
  const ffm::AnalysisResult a = ffm::run_analysis(run, {});
  const std::vector<ffm::Finding> fs = ffm::collect_findings(a);
  ASSERT_FALSE(fs.empty()) << "the synthetic run must produce findings";
  const std::vector<ffm::Diagnosis> ex = ffm::diagnose(a, fs);
  ASSERT_EQ(ex.size(), fs.size());
  for (const ffm::Diagnosis& e : ex) {
    EXPECT_FALSE(e.pattern.empty());
    EXPECT_FALSE(e.headline.empty());
    EXPECT_FALSE(e.narrative.empty());
    EXPECT_NO_THROW((void)json::parse(e.to_json().dump()));
  }
  const std::string overview = ffm::render_explained_overview(a);
  EXPECT_NE(overview.find("why:"), std::string::npos);
}

}  // namespace
}  // namespace diog
