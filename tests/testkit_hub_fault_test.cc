// Fault injection through the hub's four sites (ISSUE 9 satellite):
// accept, session read, spool write, spool fsync. The contract is the
// same one the local persistence layer honors under ISSUE 4 faults —
// every injected failure surfaces as a classified diog::Error, and the
// spool left behind is always a readable run-file prefix, never a
// corrupt one.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "eventstore/run_format.h"
#include "eventstore/run_io.h"
#include "hub/client.h"
#include "hub/protocol.h"
#include "hub/server.h"
#include "hub/session.h"
#include "support/error.h"
#include "testkit/fault_plan.h"
#include "testkit/synth_run.h"

namespace diog::testkit {
namespace {

namespace fs = std::filesystem;
namespace fmt = evstore::format;

class HubFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("diog_hubfault_") + info->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    // Large enough that the v3-compressed file still spans several of
    // the server's 64 KiB reads — the read-fault test's `after` count
    // assumes the stream cannot drain in one or two recv() calls.
    SynthRunOptions so;
    so.events = 20000;
    evstore::TraceRun run = make_synthetic_run(so);
    run.meta.workload = "hub_fault_wl";
    const std::string local = dir_ + "/local.dgtrace";
    evstore::SaveOptions sv;
    sv.footer_wall_ms = 0;
    evstore::save_run(local, run, sv);
    std::ifstream in(local, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Streams hello + the saved run into a session; rethrows feed errors.
  void stream_all(hub::Session& session) {
    const std::string hello = hub::encode_hello("hub_fault_wl");
    session.feed(reinterpret_cast<const unsigned char*>(hello.data()),
                 hello.size());
    constexpr std::size_t kStep = 997;
    for (std::size_t off = 0; off < bytes_.size(); off += kStep) {
      session.feed(bytes_.data() + off,
                   std::min(kStep, bytes_.size() - off));
    }
    session.end_of_stream();
  }

  std::string dir_;
  std::vector<unsigned char> bytes_;
};

// A failed spool write (ENOSPC on the hub host) classifies, and the
// frames that landed before it remain a readable prefix. `after = 1`
// lets the 16-byte header through, so the prefix is a valid empty run.
TEST_F(HubFaultTest, SpoolWriteFailureLeavesAReadableHeaderPrefix) {
  FaultPlan plan(11);
  FaultSpec spec;
  spec.site = "hub.spool.write";
  spec.action = FaultAction::kFail;
  spec.after = 1;
  plan.add(spec);

  const std::string spool = dir_ + "/spool.dgtrace";
  {
    FaultScope scope(plan);
    hub::SessionOptions sopts;
    sopts.spool_path = spool;
    sopts.fsync_spool = false;
    hub::Session session(std::move(sopts));
    try {
      stream_all(session);
      FAIL() << "injected spool write failure did not surface";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("write failed for hub spool"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("injected fault"),
                std::string::npos);
    }
    EXPECT_TRUE(session.failed());
  }
  EXPECT_EQ(plan.fires("hub.spool.write"), 1u);
  EXPECT_GE(plan.hits("hub.spool.write"), 2u);

  // The header-only spool opens as an empty, unfinalized prefix.
  ASSERT_TRUE(fs::exists(spool));
  EXPECT_EQ(fs::file_size(spool), fmt::kHeaderBytes);
  evstore::RunFileInfo info;
  (void)evstore::open_run(spool, evstore::ReadMode::kAuto, &info);
  EXPECT_EQ(info.events, 0u);
  EXPECT_FALSE(info.finalized);
}

// A short write mid-frame tears the spool exactly the way a killed
// server would: the partial frame is a torn tail, the frames before it
// are intact, and open_run classifies the file as a readable prefix.
TEST_F(HubFaultTest, ShortSpoolWriteTearsTheFrameNotTheContract) {
  FaultPlan plan(12);
  FaultSpec spec;
  spec.site = "hub.spool.write";
  spec.action = FaultAction::kShortWrite;
  spec.after = 2;      // header + first frame land whole
  spec.magnitude = 7;  // then 7 bytes of the next frame
  plan.add(spec);

  const std::string spool = dir_ + "/spool.dgtrace";
  {
    FaultScope scope(plan);
    hub::SessionOptions sopts;
    sopts.spool_path = spool;
    sopts.fsync_spool = false;
    hub::Session session(std::move(sopts));
    EXPECT_THROW(stream_all(session), Error);
    EXPECT_TRUE(session.failed());
  }
  EXPECT_EQ(plan.fires("hub.spool.write"), 1u);

  // 16-byte header + one whole frame + a 7-byte torn tail — and the
  // reader shrugs the tail off as a crash would leave it.
  ASSERT_TRUE(fs::exists(spool));
  EXPECT_GT(fs::file_size(spool), fmt::kHeaderBytes + 7u);
  evstore::RunFileInfo info;
  EXPECT_NO_THROW(
      (void)evstore::open_run(spool, evstore::ReadMode::kAuto, &info));
  EXPECT_FALSE(info.clean);
  EXPECT_FALSE(info.finalized);
}

TEST_F(HubFaultTest, SpoolFsyncFailureClassifiesAndKeepsThePrefix) {
  FaultPlan plan(13);
  FaultSpec spec;
  spec.site = "hub.spool.fsync";
  plan.add(spec);

  const std::string spool = dir_ + "/spool.dgtrace";
  {
    FaultScope scope(plan);
    hub::SessionOptions sopts;
    sopts.spool_path = spool;
    sopts.fsync_spool = true;  // the site only arms on the durable path
    hub::Session session(std::move(sopts));
    try {
      stream_all(session);
      FAIL() << "injected fsync failure did not surface";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("fsync failed for hub spool"),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(session.failed());
  }
  EXPECT_GE(plan.fires("hub.spool.fsync"), 1u);

  // Everything written before the failed sync was flushed on the error
  // path, so the spool is still a coherent prefix.
  ASSERT_TRUE(fs::exists(spool));
  evstore::RunFileInfo info;
  EXPECT_NO_THROW(
      (void)evstore::open_run(spool, evstore::ReadMode::kAuto, &info));
}

// A refused accept() surfaces to the client as the injected fault's
// classified Error, fires exactly once, and the very next push succeeds
// — the daemon does not wedge on a transient accept failure.
TEST_F(HubFaultTest, AcceptFaultRefusesOneConnectionThenRecovers) {
  hub::ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  hub::HubServer server(std::move(sopts));
  server.bind();
  std::thread serve([&server] { server.serve(); });

  FaultPlan plan(14);
  FaultSpec spec;
  spec.site = "hub.accept";
  spec.max_fires = 1;
  plan.add(spec);

  hub::ClientOptions copts;
  copts.port = server.port();
  copts.workload = "hub_fault_wl";
  {
    FaultScope scope(plan);
    try {
      (void)hub::push_bytes(bytes_.data(), bytes_.size(), copts);
      ADD_FAILURE() << "push accepted despite the injected accept fault";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "hub: accept failed (injected fault)"),
                std::string::npos)
          << e.what();
    }
    const hub::HubResponse r =
        hub::push_bytes(bytes_.data(), bytes_.size(), copts);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.deduplicated);
    // Stop inside the scope: serving threads must not outlive the plan.
    server.stop();
    serve.join();
  }
  EXPECT_EQ(plan.fires("hub.accept"), 1u);
}

// A failed read mid-session classifies, leaves the spool behind as the
// validated prefix, and the retry lands the full run.
TEST_F(HubFaultTest, SessionReadFaultClassifiesAndTheRetrySucceeds) {
  hub::ServerOptions sopts;
  sopts.archive_root = dir_ + "/archive";
  sopts.ingest_wall_ms = 0;
  hub::HubServer server(std::move(sopts));
  server.bind();
  std::thread serve([&server] { server.serve(); });

  FaultPlan plan(15);
  FaultSpec spec;
  spec.site = "hub.session.read";
  spec.after = 2;  // let the hello + header reads through first
  spec.max_fires = 1;
  plan.add(spec);

  hub::ClientOptions copts;
  copts.port = server.port();
  copts.workload = "hub_fault_wl";
  {
    FaultScope scope(plan);
    // The read fault aborts the session after the payload drained, so
    // the refusal line normally survives; tolerate a reset regardless.
    EXPECT_THROW((void)hub::push_bytes(bytes_.data(), bytes_.size(), copts),
                 Error);
    const hub::HubResponse r =
        hub::push_bytes(bytes_.data(), bytes_.size(), copts);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.events, 20000u);
    server.stop();
    serve.join();
  }
  EXPECT_EQ(plan.fires("hub.session.read"), 1u);

  // The aborted session's spool survives for post-mortem inspection and
  // opens as a readable prefix of what had validated before the fault.
  std::size_t spools = 0;
  for (const auto& entry :
       fs::directory_iterator(dir_ + "/archive/spool")) {
    ++spools;
    evstore::RunFileInfo info;
    EXPECT_NO_THROW((void)evstore::open_run(
        entry.path().string(), evstore::ReadMode::kAuto, &info));
  }
  EXPECT_EQ(spools, 1u);
}
}  // namespace
}  // namespace diog::testkit
