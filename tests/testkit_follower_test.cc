// RunFollower under file-identity attacks (ISSUE 4, satellite 2): a
// followed run file that is truncated below the consumed prefix or
// atomically replaced mid-follow must be detected — the follower either
// resyncs from a safe point or reports the discontinuity, and never
// serves stale or mixed bytes as if nothing happened.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "eventstore/live_writer.h"
#include "eventstore/run_format.h"
#include "eventstore/run_io.h"
#include "support/error.h"
#include "testkit/dgtrace_builder.h"

namespace diog::testkit {
namespace {

namespace fs = std::filesystem;

class FollowerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("diog_follow_") + info->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = dir_ + "/run.dgtrace";
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Header + two chunks (events 0..7, 8..19), no footer: an in-progress
  // file a writer could legitimately still be appending to.
  Bytes two_chunk_file() const {
    Bytes b = make_header();
    ChunkParams c1;
    c1.event_count = 8;
    append(b, make_chunk(c1));
    ChunkParams c2;
    c2.first_event_index = 8;
    c2.event_count = 12;
    append(b, make_chunk(c2));
    return b;
  }

  std::string dir_;
  std::string path_;
};

TEST_F(FollowerTest, TruncationBelowConsumedPrefixIsDetected) {
  write_file(path_, two_chunk_file());
  evstore::RunFollower follower(path_);
  EXPECT_EQ(follower.poll(), 20u);

  // The writer's file is truncated to the middle of chunk 1 — below
  // everything the follower already consumed.
  fs::resize_file(path_, evstore::format::kHeaderBytes + 10);
  EXPECT_THROW((void)follower.poll(), Error);
}

TEST_F(FollowerTest, TruncationToZeroIsDetected) {
  write_file(path_, two_chunk_file());
  evstore::RunFollower follower(path_);
  EXPECT_EQ(follower.poll(), 20u);

  fs::resize_file(path_, 0);
  EXPECT_THROW((void)follower.poll(), Error);
}

TEST_F(FollowerTest, AtomicReplacementIsDetected) {
  write_file(path_, two_chunk_file());
  evstore::RunFollower follower(path_);
  EXPECT_EQ(follower.poll(), 20u);

  // rename(2) over the followed path: the classic log-rotation move. The
  // replacement is even LARGER than the consumed prefix, so a size check
  // alone would miss it — the follower must notice the identity change.
  Bytes other = two_chunk_file();
  ChunkParams c3;
  c3.first_event_index = 20;
  c3.event_count = 30;
  append(other, make_chunk(c3));
  append(other, make_footer(/*final=*/true, 50, 3));
  const std::string tmp = dir_ + "/replacement.dgtrace";
  write_file(tmp, other);
  fs::rename(tmp, path_);

  EXPECT_THROW((void)follower.poll(), Error);
}

TEST_F(FollowerTest, ReplacementBeforeFirstConsumptionIsJustANewFile) {
  // If the follower never validated the original header, there is no
  // consumed prefix to betray: it simply follows whatever is there now.
  evstore::RunFollower follower(path_);
  EXPECT_EQ(follower.poll(), 0u);  // file does not exist yet

  const std::string tmp = dir_ + "/first.dgtrace";
  write_file(tmp, two_chunk_file());
  fs::rename(tmp, path_);
  EXPECT_EQ(follower.poll(), 20u);
}

TEST_F(FollowerTest, NormalGrowthAndFooterRewritesAreNotFlagged) {
  // The detection must not false-positive on the legitimate pattern:
  // the same file growing chunk by chunk, footer rewritten in place at
  // every checkpoint.
  evstore::TraceRun run;
  run.meta.workload = "follow_wl";
  evstore::LiveRunWriter::Options opts;
  opts.fsync_checkpoints = false;
  evstore::LiveRunWriter w(path_, opts);
  evstore::RunFollower follower(path_);

  std::uint64_t seen = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 100; ++i) {
      evstore::Event e;
      e.kind = evstore::EventKind::kOp;
      e.op_index = static_cast<std::uint64_t>(round * 100 + i);
      run.store->append(e);
    }
    w.checkpoint(run, /*force=*/true);
    seen += follower.poll();
  }
  w.finish(run);
  seen += follower.poll();
  EXPECT_EQ(seen, 500u);
  EXPECT_TRUE(follower.finalized());
}

TEST_F(FollowerTest, TruncationAtExactConsumedOffsetIsBenign) {
  // Chopping the unconsumed torn tail off (what a cleanup pass might
  // do) leaves every consumed byte intact — not a discontinuity.
  Bytes b = two_chunk_file();
  const std::size_t complete = b.size();
  b.push_back('C');  // one stray byte of a future chunk
  write_file(path_, b);

  evstore::RunFollower follower(path_);
  EXPECT_EQ(follower.poll(), 20u);
  fs::resize_file(path_, complete);
  EXPECT_EQ(follower.poll(), 0u);  // nothing new, no error
}


// A chunk whose columns fail to decode leaves no rows behind: after the
// throw, both incremental readers hold exactly the rows of the chunks
// that loaded completely. Each committed corrupt input is read alone
// and behind one clean chunk.
TEST_F(FollowerTest, FailedChunkDecodeLeavesOnlyCompleteChunksCounted) {
  struct Input {
    const char* file;
    CodedChunkParams corrupt;
  };
  CodedChunkParams bitpack;
  bitpack.event_count = 200;
  bitpack.corruption = CodedChunkParams::Corruption::kTruncatedDelta;
  CodedChunkParams varint;
  varint.event_count = 16;
  varint.corruption = CodedChunkParams::Corruption::kVarintOverrun;
  varint.corrupt_column = 12;
  for (Input in : {Input{"truncated_bitpack.dgtrace", bitpack},
                   Input{"varint_overrun.dgtrace", varint}}) {
    SCOPED_TRACE(in.file);
    const Bytes alone = read_file(std::string(DIOG_TEST_DATA_DIR) +
                                  "/dgtrace/regression/" + in.file);
    CodedChunkParams clean;
    clean.event_count = 300;
    in.corrupt.first_event_index = clean.event_count;
    Bytes behind = make_header();
    append(behind, make_coded_chunk(clean));
    append(behind, make_coded_chunk(in.corrupt));

    for (const auto& [bytes, complete_rows] :
         {std::pair{alone, std::uint64_t{0}},
          std::pair{behind, clean.event_count}}) {
      write_file(path_, bytes);
      evstore::RunFollower follower(path_);
      EXPECT_THROW(follower.poll(), Error);
      EXPECT_EQ(follower.run().store->size(), complete_rows);

      evstore::StreamParser parser;
      std::size_t off = 0;
      EXPECT_THROW(
          for (;;) {
            const std::size_t n = parser.accept(
                bytes.data() + off, bytes.size() - off, bytes.size());
            if (n == 0) break;
            off += n;
          },
          Error);
      EXPECT_EQ(parser.run().store->size(), complete_rows);
      EXPECT_EQ(parser.events(), complete_rows);
    }
  }
}

// A value too wide for its column, or a raw column whose length
// disagrees with the row count, is the same corruption to every reader:
// open_run, a RunFollower and a StreamParser all throw
// the same text.
TEST_F(FollowerTest, NarrowColumnViolationsGiveOneErrorFromEveryReader) {
  using Corruption = CodedChunkParams::Corruption;
  struct Case {
    Corruption corruption;
    std::uint8_t column;
    const char* error;
  };
  const Case cases[] = {
      {Corruption::kVarintTooWide, 1,  // api: 0x10000 in 2 bytes
       "run file corrupted: varint value overflows column"},
      {Corruption::kVarintTooWide, 4,  // stack: 2^32 in 4 bytes
       "run file corrupted: varint value overflows column"},
      {Corruption::kDeltaTooWide, 2,  // flags: 2^32 in 4 bytes
       "run file corrupted: delta value overflows column"},
      {Corruption::kRawLengthMismatch, 1,
       "run file corrupted: raw column length mismatch"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.error + std::string(" in column ") +
                 std::to_string(c.column));
    CodedChunkParams params;
    params.event_count = 16;
    params.corruption = c.corruption;
    params.corrupt_column = c.column;
    Bytes bytes = make_header();
    append(bytes, make_coded_chunk(params));
    write_file(path_, bytes);

    const auto error_of = [](const auto& read) {
      try {
        read();
      } catch (const Error& e) {
        return std::string(e.what());
      }
      return std::string("no error");
    };
    EXPECT_EQ(error_of([&] { (void)evstore::open_run(path_); }), c.error);
    EXPECT_EQ(error_of([&] { (void)evstore::RunFollower(path_).poll(); }),
              c.error);
    EXPECT_EQ(error_of([&] {
                evstore::StreamParser parser;
                std::size_t off = 0;
                while (const std::size_t n = parser.accept(
                           bytes.data() + off, bytes.size() - off,
                           bytes.size())) {
                  off += n;
                }
              }),
              c.error);
  }
}

}  // namespace
}  // namespace diog::testkit
