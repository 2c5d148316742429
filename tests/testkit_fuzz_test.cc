// The structure-aware fuzzer (ISSUE 4, leg 1) and the satellite-1
// regression corpus. The mini campaigns here run with second-scale
// budgets and fixed seeds: they are the tier-1 smoke that the fuzzing
// harness itself works end to end; CI's dedicated job runs the same
// targets for 60 s under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "eventstore/run_format.h"
#include "eventstore/run_io.h"
#include "support/error.h"
#include "support/rng.h"
#include "testkit/dgtrace_builder.h"
#include "testkit/fuzz.h"

namespace diog::testkit {
namespace {

namespace fs = std::filesystem;

std::string data_file(const std::string& name) {
  return std::string(DIOG_TEST_DATA_DIR) + "/dgtrace/regression/" + name;
}

class FuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("diog_fuzz_") + info->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  FuzzOptions mini(const std::string& target, std::uint64_t max_execs) {
    FuzzOptions o;
    o.target = target;
    o.seed = 1;
    o.budget_s = 20.0;  // generous wall cap; max_execs is the real bound
    o.max_execs = max_execs;
    o.corpus_dir = dir_;
    return o;
  }

  std::string dir_;
};

// --- the mutator -------------------------------------------------------------

TEST_F(FuzzTest, MutateIsDeterministicForAFixedSeed) {
  const Bytes base = make_minimal_run(8);
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(mutate(base, a, 4096), mutate(base, b, 4096)) << "step " << i;
  }
}

TEST_F(FuzzTest, MutateRespectsTheSizeCap) {
  Bytes base = make_minimal_run(8);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    base = mutate(base, rng, 512);
    ASSERT_LE(base.size(), 512u) << "step " << i;
  }
}

TEST_F(FuzzTest, MinimizeInputShrinksToTheEssentialByte) {
  Bytes input(300, 0);
  input[257] = 0xAB;
  const auto predicate = [](const Bytes& b) {
    for (const unsigned char c : b) {
      if (c == 0xAB) return true;
    }
    return false;
  };
  const Bytes min = minimize_input(input, predicate);
  ASSERT_EQ(min.size(), 1u);
  EXPECT_EQ(min[0], 0xAB);
}

// --- mini campaigns ----------------------------------------------------------

TEST_F(FuzzTest, RunIoCampaignFindsNoContractViolations) {
  const FuzzStats stats = run_fuzzer(mini("run-io", 3000));
  EXPECT_TRUE(stats.ok()) << stats.render();
  EXPECT_EQ(stats.execs, 3000u);
  // The mutator must actually reach the parser: some inputs load, some
  // get rejected, and more than one rejection message exists.
  EXPECT_GT(stats.clean_errors, 0u);
  EXPECT_GT(stats.clean_ok + stats.clean_prefix, 0u);
  EXPECT_GT(stats.error_classes, 3u);
}

TEST_F(FuzzTest, FollowerCampaignFindsNoContractViolations) {
  const FuzzStats stats = run_fuzzer(mini("follower", 800));
  EXPECT_TRUE(stats.ok()) << stats.render();
  EXPECT_EQ(stats.execs, 800u);
}

TEST_F(FuzzTest, RingCampaignFindsNoCounterViolations) {
  const FuzzStats stats = run_fuzzer(mini("ring", 40));
  EXPECT_TRUE(stats.ok()) << stats.render();
  EXPECT_EQ(stats.execs, 40u);
}

TEST_F(FuzzTest, CampaignIsDeterministicForAFixedSeed) {
  FuzzOptions o = mini("run-io", 500);
  o.corpus_dir = dir_ + "/a";
  const FuzzStats first = run_fuzzer(o);
  o.corpus_dir = dir_ + "/b";
  const FuzzStats second = run_fuzzer(o);
  EXPECT_EQ(first.clean_ok, second.clean_ok);
  EXPECT_EQ(first.clean_prefix, second.clean_prefix);
  EXPECT_EQ(first.clean_errors, second.clean_errors);
  EXPECT_EQ(first.error_classes, second.error_classes);
}

TEST_F(FuzzTest, UnknownTargetIsRejected) {
  FuzzOptions o;
  o.target = "nonsense";
  EXPECT_THROW((void)run_fuzzer(o), Error);
}

TEST_F(FuzzTest, CommittedCorpusSeedsAreUsed) {
  const std::string corpus =
      std::string(DIOG_TEST_DATA_DIR) + "/dgtrace/corpus";
  ASSERT_TRUE(fs::is_directory(corpus)) << corpus;
  FuzzOptions o = mini("run-io", 400);
  // Findings and artifacts would go to the corpus dir — run on a copy.
  for (const auto& ent : fs::directory_iterator(corpus)) {
    fs::copy_file(ent.path(), fs::path(dir_) / ent.path().filename());
  }
  const FuzzStats stats = run_fuzzer(o);
  EXPECT_EQ(stats.corpus_inputs, 7u);
  EXPECT_TRUE(stats.ok()) << stats.render();
}

// --- satellite 1: the committed regression inputs ----------------------------

TEST(DgtraceRegression, CleanFilesLoadCleanly) {
  evstore::RunFileInfo info;
  const evstore::TraceRun mini =
      evstore::open_run(data_file("mini_clean.dgtrace"),
                        evstore::ReadMode::kAuto, &info);
  EXPECT_TRUE(info.clean);
  EXPECT_TRUE(info.finalized);
  EXPECT_EQ(mini.store->size(), 4u);

  const evstore::TraceRun multi =
      evstore::open_run(data_file("mini_multichunk.dgtrace"),
                        evstore::ReadMode::kAuto, &info);
  EXPECT_TRUE(info.clean);
  EXPECT_EQ(info.chunks, 2u);
  EXPECT_EQ(multi.store->size(), 20u);
}

TEST(DgtraceRegression, TornTailLoadsAsPrefix) {
  evstore::RunFileInfo info;
  const evstore::TraceRun run =
      evstore::open_run(data_file("torn_tail.dgtrace"),
                        evstore::ReadMode::kAuto, &info);
  EXPECT_FALSE(info.clean);
  EXPECT_FALSE(info.finalized);
  EXPECT_EQ(info.chunks, 1u);
  EXPECT_EQ(run.store->size(), 6u);
}

TEST(DgtraceRegression, ZeroLengthChunkIsCorrupt) {
  // Satellite 1: a complete zero-payload chunk is hard corruption — the
  // writer can never emit one — and must not parse as an empty record.
  EXPECT_THROW((void)evstore::open_run(data_file("zero_len_chunk.dgtrace")),
               Error);
}

TEST(DgtraceRegression, UndersizedChunkIsCorrupt) {
  EXPECT_THROW((void)evstore::open_run(data_file("undersized_chunk.dgtrace")),
               Error);
}

TEST(DgtraceRegression, OverlappingChunksAreCorrupt) {
  // Satellite 1: an event range that rewinds into the previous chunk's
  // is self-overlapping data, distinct from a legitimate ring gap.
  EXPECT_THROW((void)evstore::open_run(data_file("overlap_chunks.dgtrace")),
               Error);
}

TEST(DgtraceRegression, ChecksumMismatchIsCorrupt) {
  EXPECT_THROW((void)evstore::open_run(data_file("bad_checksum.dgtrace")),
               Error);
}

TEST(DgtraceRegression, LyingFooterIsCorrupt) {
  EXPECT_THROW((void)evstore::open_run(data_file("footer_mismatch.dgtrace")),
               Error);
}

TEST(DgtraceRegression, TruncatedHeaderIsCorrupt) {
  EXPECT_THROW((void)evstore::open_run(data_file("truncated_header.dgtrace")),
               Error);
}

// --- v3 coded chunks and v2 compatibility ------------------------------------

TEST(DgtraceRegression, V2FileOpensUnderTheV3Reader) {
  evstore::RunFileInfo info;
  const evstore::TraceRun run =
      evstore::open_run(data_file("v2_multichunk.dgtrace"),
                        evstore::ReadMode::kAuto, &info);
  EXPECT_TRUE(info.clean);
  EXPECT_TRUE(info.finalized);
  EXPECT_EQ(info.format_version, 2u);
  EXPECT_EQ(run.store->size(), 20u);
  // v2 columns are stored raw, so the compression accounting is 1:1.
  EXPECT_DOUBLE_EQ(info.compression_ratio(), 1.0);
}

TEST(DgtraceRegression, V2FileRoundTripsThroughAV3Save) {
  const auto dir = fs::temp_directory_path() / "diog_v2_roundtrip";
  fs::create_directories(dir);
  const std::string resaved = (dir / "resaved.dgtrace").string();

  evstore::RunFileInfo before;
  const evstore::TraceRun run = evstore::open_run(
      data_file("v2_multichunk.dgtrace"), evstore::ReadMode::kAuto, &before);
  evstore::SaveOptions sv;
  sv.footer_wall_ms = 0;
  evstore::save_run(resaved, run, sv);

  evstore::RunFileInfo after;
  const evstore::TraceRun again =
      evstore::open_run(resaved, evstore::ReadMode::kAuto, &after);
  EXPECT_EQ(after.format_version, 3u);
  ASSERT_EQ(again.store->size(), run.store->size());
  for (std::uint64_t i = 0; i < run.store->size(); ++i) {
    const evstore::Event a = run.store->event(i);
    const evstore::Event b = again.store->event(i);
    ASSERT_EQ(a.kind, b.kind) << "row " << i;
    ASSERT_EQ(a.op_index, b.op_index) << "row " << i;
    ASSERT_EQ(a.t_start, b.t_start) << "row " << i;
    ASSERT_EQ(a.t_end, b.t_end) << "row " << i;
  }
  fs::remove_all(dir);
}

TEST(DgtraceRegression, CodedChunksLoadCleanly) {
  evstore::RunFileInfo info;
  const evstore::TraceRun run =
      evstore::open_run(data_file("v3_coded_clean.dgtrace"),
                        evstore::ReadMode::kAuto, &info);
  EXPECT_TRUE(info.clean);
  EXPECT_TRUE(info.finalized);
  EXPECT_EQ(info.format_version, 3u);
  ASSERT_EQ(run.store->size(), 300u);
  // The builder's independent codec implementation must decode to the
  // values it encoded: ascending t_start (delta), cycling kinds.
  for (std::uint64_t i = 0; i < 300; ++i) {
    ASSERT_EQ(run.store->col_t_start().get(i),
              static_cast<std::int64_t>(8000 + 7 * i))
        << "row " << i;
    ASSERT_EQ(run.store->col_kind().get(i), i % 3) << "row " << i;
  }
  // Delta/varint columns genuinely compressed: stored < raw.
  ASSERT_EQ(info.chunk_stats.size(), 1u);
  EXPECT_GT(info.compression_ratio(), 2.0);
}

TEST(DgtraceRegression, UnknownChunkEncodingIsCorrupt) {
  try {
    (void)evstore::open_run(data_file("bad_chunk_encoding.dgtrace"));
    FAIL() << "unknown chunk encoding byte did not classify";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk encoding"),
              std::string::npos)
        << e.what();
  }
}

TEST(DgtraceRegression, UnknownColumnCodecIsCorrupt) {
  try {
    (void)evstore::open_run(data_file("bad_column_codec.dgtrace"));
    FAIL() << "unknown column codec did not classify";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("codec"), std::string::npos)
        << e.what();
  }
}

TEST(DgtraceRegression, TruncatedBitpackedDeltaIsCorrupt) {
  EXPECT_THROW((void)evstore::open_run(data_file("truncated_bitpack.dgtrace")),
               Error);
}

TEST(DgtraceRegression, VarintOverrunIsCorrupt) {
  try {
    (void)evstore::open_run(data_file("varint_overrun.dgtrace"));
    FAIL() << "varint overrun did not classify";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("varint"), std::string::npos)
        << e.what();
  }
}

// Every reader rejects api ids past hooks::Fn::kCount_ (the stored "no
// API" value) at open, not later in a report that names the API.
TEST(DgtraceRegression, UnknownApiIdIsCorrupt) {
  try {
    (void)evstore::open_run(data_file("unknown_api.dgtrace"));
    FAIL() << "api id past Fn::kCount_ accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("run file corrupted: unknown api"),
              std::string::npos)
        << e.what();
  }
}

// What one reader made of a file: its error text, or its event count.
struct ReadVerdict {
  std::string error;
  std::uint64_t events = 0;
};

template <typename Read>
ReadVerdict verdict_of(Read&& read) {
  ReadVerdict v;
  try {
    v.events = read();
  } catch (const Error& e) {
    v.error = e.what();
  }
  return v;
}

// The hub's stream policy over a file's bytes: every frame must be
// whole and valid, and the bytes must end at a footer (a session turns
// a stream torn before its footer into an error).
std::uint64_t stream_events(const Bytes& bytes) {
  evstore::StreamParser parser;
  std::size_t off = 0;
  while (const std::size_t n = parser.accept(
             bytes.data() + off, bytes.size() - off, bytes.size())) {
    off += n;
  }
  if (!parser.clean()) throw Error("run stream ended before its footer");
  return parser.events();
}

// Every reader of the run format gives one answer per regression and
// corpus input. open_run and a RunFollower that finds the whole file
// present at its first poll agree on the error text or the event count. The hub's StreamParser, fed the same bytes,
// counts the same events where open_run reports a clean file, and
// throws wherever open_run throws or stops at a readable prefix.
TEST(DgtraceRegression, EveryReaderAgreesOnEveryRegressionAndCorpusInput) {
  std::vector<std::string> paths;
  for (const char* dir : {"/dgtrace/regression", "/dgtrace/corpus"}) {
    const std::string root = std::string(DIOG_TEST_DATA_DIR) + dir;
    for (const auto& entry : fs::directory_iterator(root)) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_EQ(paths.size(), 26u);  // 19 regression inputs, 7 corpus files
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    evstore::RunFileInfo info;
    const ReadVerdict opened = verdict_of([&] {
      return evstore::open_run(path, evstore::ReadMode::kAuto, &info)
          .store->size();
    });
    const ReadVerdict follow = verdict_of([&] {
      evstore::RunFollower follower(path);
      return follower.poll();
    });
    const ReadVerdict parsed =
        verdict_of([&] { return stream_events(read_file(path)); });
    if (opened.error.empty() && info.clean) {
      EXPECT_EQ(parsed.error, "");
      EXPECT_EQ(parsed.events, opened.events);
    } else {
      EXPECT_NE(parsed.error, "");
    }
    if (path.ends_with("/truncated_header.dgtrace")) {
      // A follower reads a short header as "not written yet".
      EXPECT_NE(opened.error, "");
      EXPECT_EQ(follow.error, "");
      EXPECT_EQ(follow.events, 0u);
      continue;
    }
    EXPECT_EQ(follow.error, opened.error);
    EXPECT_EQ(follow.events, opened.events);
  }
}

}  // namespace
}  // namespace diog::testkit
