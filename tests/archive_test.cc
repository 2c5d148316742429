// The fleet archive (content addressing, dedup, crash tolerance, gc)
// and the cross-run regression sentinel (lower-median baseline, the
// drift taxonomy, report shapes).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "archive/digest.h"
#include "archive/regress.h"
#include "eventstore/run_io.h"
#include "json/json.h"
#include "support/error.h"
#include "testkit/synth_run.h"

namespace diog {
namespace {

namespace fs = std::filesystem;

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("diog_archive_") + info->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // A pinned-clock save of a synthetic run: same options, same bytes.
  std::string synth(const std::string& name,
                    const testkit::SynthRunOptions& opts) {
    const std::string path = dir_ + "/" + name + ".dgtrace";
    evstore::save_run(path, testkit::make_synthetic_run(opts),
                      evstore::SaveOptions{.footer_wall_ms = 0});
    return path;
  }

  archive::Archive open_archive() {
    return archive::Archive(archive::ArchiveOptions{
        .root = dir_ + "/archive", .config = {}, .ingest_wall_ms = 0});
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  std::string dir_;
};

// A digest forged for sentinel tests: real runs cannot cheaply produce
// every drift axis (drops, overhead), but the sentinel only reads the
// index, so a hand-built index exercises it completely.
archive::RunDigest forge(const std::string& id, std::int64_t benefit_ns,
                         std::uint64_t unnecessary_syncs = 32,
                         std::uint64_t dropped = 0,
                         double overhead_factor = 2.0) {
  archive::RunDigest d;
  d.run_id = id;
  d.workload = "w";
  d.events = 1000;
  d.dropped_events = dropped;
  d.unnecessary_syncs = unnecessary_syncs;
  d.sync_count = unnecessary_syncs * 2;
  d.overhead_factor = overhead_factor;
  d.total_benefit_ns = benefit_ns;
  return d;
}

bool has_kind(const archive::RegressReport& r, const std::string& kind) {
  for (const archive::DriftFinding& f : r.findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

// --- Content addressing -----------------------------------------------------

TEST_F(ArchiveTest, RunIdIsAHashOfTheFileBytes) {
  const std::string path = synth("a", {.events = 2'000});
  const std::string bytes = slurp(path);
  const std::string id = archive::run_id_of(
      std::as_bytes(std::span(bytes.data(), bytes.size())));
  ASSERT_EQ(id.size(), 16u);
  for (const char c : id) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << id;
  }

  archive::Archive ar = open_archive();
  const archive::Archive::AddResult r = ar.add(path);
  EXPECT_EQ(r.digest.run_id, id);
  EXPECT_FALSE(r.deduplicated);
  EXPECT_TRUE(fs::is_regular_file(r.object_path));
  EXPECT_EQ(slurp(r.object_path), bytes) << "object must hold the run bytes";
}

TEST_F(ArchiveTest, ReingestingIdenticalBytesDedupsAndAppendsNothing) {
  const std::string path = synth("a", {.events = 2'000});
  archive::Archive ar = open_archive();
  const archive::Archive::AddResult first = ar.add(path);
  const std::string index_before = slurp(archive::index_path(ar.root()));

  // Same bytes under a different file name: still the same object.
  const std::string copy = dir_ + "/copy.dgtrace";
  fs::copy_file(path, copy);
  const archive::Archive::AddResult again = ar.add(copy);
  EXPECT_TRUE(again.deduplicated);
  EXPECT_EQ(again.digest.run_id, first.digest.run_id);
  EXPECT_EQ(slurp(archive::index_path(ar.root())), index_before)
      << "a dedup add must leave the index byte-identical";
  EXPECT_EQ(ar.index().size(), 1u);
}

TEST_F(ArchiveTest, DigestSurvivesAJsonRoundTrip) {
  const std::string path = synth("a", {.events = 5'000, .problem_sites = 3});
  archive::Archive ar = open_archive();
  const archive::RunDigest d = ar.add(path).digest;
  EXPECT_EQ(d.workload, "synthetic");
  EXPECT_EQ(d.events, 5'000u);
  EXPECT_GT(d.total_benefit_ns, 0);
  EXPECT_FALSE(d.findings.empty());
  EXPECT_LE(d.findings.size(), archive::kDigestTopFindings);

  const json::Value v = d.to_json();
  EXPECT_EQ(v.at("schema").as_string(), "diogenes.digest.v1");
  const archive::RunDigest back = archive::RunDigest::from_json(v);
  EXPECT_EQ(back.to_json().dump(), v.dump());
  EXPECT_EQ(back.run_id, d.run_id);
  EXPECT_EQ(back.events_by_kind[0], d.events_by_kind[0]);
  EXPECT_EQ(back.findings.size(), d.findings.size());
  for (std::size_t i = 0; i < d.findings.size(); ++i) {
    EXPECT_EQ(back.findings[i].title, d.findings[i].title);
    EXPECT_EQ(back.findings[i].benefit_ns, d.findings[i].benefit_ns);
  }

  // A v3-coded run file should show its codec win in the digest, and the
  // field must survive the round trip.
  EXPECT_GT(d.compression_ratio, 1.0);
  EXPECT_EQ(back.compression_ratio, d.compression_ratio);
}

TEST_F(ArchiveTest, DigestWithoutRatioFieldLoadsWithDefault) {
  // Schema compatibility: compression_ratio is an additive v1 field. An
  // index line written by a build that predates it must keep loading,
  // with the neutral 1.0 default.
  const std::string path = synth("a", {.events = 1'000});
  archive::Archive ar = open_archive();
  json::Value v = ar.add(path).digest.to_json();
  json::Object o = v.as_object();
  ASSERT_EQ(o.erase("compression_ratio"), 1u);
  const archive::RunDigest back =
      archive::RunDigest::from_json(json::Value(std::move(o)));
  EXPECT_EQ(back.compression_ratio, 1.0);
}

TEST_F(ArchiveTest, RejectsAnUnfinalizedRun) {
  // A finalized file with the footer torn off is an in-progress prefix.
  const std::string path = synth("torn", {.events = 3'000});
  fs::resize_file(path, fs::file_size(path) - 37);
  archive::Archive ar = open_archive();
  EXPECT_THROW((void)ar.add(path), diog::Error);
  EXPECT_TRUE(ar.index().empty());
}

// --- Index durability -------------------------------------------------------

TEST_F(ArchiveTest, IndexToleratesATornFinalLine) {
  archive::Archive ar = open_archive();
  (void)ar.add(synth("a", {.events = 2'000}));
  (void)ar.add(synth("b", {.events = 2'000, .problem_sites = 6}));
  ASSERT_EQ(ar.index().size(), 2u);

  // A crash mid-append leaves a torn last line; it must be skipped.
  std::ofstream(archive::index_path(ar.root()),
                std::ios::binary | std::ios::app)
      << "{\"schema\":\"diogenes.digest.v1\",\"run_id\":\"tr";
  const std::vector<archive::RunDigest> idx = ar.index();
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0].workload, "synthetic");
}

// One Archive reads the index incrementally; after every kind of change
// another writer can make, it must hold what a fresh Archive reads.
TEST_F(ArchiveTest, IncrementalIndexMatchesAFreshRead) {
  archive::Archive ar = open_archive();
  archive::Archive other = open_archive();
  const std::string index_file = archive::index_path(ar.root());
  const auto dump = [](const std::vector<archive::RunDigest>& idx) {
    std::string out;
    for (const archive::RunDigest& d : idx) out += d.to_json().dump() + '\n';
    return out;
  };
  const auto expect_fresh = [&](const char* step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(dump(ar.index()), dump(open_archive().index()));
  };
  const auto append_raw = [&](const std::string& text) {
    std::ofstream(index_file, std::ios::binary | std::ios::app) << text;
  };

  expect_fresh("no index yet");
  const archive::Archive::AddResult a = ar.add(synth("a", {.events = 2'000}));
  expect_fresh("own add");
  (void)other.add(synth("b", {.events = 2'000, .problem_sites = 6}));
  expect_fresh("another archive's add");
  ASSERT_EQ(ar.index().size(), 2u);

  // A torn line, then the rest of it: skipped, then read.
  const std::string line = forge("00000000000000aa", 5'000'000)
                               .to_json()
                               .dump();
  append_raw(line.substr(0, line.size() / 2));
  expect_fresh("torn tail");
  EXPECT_EQ(ar.index().size(), 2u);
  append_raw(line.substr(line.size() / 2) + '\n');
  expect_fresh("torn tail completed");
  EXPECT_EQ(ar.index().size(), 3u);
  // A whole line still missing its newline reads as an entry, once.
  append_raw(forge("00000000000000bb", 6'000'000).to_json().dump());
  expect_fresh("unterminated line");
  append_raw("\n");
  expect_fresh("unterminated line terminated");
  EXPECT_EQ(ar.index().size(), 4u);

  // gc by another archive rewrites the index (the forged entries have
  // no objects, and neither has `a` now).
  fs::remove(a.object_path);
  EXPECT_EQ(other.gc().index_entries, 1u);
  expect_fresh("another archive's gc");
  EXPECT_EQ(ar.index().size(), 1u);
  (void)ar.add(synth("c", {.events = 3'000}));
  expect_fresh("own add after gc");
  EXPECT_EQ(ar.index().size(), 2u);
}

TEST_F(ArchiveTest, GcCollectsOrphansAndCompactsStaleEntries) {
  archive::Archive ar = open_archive();
  const archive::Archive::AddResult a = ar.add(synth("a", {.events = 2'000}));
  const archive::Archive::AddResult b =
      ar.add(synth("b", {.events = 2'000, .problem_sites = 6}));

  // An orphan: an object no index line references (crash between the
  // object rename and the index append).
  const std::string orphan =
      archive::object_path(ar.root(), "00000000deadbeef");
  std::ofstream(orphan, std::ios::binary) << "orphaned bytes";
  // A stale entry: the object vanished out from under the index.
  fs::remove(a.object_path);

  const archive::Archive::GcStats gc = ar.gc();
  EXPECT_EQ(gc.objects_kept, 1u);
  EXPECT_EQ(gc.objects_removed, 1u);
  EXPECT_GT(gc.bytes_removed, 0u);
  EXPECT_EQ(gc.index_entries, 1u);
  EXPECT_EQ(gc.index_dropped, 1u);

  EXPECT_FALSE(fs::exists(orphan));
  const std::vector<archive::RunDigest> idx = ar.index();
  ASSERT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx[0].run_id, b.digest.run_id);

  const archive::Archive::Stats st = ar.stats();
  EXPECT_EQ(st.runs, 1u);
  EXPECT_EQ(st.workloads, 1u);
  EXPECT_EQ(st.index_entries, 1u);
}

// --- Regression sentinel ----------------------------------------------------

TEST_F(ArchiveTest, RegressFlagsSeededDriftAndIsSilentOnARepeat) {
  const std::string a1 = synth("a1", {.events = 20'000, .problem_sites = 2});
  const std::string a2 = synth("a2", {.events = 20'000, .problem_sites = 2,
                                      .op_spacing_ns = 1001});
  const std::string b =
      synth("b", {.events = 20'000, .problem_sites = 6});

  archive::Archive ar = open_archive();
  (void)ar.add(a1);
  (void)ar.add(a2);

  // Two statistically-identical runs: no drift.
  const archive::RegressReport quiet =
      archive::check_workload(ar.index(), "synthetic");
  EXPECT_FALSE(quiet.drifted()) << quiet.render();
  EXPECT_EQ(quiet.baseline_run_ids.size(), 1u);

  // Re-ingesting known bytes changes nothing, so still no drift.
  (void)ar.add(a2);
  EXPECT_FALSE(archive::check_workload(ar.index(), "synthetic").drifted());

  // The 6-site variant lands: the sentinel must flag it.
  (void)ar.add(b);
  const archive::RegressReport drift =
      archive::check_workload(ar.index(), "synthetic");
  EXPECT_TRUE(drift.drifted());
  EXPECT_TRUE(has_kind(drift, "benefit-drift") ||
              has_kind(drift, "sync-drift"))
      << drift.render();
  EXPECT_EQ(drift.workload, "synthetic");
  EXPECT_EQ(drift.baseline_run_ids.size(), 2u);

  // Findings are severity-ordered and carry the narrative shape.
  for (std::size_t i = 1; i < drift.findings.size(); ++i) {
    EXPECT_GE(drift.findings[i - 1].severity, drift.findings[i].severity);
  }
  for (const archive::DriftFinding& f : drift.findings) {
    EXPECT_FALSE(f.headline.empty());
    EXPECT_FALSE(f.narrative.empty());
    EXPECT_FALSE(f.evidence.empty());
  }
}

TEST_F(ArchiveTest, BaselineIsTheLowerMedianNotTheMean) {
  // One outlier in the window must not move the baseline: four quiet
  // runs at 10ms plus one 100ms outlier still baseline at 10ms, so a
  // 10ms newest run does not drift.
  std::vector<archive::RunDigest> idx = {
      forge("r1", 10'000'000), forge("r2", 10'000'000),
      forge("r3", 100'000'000), forge("r4", 10'000'000),
      forge("r5", 10'000'000), forge("r6", 10'000'000)};
  EXPECT_FALSE(archive::check_workload(idx, "w").drifted());

  // Against the same baseline, a doubled newest run does drift.
  idx.back().total_benefit_ns = 20'000'000;
  const archive::RegressReport r = archive::check_workload(idx, "w");
  EXPECT_TRUE(has_kind(r, "benefit-drift")) << r.render();
}

TEST_F(ArchiveTest, BenefitDriftNeedsBothRelativeAndAbsoluteMagnitude) {
  // +100% but only 10us absolute: under the 1ms floor, not a finding.
  const std::vector<archive::RunDigest> tiny = {forge("r1", 10'000),
                                                forge("r2", 20'000)};
  EXPECT_FALSE(archive::check_workload(tiny, "w").drifted());

  // +5% of 100ms is 5ms — over the floor but under the 10% threshold.
  const std::vector<archive::RunDigest> small = {forge("r1", 100'000'000),
                                                 forge("r2", 105'000'000)};
  EXPECT_FALSE(
      has_kind(archive::check_workload(small, "w"), "benefit-drift"));
}

TEST_F(ArchiveTest, FindingAppearedAndDisappearedAreDetected) {
  archive::DigestFinding stalwart;
  stalwart.title = "sync@alpha";
  stalwart.benefit_ns = 5'000'000;
  archive::DigestFinding newcomer;
  newcomer.title = "sync@beta";
  newcomer.benefit_ns = 4'000'000;

  archive::RunDigest base1 = forge("r1", 10'000'000);
  base1.findings = {stalwart};
  archive::RunDigest base2 = forge("r2", 10'000'000);
  base2.findings = {stalwart};

  archive::RunDigest newest = forge("r3", 10'000'000);
  newest.findings = {newcomer};

  const archive::RegressReport r =
      archive::check_workload({base1, base2, newest}, "w");
  EXPECT_TRUE(has_kind(r, "finding-appeared")) << r.render();
  EXPECT_TRUE(has_kind(r, "finding-disappeared")) << r.render();

  // Present in only PART of the window: its absence is not "disappeared"
  // (it was never a stable fact of the workload).
  archive::RunDigest base3 = forge("r0", 10'000'000);
  const archive::RegressReport part =
      archive::check_workload({base3, base1, newest}, "w");
  EXPECT_FALSE(has_kind(part, "finding-disappeared")) << part.render();
}

TEST_F(ArchiveTest, DropRateDriftIsOneDirectional) {
  // Newest drops ~9.1% of appends vs a 0% baseline: flagged.
  const std::vector<archive::RunDigest> worse = {
      forge("r1", 10'000'000, 32, 0),
      forge("r2", 10'000'000, 32, 100)};
  EXPECT_TRUE(has_kind(archive::check_workload(worse, "w"), "drop-rate"));

  // Newest drops LESS than the baseline: an improvement, not a page.
  const std::vector<archive::RunDigest> better = {
      forge("r1", 10'000'000, 32, 100),
      forge("r2", 10'000'000, 32, 0)};
  EXPECT_FALSE(has_kind(archive::check_workload(better, "w"), "drop-rate"));
}

TEST_F(ArchiveTest, OverheadDriftUsesItsOwnThreshold) {
  // 2.0x -> 3.0x collection overhead is +50%, over the 25% threshold.
  const std::vector<archive::RunDigest> drifted = {
      forge("r1", 10'000'000, 32, 0, 2.0),
      forge("r2", 10'000'000, 32, 0, 3.0)};
  EXPECT_TRUE(
      has_kind(archive::check_workload(drifted, "w"), "overhead-drift"));

  // 2.0x -> 2.2x is +10%: under it.
  const std::vector<archive::RunDigest> fine = {
      forge("r1", 10'000'000, 32, 0, 2.0),
      forge("r2", 10'000'000, 32, 0, 2.2)};
  EXPECT_FALSE(
      has_kind(archive::check_workload(fine, "w"), "overhead-drift"));
}

TEST_F(ArchiveTest, SingleDigestWorkloadsHaveNothingToCompare) {
  const std::vector<archive::RunDigest> one = {forge("r1", 10'000'000)};
  const archive::RegressReport r = archive::check_workload(one, "w");
  EXPECT_FALSE(r.drifted());
  EXPECT_TRUE(r.baseline_run_ids.empty());
  EXPECT_TRUE(archive::check_all(one, {}).empty());
}

TEST_F(ArchiveTest, ReportJsonAndTextCarryTheNarrativeShape) {
  const std::vector<archive::RunDigest> idx = {forge("r1", 10'000'000),
                                               forge("r2", 40'000'000)};
  const archive::RegressReport r = archive::check_workload(idx, "w");
  ASSERT_TRUE(r.drifted());

  const json::Value v = r.to_json();
  EXPECT_EQ(v.at("schema").as_string(), "diogenes.regress.v1");
  EXPECT_EQ(v.at("workload").as_string(), "w");
  EXPECT_EQ(v.at("run_id").as_string(), "r2");
  const json::Value& f = v.at("findings").at(0);
  EXPECT_FALSE(f.at("kind").as_string().empty());
  EXPECT_FALSE(f.at("headline").as_string().empty());
  EXPECT_FALSE(f.at("narrative").as_string().empty());
  EXPECT_NO_THROW((void)json::parse(v.dump()));

  const std::string text = r.render();
  EXPECT_NE(text.find("workload w:"), std::string::npos) << text;
  EXPECT_NE(text.find("why:"), std::string::npos) << text;
}

}  // namespace
}  // namespace diog
