// Known-answer table of the four evaluation apps' diagnoses: for each
// app, every finding's title and bug pattern in overview order, and
// every fix recommendation's remedy, dynamic occurrences and distinct
// sites in ranking order. These are the answers the analyzer gives
// today; an accuracy scorecard grades changes to them against injected
// bugs, so any change here must be deliberate.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/diagnosis.h"
#include "core/report.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "support/error.h"
#include "testkit/synth_run.h"

namespace diog::ffm {
namespace {

struct FindingAnswer {
  std::string title;
  std::string pattern;
  bool operator==(const FindingAnswer&) const = default;
};

struct FixAnswer {
  std::string remedy;
  std::size_t occurrences = 0;
  std::size_t sites = 0;
  bool operator==(const FixAnswer&) const = default;
};

void PrintTo(const FindingAnswer& a, std::ostream* os) {
  *os << "{" << a.title << ", " << a.pattern << "}";
}
void PrintTo(const FixAnswer& a, std::ostream* os) {
  *os << "{" << a.remedy << ", " << a.occurrences << ", " << a.sites << "}";
}

const AnalysisResult& analysis_for(const std::string& name) {
  static std::map<std::string, AnalysisResult> cache;
  const auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  for (const auto& app : apps::all_apps()) {
    if (app.name == name) {
      Diogenes tool(app.pathological);
      return cache.emplace(name, tool.analyze()).first->second;
    }
  }
  throw Error("unknown app " + name);
}

std::vector<FindingAnswer> findings_of(const AnalysisResult& r) {
  std::vector<FindingAnswer> out;
  const std::vector<Finding> fs = collect_findings(r);
  const std::vector<Diagnosis> ds = diagnose(r, fs);
  for (std::size_t k = 0; k < fs.size(); ++k) {
    out.push_back({fs[k].group->title, ds[k].pattern});
  }
  return out;
}

std::vector<FixAnswer> fixes_of(const AnalysisResult& r) {
  std::vector<FixAnswer> out;
  for (const FixRecommendation& rec : recommend_fixes(r)) {
    out.push_back({std::string(to_string(rec.remedy)), rec.occurrences,
                   rec.sites.size()});
  }
  return out;
}

TEST(DiagnosisKnownAnswers, CumfAls) {
  const AnalysisResult& r = analysis_for("cumf_als");
  const std::string seq738 =
      "Sequence starting at call cudaMemcpy in als.cpp at line 738";
  EXPECT_EQ(findings_of(r),
            (std::vector<FindingAnswer>{
                {seq738, "sync-in-hot-loop"},
                {"Fold on cudaFree", "template-folded-sync"},
                {"Fold on cudaMemcpy", "duplicate-transfer"},
                {"Fold on cudaDeviceSynchronize", "template-folded-sync"},
                {seq738, "limited-benefit-sync"},
                {"Fold on cuPrivMemFree", "template-folded-sync"},
                {"Sequence starting at call cudaFree in als.cpp at line 402",
                 "limited-benefit-sync"},
            }));
  EXPECT_EQ(fixes_of(r), (std::vector<FixAnswer>{
                             {"hoist-alloc-free", 1284, 22},
                             {"cache-transfer", 118, 2},
                             {"remove-sync", 120, 2},
                         }));
}

TEST(DiagnosisKnownAnswers, CuIBM) {
  const AnalysisResult& r = analysis_for("cuIBM");
  const std::string seq114 =
      "Sequence starting at call cudaDeviceSynchronize in TimeStep.cu at "
      "line 114";
  EXPECT_EQ(findings_of(r),
            (std::vector<FindingAnswer>{
                {seq114, "sync-in-hot-loop"},
                {"Fold on cudaFree", "template-folded-sync"},
                {"Fold on cudaMemcpyAsync", "template-folded-sync"},
                {"Fold on cudaStreamSynchronize", "limited-benefit-sync"},
                {seq114, "redundant-device-sync"},
                {"Fold on cudaDeviceSynchronize", "limited-benefit-sync"},
                {"Sequence starting at call cudaFree in thrustlike.h at line "
                 "38",
                 "redundant-device-sync"},
            }));
  EXPECT_EQ(fixes_of(r), (std::vector<FixAnswer>{
                             {"hoist-alloc-free", 1600, 3},
                             {"remove-sync", 800, 2},
                         }));
}

TEST(DiagnosisKnownAnswers, AMG) {
  const AnalysisResult& r = analysis_for("AMG");
  EXPECT_EQ(findings_of(r),
            (std::vector<FindingAnswer>{
                {"Sequence starting at call cudaMemset in par_relax.c at line "
                 "533",
                 "sync-in-hot-loop"},
                {"Fold on cudaMemset", "template-folded-sync"},
                {"Fold on cudaFree", "template-folded-sync"},
                {"Fold on cudaStreamSynchronize", "redundant-device-sync"},
                {"Sequence starting at call cudaDeviceSynchronize in "
                 "par_amg_solve.c at line 92",
                 "limited-benefit-sync"},
                {"Fold on cudaDeviceSynchronize", "limited-benefit-sync"},
            }));
  EXPECT_EQ(fixes_of(r), (std::vector<FixAnswer>{
                             {"host-memset", 240, 1},
                             {"hoist-alloc-free", 244, 3},
                             {"remove-sync", 121, 2},
                         }));
}

TEST(DiagnosisKnownAnswers, Rodinia) {
  const AnalysisResult& r = analysis_for("Rodinia");
  EXPECT_EQ(findings_of(r),
            (std::vector<FindingAnswer>{
                {"Fold on cudaThreadSynchronize", "limited-benefit-sync"},
                {"Sequence starting at call cudaThreadSynchronize in "
                 "gaussian.cu at line 325",
                 "limited-benefit-sync"},
                {"Fold on cudaFree", "template-folded-sync"},
                {"Sequence starting at call cudaFree in gaussian.cu at line "
                 "120",
                 "limited-benefit-sync"},
            }));
  EXPECT_EQ(fixes_of(r), (std::vector<FixAnswer>{
                             {"remove-sync", 512, 2},
                         }));
}

// The diagnosis accounts for its own cost: one span around the fact
// scan and the classification, and none when only the findings are
// collected (the archive's digest path reads no diagnosis).
TEST(Diagnosis, RecordsOneSpanPerCall) {
  const AnalysisResult r = run_analysis(
      testkit::make_synthetic_run({.events = 50'000}), {});
  auto& t = obs::Telemetry::global();
  t.reset();
  t.set_enabled(true);
  (void)collect_findings(r);
  const auto collected = t.spans().snapshot();
  (void)render_explained_overview(r);
  const auto explained = t.spans().snapshot();
  t.reset();
  const auto count = [](const std::vector<obs::SpanRecord>& recs) {
    return std::count_if(recs.begin(), recs.end(),
                         [](const obs::SpanRecord& s) {
                           return s.name == "findings.diagnose";
                         });
  };
  EXPECT_EQ(count(collected), 0);
  EXPECT_EQ(count(explained), obs::kCompiledIn ? 1 : 0);
}

}  // namespace
}  // namespace diog::ffm
