// Tests of the automatic-correction prototype (paper §6 future work):
// each evaluation app must yield the remedy the paper actually applied,
// ranked by benefit, with sane evidence and thresholds.
#include <gtest/gtest.h>

#include <map>

#include "apps/apps.h"
#include "core/diagnosis.h"
#include "support/error.h"
#include "testkit/synth_run.h"

namespace diog::ffm {
namespace {

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

const FixRecommendation* find_remedy(
    const std::vector<FixRecommendation>& recs, RemedyKind kind) {
  for (const auto& r : recs) {
    if (r.remedy == kind) return &r;
  }
  return nullptr;
}

TEST(Autofix, CumfAlsTopRemedyIsHoistAllocFree) {
  const auto recs = recommend_fixes(analysis_for("cumf_als"));
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].remedy, RemedyKind::kHoistAllocFree);
  EXPECT_GT(recs[0].fraction_of_exec, 0.10);
  EXPECT_GT(recs[0].sites.size(), 10u);  // the 20 per-iteration frees
}

TEST(Autofix, CumfAlsRecommendsCachingDuplicateUploads) {
  const auto recs = recommend_fixes(analysis_for("cumf_als"));
  const FixRecommendation* cache_fix =
      find_remedy(recs, RemedyKind::kCacheTransfer);
  ASSERT_NE(cache_fix, nullptr);
  EXPECT_EQ(cache_fix->sites.size(), 2u);  // tiles A and B
  // 59 of 60 iterations re-upload both tiles.
  EXPECT_EQ(cache_fix->occurrences, 118u);
  EXPECT_NE(cache_fix->safety_note.find("mprotect"), std::string::npos);
}

TEST(Autofix, CumfAlsRemoveSyncIsLowPriority) {
  // The deviceSynchronize calls: a remedy exists, but it ranks last —
  // the paper's entire point.
  const auto recs = recommend_fixes(analysis_for("cumf_als"));
  const FixRecommendation* hoist =
      find_remedy(recs, RemedyKind::kHoistAllocFree);
  const FixRecommendation* remove =
      find_remedy(recs, RemedyKind::kRemoveSync);
  ASSERT_NE(hoist, nullptr);
  if (remove != nullptr) {
    EXPECT_LT(remove->expected_benefit, hoist->expected_benefit / 5);
  }
}

TEST(Autofix, CuibmRecommendsPoolingThrustTemporaries) {
  const auto recs = recommend_fixes(analysis_for("cuIBM"));
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].remedy, RemedyKind::kHoistAllocFree);
  // The sites carry the Thrust template locations.
  bool thrust_site = false;
  for (const std::string& s : recs[0].sites) {
    if (s.find("thrustlike.h") != std::string::npos) thrust_site = true;
  }
  EXPECT_TRUE(thrust_site);
}

TEST(Autofix, AmgRecommendsHostMemset) {
  const auto recs = recommend_fixes(analysis_for("AMG"));
  const FixRecommendation* memset_fix =
      find_remedy(recs, RemedyKind::kHostMemset);
  ASSERT_NE(memset_fix, nullptr);
  // It is the top recommendation, as it was the paper's AMG fix.
  EXPECT_EQ(recs[0].remedy, RemedyKind::kHostMemset);
  EXPECT_NE(memset_fix->action.find("plain memset"), std::string::npos);
  ASSERT_EQ(memset_fix->sites.size(), 1u);
  EXPECT_NE(memset_fix->sites[0].find("par_relax.c"), std::string::npos);
}

TEST(Autofix, RodiniaRecommendsRemovingThreadSyncs) {
  const auto recs = recommend_fixes(analysis_for("Rodinia"));
  const FixRecommendation* remove =
      find_remedy(recs, RemedyKind::kRemoveSync);
  ASSERT_NE(remove, nullptr);
  EXPECT_EQ(remove->sites.size(), 2u);  // the two per-row sync lines
  EXPECT_EQ(remove->occurrences, 512u);
  EXPECT_NE(remove->safety_note.find("negligible"), std::string::npos);
}

TEST(Autofix, ThresholdSuppressesTinyFixes) {
  // The synthetic run's one remedy is remove-sync on its
  // cudaDeviceSynchronize fold: 2.05% of execution at 50K events with 4
  // problem sites, 0.26% at 100K events with 1. Under the threshold the
  // diagnosis still names the remedy, but no recommendation is made.
  const AnalysisResult above = run_analysis(
      testkit::make_synthetic_run({.events = 50'000}), {});
  const auto recs = recommend_fixes(above);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].remedy, RemedyKind::kRemoveSync);
  EXPECT_GE(recs[0].fraction_of_exec, kMinFixBenefitFraction);

  const AnalysisResult below = run_analysis(
      testkit::make_synthetic_run({.events = 100'000, .problem_sites = 1}),
      {});
  std::vector<Finding> folds = collect_findings(below);
  std::erase_if(folds, [](const Finding& f) {
    return f.source != Finding::Source::kFold;
  });
  ASSERT_EQ(folds.size(), 1u);
  const std::vector<Diagnosis> d = diagnose(below, folds);
  ASSERT_EQ(d[0].remedies.size(), 1u);
  EXPECT_EQ(d[0].remedies[0].remedy, RemedyKind::kRemoveSync);
  EXPECT_GT(d[0].remedies[0].fraction_of_exec, 0.0);
  EXPECT_LT(d[0].remedies[0].fraction_of_exec, kMinFixBenefitFraction);
  EXPECT_TRUE(recommend_fixes(below).empty());
}

TEST(Autofix, RecommendationsSortedByBenefit) {
  const auto recs = recommend_fixes(analysis_for("cumf_als"));
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GE(recs[i - 1].expected_benefit, recs[i].expected_benefit);
  }
}

TEST(Autofix, JsonSerialization) {
  const auto recs = recommend_fixes(analysis_for("AMG"));
  ASSERT_FALSE(recs.empty());
  const json::Value v = recs[0].to_json();
  EXPECT_EQ(v.at("remedy").as_string(), "host-memset");
  EXPECT_GT(v.at("expected_benefit_ns").as_int(), 0);
  EXPECT_GT(v.at("sites").size(), 0u);
  EXPECT_FALSE(v.at("action").as_string().empty());
}

TEST(Autofix, RenderIncludesActionsAndSafety) {
  const AnalysisResult& r = analysis_for("AMG");
  const auto recs = recommend_fixes(r);
  const std::string text = render_recommendations(r, recs);
  EXPECT_NE(text.find("host-memset"), std::string::npos);
  EXPECT_NE(text.find("action:"), std::string::npos);
  EXPECT_NE(text.find("safety:"), std::string::npos);
}

TEST(Autofix, RemedyNames) {
  EXPECT_EQ(to_string(RemedyKind::kHoistAllocFree), "hoist-alloc-free");
  EXPECT_EQ(to_string(RemedyKind::kHostMemset), "host-memset");
  EXPECT_EQ(to_string(RemedyKind::kRemoveSync), "remove-sync");
  EXPECT_EQ(to_string(RemedyKind::kCacheTransfer), "cache-transfer");
  EXPECT_EQ(to_string(RemedyKind::kMoveSyncLater), "move-sync-later");
}

}  // namespace
}  // namespace diog::ffm
