// Differential fix evaluation: the Table-1 methodology as a library.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/compare.h"

namespace diog::ffm {
namespace {

FixOutcome rodinia_outcome() {
  apps::RodiniaGaussianConfig cfg;
  cfg.matrix_dim = 64;
  return evaluate_fix(apps::make_rodinia_gaussian(cfg),
                      apps::make_rodinia_gaussian(cfg, true));
}

TEST(CompareAnalyses, RodiniaFixResolvesThreadSyncFold) {
  const FixOutcome o = rodinia_outcome();
  EXPECT_GT(o.realized().count(), 0);

  bool thread_sync_resolved = false;
  for (const GroupDelta& d : o.deltas) {
    if (d.title == "Fold on cudaThreadSynchronize") {
      EXPECT_GT(d.before.count(), 0);
      EXPECT_TRUE(d.disappeared());
      thread_sync_resolved = true;
    }
  }
  EXPECT_TRUE(thread_sync_resolved);
  EXPECT_TRUE(o.new_problems.empty());
}

TEST(CompareAnalyses, AccuracyInTablOneBand) {
  const FixOutcome o = rodinia_outcome();
  EXPECT_GT(o.accuracy(), 0.5);
  EXPECT_LE(o.accuracy(), 1.0);
}

// Table 1 (bench_table1): each app's estimate, scoped to the problems
// its fix corrects, against the time the fix actually saves. The
// figures are deterministic; a change to any of them must be justified.
TEST(CompareAnalyses, TableOneAccuraciesArePinned) {
  const std::map<std::string, double> expected = {
      {"cumf_als", 0.62}, {"cuIBM", 0.92}, {"AMG", 0.81}, {"Rodinia", 0.70}};
  const std::vector<apps::AppPair> app_list = apps::all_apps();
  ASSERT_EQ(app_list.size(), expected.size());
  for (const apps::AppPair& app : app_list) {
    SCOPED_TRACE(app.name);
    const ScopedFixOutcome o =
        evaluate_scoped_fix(app.pathological, app.fixed, app.fix_scope);
    EXPECT_NEAR(o.accuracy(), expected.at(app.name), 0.005);
  }
}

TEST(CompareAnalyses, AmgFixResolvesMemsetOnly) {
  apps::AmgConfig cfg;
  cfg.solve_iterations = 30;
  const FixOutcome o = evaluate_fix(apps::make_amg(cfg),
                                    apps::make_amg(cfg, true));
  bool memset_resolved = false;
  for (const GroupDelta& d : o.deltas) {
    if (d.title == "Fold on cudaMemset") {
      EXPECT_TRUE(d.disappeared());
      memset_resolved = true;
    }
    // The frees were not part of the AMG fix: their fold remains.
    if (d.title == "Fold on cudaFree") {
      EXPECT_GT(d.after.count(), 0);
    }
  }
  EXPECT_TRUE(memset_resolved);
}

TEST(CompareAnalyses, IdenticalRunsShowNoChange) {
  apps::RodiniaGaussianConfig cfg;
  cfg.matrix_dim = 32;
  const Workload w = apps::make_rodinia_gaussian(cfg);
  const FixOutcome o = evaluate_fix(w, w);
  EXPECT_EQ(o.realized(), Duration{0});
  EXPECT_EQ(o.estimated_for_resolved, Duration{0});
  EXPECT_TRUE(o.new_problems.empty());
}

TEST(CompareAnalyses, ReversedComparisonFlagsNewProblems) {
  apps::RodiniaGaussianConfig cfg;
  cfg.matrix_dim = 32;
  // "Fixing" from the fixed variant back to the pathological one: the
  // thread-sync fold APPEARS — a regression the report must call out.
  const FixOutcome o =
      evaluate_fix(apps::make_rodinia_gaussian(cfg, true),
                   apps::make_rodinia_gaussian(cfg));
  ASSERT_FALSE(o.new_problems.empty());
  EXPECT_NE(std::find(o.new_problems.begin(), o.new_problems.end(),
                      "Fold on cudaThreadSynchronize"),
            o.new_problems.end());
}

TEST(CompareAnalyses, RenderedReport) {
  const FixOutcome o = rodinia_outcome();
  const std::string text = render_fix_outcome(o);
  EXPECT_NE(text.find("Fix evaluation"), std::string::npos);
  EXPECT_NE(text.find("realized"), std::string::npos);
  EXPECT_NE(text.find("accuracy"), std::string::npos);
  EXPECT_NE(text.find("[resolved]"), std::string::npos);
}

}  // namespace
}  // namespace diog::ffm
