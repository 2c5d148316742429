// Golden-format tests of the terminal reports: the displays mirror the
// paper's Figures 6-8 layout, and their key lines must stay stable (the
// CLI, examples and EXPERIMENTS.md all quote them).
#include <gtest/gtest.h>

#include "core/report.h"
#include "trace/callstack.h"

namespace diog::ffm {
namespace {

using hooks::Fn;

// Build a deterministic AnalysisResult by hand: three problem nodes at
// two sites inside a 10-second execution.
AnalysisResult handmade_result() {
  AnalysisResult r;
  r.workload_name = "golden";
  r.run.meta.s1_exec = secs(10.0);

  // The graph resolves stack ids through the result's own run store.
  const trace::StackTrace stack({
      trace::FrameTable::instance().intern("main", "app.cc", 1),
      trace::FrameTable::instance().intern("update<float>", "als.cpp", 856)});
  const evstore::StackId st = r.run.store->intern_stack(stack);

  std::vector<Node> nodes;
  for (int i = 0; i < 2; ++i) {
    Node wait;
    wait.type = NType::kCWait;
    wait.duration = secs(1.0);
    wait.problem = ProblemType::kUnnecessarySync;
    wait.api = Fn::kCudaFree;
    wait.stack = st;
    wait.op_index = i;
    nodes.push_back(wait);

    Node work;
    work.type = NType::kCWork;
    work.duration = secs(3.0);
    nodes.push_back(work);
  }
  Node terminal;
  terminal.type = NType::kCWait;
  nodes.push_back(terminal);
  r.graph = ExecutionGraph(std::move(nodes), secs(10.0), r.run.store);
  r.benefit = expected_benefit(r.graph);
  r.single_points = single_point_groups(r.graph);
  r.folds = folded_api_groups(r.graph);
  r.sequences = sequence_groups(r.graph, {}, 1);
  return r;
}

TEST(ReportGolden, OverviewLayout) {
  const AnalysisResult r = handmade_result();
  const std::string text = render_overview(r);
  EXPECT_NE(text.find("Diogenes Overview Display (golden)"),
            std::string::npos);
  EXPECT_NE(text.find("Time(s) (% of execution time)"), std::string::npos);
  // 2 x 1s waits fully recoverable out of 10s.
  EXPECT_NE(text.find("2.000s (20.00%)"), std::string::npos);
  EXPECT_NE(text.find("Fold on cudaFree"), std::string::npos);
  EXPECT_NE(text.find("Back/Previous"), std::string::npos);
  EXPECT_NE(text.find("Exit"), std::string::npos);
}

TEST(ReportGolden, FoldExpansionShowsFoldedTemplate) {
  const AnalysisResult r = handmade_result();
  ASSERT_FALSE(r.folds.empty());
  const std::string text = render_fold_expansion(r, r.folds[0]);
  // Template parameters are discarded in the expansion line.
  EXPECT_NE(text.find("update<...>"), std::string::npos);
  EXPECT_EQ(text.find("update<float>"), std::string::npos);
  EXPECT_NE(text.find("Conditionally unnecessary (see: conditions)"),
            std::string::npos);
}

TEST(ReportGolden, SequenceLayoutMatchesFigure6) {
  const AnalysisResult r = handmade_result();
  ASSERT_FALSE(r.sequences.empty());
  const std::string text = render_sequence(r, r.sequences[0]);
  EXPECT_NE(text.find("Time Recoverable:"), std::string::npos);
  EXPECT_NE(text.find("of execution time)"), std::string::npos);
  // The two problem waits are contiguous (no necessary sync between
  // them): one sequence instance with two members.
  EXPECT_NE(text.find("Number of Sync Issues: 2"), std::string::npos);
  EXPECT_NE(text.find("Number of Transfer Issues: 0"), std::string::npos);
  EXPECT_NE(
      text.find("Select start/ending subsequence to get refined estimate"),
      std::string::npos);
  EXPECT_NE(text.find("1. cudaFree in als.cpp at line 856"),
            std::string::npos);
}

TEST(ReportGolden, SubsequenceLayoutMatchesFigure8) {
  const AnalysisResult r = handmade_result();
  ASSERT_FALSE(r.sequences.empty());
  const Group sub = subsequence(r.graph, r.sequences[0], 1, 1);
  const std::string text = render_subsequence(r, sub, 1, 1);
  EXPECT_NE(text.find("Time Recoverable In Subsequence:"),
            std::string::npos);
  EXPECT_NE(text.find("of execution time)"), std::string::npos);
}

TEST(ReportGolden, ApiSavingsColumnFormat) {
  const AnalysisResult r = handmade_result();
  const std::string text = render_api_savings(r);
  EXPECT_NE(text.find("Diogenes Estimated Savings (golden)"),
            std::string::npos);
  EXPECT_NE(text.find("(20.00%, 1)  cudaFree"), std::string::npos);
}

TEST(ReportGolden, FractionHelpers) {
  const AnalysisResult r = handmade_result();
  EXPECT_DOUBLE_EQ(r.fraction_of_exec(secs(1.0)), 0.1);
  EXPECT_EQ(r.exec_time(), secs(10.0));
}

TEST(ReportGolden, EmptyResultRendersGracefully) {
  AnalysisResult r;
  r.workload_name = "empty";
  r.run.meta.s1_exec = secs(1.0);
  EXPECT_NO_THROW((void)render_overview(r));
  EXPECT_NO_THROW((void)render_api_savings(r));
  EXPECT_NO_THROW((void)export_json(r));
}

TEST(ReportWatch, RateLineDifferencesTwoPolls) {
  // 5000 events and 10 drops over a 2 s interval.
  const std::string line = render_watch_rates(5000, 10, 2.0);
  EXPECT_EQ(line, "Rate: 2500 event(s)/s, 5 drop(s)/s\n");
  EXPECT_EQ(render_watch_rates(0, 0, 1.0), "Rate: 0 event(s)/s, 0 drop(s)/s\n");
}

TEST(ReportWatch, FirstFrameHasNoRateLine) {
  EXPECT_EQ(render_watch_rates(100, 0, 0.0), "");
  EXPECT_EQ(render_watch_rates(100, 0, -1.0), "");
}

}  // namespace
}  // namespace diog::ffm
