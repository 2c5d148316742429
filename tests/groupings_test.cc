#include <gtest/gtest.h>

#include "core/groupings.h"

#include <memory>

#include "eventstore/event_store.h"
#include "support/error.h"
#include "trace/callstack.h"

namespace diog::ffm {
namespace {

using hooks::Fn;

// The test graphs resolve their stack ids through one small store, as a
// built graph resolves them through its run's store.
const std::shared_ptr<evstore::EventStore>& stack_store() {
  static const auto store = std::make_shared<evstore::EventStore>();
  return store;
}

evstore::StackId stack_at(const std::string& fn, const std::string& file,
                          int line) {
  const trace::StackTrace st({
      trace::FrameTable::instance().intern("main", "app.cc", 1),
      trace::FrameTable::instance().intern(fn, file, line)});
  return stack_store()->intern_stack(st);
}

Node work(Duration d) {
  Node n;
  n.type = NType::kCWork;
  n.duration = d;
  return n;
}

Node problem_wait(Duration d, Fn api, evstore::StackId st,
                  std::int64_t op_index,
                  ProblemType p = ProblemType::kUnnecessarySync) {
  Node n;
  n.type = NType::kCWait;
  n.duration = d;
  n.problem = p;
  n.api = api;
  n.stack = st;
  n.op_index = op_index;
  return n;
}

Node healthy_wait(Duration d = Duration{0}) {
  Node n;
  n.type = NType::kCWait;
  n.duration = d;
  return n;
}

ExecutionGraph make_graph(std::vector<Node> nodes) {
  Duration total{0};
  for (const Node& n : nodes) total += n.duration;
  return ExecutionGraph(std::move(nodes), total, stack_store());
}

// Two loop iterations, each: [free@856 problem, work, free@870 problem,
// work] then a necessary sync.
ExecutionGraph two_iteration_graph() {
  const auto st1 = stack_at("update", "als.cpp", 856);
  const auto st2 = stack_at("update", "als.cpp", 870);
  std::vector<Node> nodes;
  std::int64_t op = 0;
  for (int iter = 0; iter < 2; ++iter) {
    nodes.push_back(problem_wait(ms(4), Fn::kCudaFree, st1, op++));
    nodes.push_back(work(ms(10)));
    nodes.push_back(problem_wait(ms(2), Fn::kCudaFree, st2, op++));
    nodes.push_back(work(ms(10)));
    nodes.push_back(healthy_wait(ms(1)));  // necessary: ends the sequence
    ++op;
  }
  nodes.push_back(healthy_wait());
  return make_graph(std::move(nodes));
}

// --- Single-point grouping -----------------------------------------------------

TEST(SinglePoint, GroupsIdenticalStacksAcrossIterations) {
  const ExecutionGraph g = two_iteration_graph();
  const auto groups = single_point_groups(g);
  ASSERT_EQ(groups.size(), 2u);  // one per source line
  // Each group holds both iterations' instances.
  for (const Group& grp : groups) {
    EXPECT_EQ(grp.nodes.size(), 2u);
    EXPECT_EQ(grp.kind, Group::Kind::kSinglePoint);
    EXPECT_EQ(grp.sync_issues, 2u);
  }
  // Sorted by benefit: the 4 ms line first.
  EXPECT_EQ(groups[0].benefit, ms(8));
  EXPECT_EQ(groups[1].benefit, ms(4));
  EXPECT_NE(groups[0].title.find("line 856"), std::string::npos);
}

TEST(SinglePoint, DifferentLinesStayApart) {
  const ExecutionGraph g = two_iteration_graph();
  const auto groups = single_point_groups(g);
  EXPECT_NE(groups[0].title, groups[1].title);
}

// --- Folded grouping ---------------------------------------------------------------

TEST(FoldedApi, FoldsOnApiFunction) {
  const ExecutionGraph g = two_iteration_graph();
  const auto folds = folded_api_groups(g);
  ASSERT_EQ(folds.size(), 1u);
  EXPECT_EQ(folds[0].title, "Fold on cudaFree");
  EXPECT_EQ(folds[0].nodes.size(), 4u);
  EXPECT_EQ(folds[0].benefit, ms(12));  // all four waits recoverable
}

TEST(FoldedApi, ExpansionFoldsTemplateInstantiations) {
  // Template instances <float> and <double> of one function must fold
  // into a single expansion entry (Figure 7).
  const auto stf = stack_at("storage<float>::deallocate", "t.h", 31);
  const auto std_ = stack_at("storage<double>::deallocate", "t.h", 31);
  std::vector<Node> nodes{
      problem_wait(ms(3), Fn::kCudaFree, stf, 0),
      work(ms(10)),
      problem_wait(ms(5), Fn::kCudaFree, std_, 1),
      work(ms(10)),
      healthy_wait(),
  };
  const ExecutionGraph g = make_graph(std::move(nodes));
  const auto folds = folded_api_groups(g);
  ASSERT_EQ(folds.size(), 1u);
  ASSERT_EQ(folds[0].expansion.size(), 1u);
  EXPECT_EQ(folds[0].expansion[0].folded_name, "storage<...>::deallocate");
  EXPECT_EQ(folds[0].expansion[0].member_count, 2u);
  EXPECT_EQ(folds[0].expansion[0].benefit, ms(8));
  // cudaFree's hidden sync is removable only conditionally.
  EXPECT_TRUE(folds[0].expansion[0].conditionally_unnecessary);
}

TEST(FoldedApi, ExplicitSyncIsNotConditional) {
  const auto st = stack_at("solve", "m.cc", 10);
  std::vector<Node> nodes{
      problem_wait(ms(3), Fn::kCudaDeviceSynchronize, st, 0),
      work(ms(10)),
      healthy_wait(),
  };
  const ExecutionGraph g = make_graph(std::move(nodes));
  const auto folds = folded_api_groups(g);
  ASSERT_EQ(folds.size(), 1u);
  ASSERT_EQ(folds[0].expansion.size(), 1u);
  EXPECT_FALSE(folds[0].expansion[0].conditionally_unnecessary);
}

TEST(FoldedApi, DistinctApisDistinctFolds) {
  const auto st = stack_at("f", "m.cc", 10);
  std::vector<Node> nodes{
      problem_wait(ms(3), Fn::kCudaFree, st, 0),
      work(ms(5)),
      problem_wait(ms(2), Fn::kCudaMemset, st, 1),
      work(ms(5)),
      healthy_wait(),
  };
  const ExecutionGraph g = make_graph(std::move(nodes));
  const auto folds = folded_api_groups(g);
  EXPECT_EQ(folds.size(), 2u);
}

// --- Sequence grouping ----------------------------------------------------------------

TEST(Sequences, NecessarySyncEndsARun) {
  const ExecutionGraph g = two_iteration_graph();
  const auto seqs = sequence_groups(g);
  // The two iterations have identical signatures: merged into ONE
  // logical sequence with two instances.
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0].instances.size(), 2u);
  EXPECT_EQ(seqs[0].nodes.size(), 2u);       // first instance's members
  EXPECT_EQ(seqs[0].sync_issues, 2u);        // per instance (Figure 6 style)
  EXPECT_EQ(seqs[0].benefit, ms(12));        // union estimate
  EXPECT_NE(seqs[0].title.find("Sequence starting at call"),
            std::string::npos);
}

TEST(Sequences, MinMembersFiltersSingletons) {
  const auto st = stack_at("f", "m.cc", 1);
  std::vector<Node> nodes{
      problem_wait(ms(3), Fn::kCudaFree, st, 0),
      work(ms(5)),
      healthy_wait(),
  };
  const ExecutionGraph g = make_graph(std::move(nodes));
  EXPECT_TRUE(sequence_groups(g, {}, 2).empty());
  EXPECT_EQ(sequence_groups(g, {}, 1).size(), 1u);
}

TEST(Sequences, HealthyWorkDoesNotBreakARun) {
  const auto st1 = stack_at("f", "m.cc", 1);
  const auto st2 = stack_at("f", "m.cc", 2);
  std::vector<Node> nodes{
      problem_wait(ms(3), Fn::kCudaFree, st1, 0),
      work(ms(5)),  // plain work inside the run
      problem_wait(ms(3), Fn::kCudaFree, st2, 1),
      work(ms(5)),
      healthy_wait(),
  };
  const ExecutionGraph g = make_graph(std::move(nodes));
  const auto seqs = sequence_groups(g);
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0].nodes.size(), 2u);
}

TEST(Sequences, DifferentSignaturesStaySeparate) {
  const auto st1 = stack_at("f", "m.cc", 1);
  const auto st2 = stack_at("g", "m.cc", 50);
  std::vector<Node> nodes{
      problem_wait(ms(3), Fn::kCudaFree, st1, 0),
      problem_wait(ms(3), Fn::kCudaFree, st1, 1),
      work(ms(5)),
      healthy_wait(ms(1)),
      problem_wait(ms(3), Fn::kCudaMemset, st2, 2),
      problem_wait(ms(3), Fn::kCudaMemset, st2, 3),
      work(ms(5)),
      healthy_wait(),
  };
  const ExecutionGraph g = make_graph(std::move(nodes));
  EXPECT_EQ(sequence_groups(g).size(), 2u);
}

// --- Sequence entries & subsequence ------------------------------------------------------

TEST(SequenceEntries, PerOpDisplayWithDescriptions) {
  const ExecutionGraph g = two_iteration_graph();
  const auto seqs = sequence_groups(g);
  ASSERT_EQ(seqs.size(), 1u);
  const auto entries = sequence_entries(g, seqs[0]);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].ordinal, 1u);
  EXPECT_EQ(entries[0].description, "cudaFree in als.cpp at line 856");
  EXPECT_EQ(entries[1].description, "cudaFree in als.cpp at line 870");
}

TEST(SequenceEntries, TransferAndSyncOfOneCallCollapse) {
  const auto st = stack_at("upload", "als.cpp", 738);
  Node l;
  l.type = NType::kCLaunch;
  l.duration = ms(1);
  l.problem = ProblemType::kUnnecessaryTransfer;
  l.api = Fn::kCudaMemcpy;
  l.stack = st;
  l.op_index = 5;
  Node w = problem_wait(ms(2), Fn::kCudaMemcpy, st, 5);
  std::vector<Node> nodes{l, w, work(ms(3)), healthy_wait()};
  const ExecutionGraph g = make_graph(std::move(nodes));
  const auto seqs = sequence_groups(g, {}, 1);
  ASSERT_EQ(seqs.size(), 1u);
  const auto entries = sequence_entries(g, seqs[0]);
  ASSERT_EQ(entries.size(), 1u);  // one display entry for the call
  EXPECT_EQ(seqs[0].sync_issues, 1u);
  EXPECT_EQ(seqs[0].transfer_issues, 1u);
}

TEST(Subsequence, SliceEstimatesSubset) {
  const ExecutionGraph g = two_iteration_graph();
  const auto seqs = sequence_groups(g);
  ASSERT_EQ(seqs.size(), 1u);

  // Entry 2 alone (the 2 ms free at line 870) across both instances.
  const Group sub = subsequence(g, seqs[0], 2, 2);
  EXPECT_EQ(sub.kind, Group::Kind::kSubsequence);
  EXPECT_EQ(sub.benefit, ms(4));    // 2 ms x 2 instances
  EXPECT_EQ(sub.sync_issues, 1u);   // per instance (Figure 6 style)
  EXPECT_EQ(sub.instance_count(), 2u);

  // The full slice reproduces the sequence estimate.
  const Group all = subsequence(g, seqs[0], 1, 2);
  EXPECT_EQ(all.benefit, seqs[0].benefit);
}

TEST(Subsequence, BoundsValidated) {
  const ExecutionGraph g = two_iteration_graph();
  const auto seqs = sequence_groups(g);
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_THROW((void)subsequence(g, seqs[0], 0, 1), Error);
  EXPECT_THROW((void)subsequence(g, seqs[0], 2, 1), Error);
  EXPECT_THROW((void)subsequence(g, seqs[0], 1, 3), Error);
}

TEST(GroupJson, SerializesKindTitleAndExpansion) {
  const ExecutionGraph g = two_iteration_graph();
  const auto folds = folded_api_groups(g);
  ASSERT_FALSE(folds.empty());
  const json::Value v = folds[0].to_json();
  EXPECT_EQ(v.at("kind").as_string(), "folded_function");
  EXPECT_EQ(v.at("title").as_string(), "Fold on cudaFree");
  EXPECT_GT(v.at("benefit_ns").as_int(), 0);
  EXPECT_TRUE(v.contains("expansion"));
}

}  // namespace
}  // namespace diog::ffm
