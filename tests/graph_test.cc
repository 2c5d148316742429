#include <gtest/gtest.h>

#include <optional>
#include <random>

#include "core/graph.h"
#include "core/run_convert.h"

namespace diog::ffm {
namespace {

using hooks::Fn;
using hooks::MemcpyKind;
using hooks::MemKind;

OpRecord make_op(std::uint64_t index, Fn api, TimePoint enter, TimePoint exit,
                 Duration sync_wait, bool sync, bool transfer) {
  OpRecord op;
  op.index = index;
  op.api = api;
  op.t_enter = enter;
  op.t_exit = exit;
  op.sync_wait = sync_wait;
  op.performed_sync = sync;
  op.performed_transfer = transfer;
  return op;
}

TEST(GraphBuild, EmptyTraceYieldsTerminalNodeOnly) {
  Stage2Result s2;
  s2.exec_time = ms(10);
  const ExecutionGraph g = build_graph(build_run("t", {}, s2, {}, {}), us(50));
  // One CWork for the whole run, one terminal CWait.
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.nodes()[0].type, NType::kCWork);
  EXPECT_EQ(g.nodes()[0].duration, ms(10));
  EXPECT_EQ(g.nodes()[1].type, NType::kCWait);
  EXPECT_EQ(g.nodes()[1].duration, Duration{0});
}

TEST(GraphBuild, SyncCallSplitsIntoLaunchAndWait) {
  Stage2Result s2;
  s2.exec_time = ms(20);
  // One deviceSynchronize: 1 ms in the call, 0.9 ms of it blocked.
  s2.ops.push_back(make_op(0, Fn::kCudaDeviceSynchronize, TimePoint{ms(5)},
                           TimePoint{ms(6)}, us(900), true, false));
  Stage3Result s3;
  SyncClassification cls;
  cls.op_index = 0;
  cls.required = false;
  s3.syncs.push_back(cls);

  const ExecutionGraph g = build_graph(build_run("t", {}, s2, s3, {}), us(50));
  // CWork(0-5) + CLaunch(setup) + CWait(blocked) + CWork(6-20) + terminal.
  ASSERT_EQ(g.size(), 5u);
  EXPECT_EQ(g.nodes()[0].type, NType::kCWork);
  EXPECT_EQ(g.nodes()[0].duration, ms(5));
  EXPECT_EQ(g.nodes()[1].type, NType::kCLaunch);
  EXPECT_EQ(g.nodes()[1].duration, us(100));
  EXPECT_EQ(g.nodes()[2].type, NType::kCWait);
  EXPECT_EQ(g.nodes()[2].duration, us(900));
  EXPECT_EQ(g.nodes()[2].problem, ProblemType::kUnnecessarySync);
  EXPECT_EQ(g.nodes()[3].type, NType::kCWork);
  EXPECT_EQ(g.nodes()[3].duration, ms(14));
}

TEST(GraphBuild, TransferTailCountsAsLaunchNotWait) {
  Stage2Result s2;
  s2.exec_time = ms(10);
  // A blocking memcpy: 3 ms call; 2.5 ms measured wait of which 1 ms is
  // the transfer itself (gpu_op_duration).
  OpRecord op = make_op(0, Fn::kCudaMemcpy, TimePoint{ms(1)},
                        TimePoint{ms(4)}, us(2500), true, true);
  op.gpu_op_duration = ms(1);
  op.bytes = 1 << 20;
  s2.ops.push_back(op);

  const ExecutionGraph g = build_graph(build_run("t", {}, s2, {}, {}), us(50));
  // CWait holds only the drain of PRIOR work (1.5 ms); the transfer tail
  // belongs to CLaunch (paper: RemoveMemoryTransfer recovers CLaunch).
  const Node* launch = nullptr;
  const Node* wait = nullptr;
  for (const Node& n : g.nodes()) {
    if (n.type == NType::kCLaunch) launch = &n;
    if (n.type == NType::kCWait && n.op_index == 0) wait = &n;
  }
  ASSERT_NE(launch, nullptr);
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->duration, us(1500));
  EXPECT_EQ(launch->duration, us(1500));  // 0.5 ms setup + 1 ms transfer
}

TEST(GraphBuild, DuplicateTransferMarksLaunchNode) {
  Stage2Result s2;
  s2.exec_time = ms(10);
  OpRecord op = make_op(0, Fn::kCudaMemcpy, TimePoint{ms(1)},
                        TimePoint{ms(2)}, us(800), true, true);
  op.gpu_op_duration = us(800);
  s2.ops.push_back(op);
  Stage3Result s3;
  DuplicateTransfer dup;
  dup.op_index = 0;
  dup.first_op_index = 0;
  s3.duplicate_transfers.push_back(dup);

  const ExecutionGraph g = build_graph(build_run("t", {}, s2, s3, {}), us(50));
  bool found = false;
  for (const Node& n : g.nodes()) {
    if (n.type == NType::kCLaunch && n.op_index == 0) {
      EXPECT_EQ(n.problem, ProblemType::kUnnecessaryTransfer);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GraphBuild, RequiredSyncWithLargeFirstUseIsMisplaced) {
  Stage2Result s2;
  s2.exec_time = ms(10);
  s2.ops.push_back(make_op(0, Fn::kCudaStreamSynchronize, TimePoint{ms(1)},
                           TimePoint{ms(2)}, us(950), true, false));
  Stage3Result s3;
  SyncClassification cls;
  cls.op_index = 0;
  cls.required = true;
  s3.syncs.push_back(cls);
  Stage4Result s4;
  s4.uses.push_back(SyncUse{0, ms(3)});

  const ExecutionGraph g = build_graph(build_run("t", {}, s2, s3, s4), us(50));
  const Node* wait = nullptr;
  for (const Node& n : g.nodes()) {
    if (n.type == NType::kCWait && n.op_index == 0) wait = &n;
  }
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->problem, ProblemType::kMisplacedSync);
  EXPECT_EQ(wait->first_use_time, ms(3));
}

TEST(GraphBuild, RequiredSyncWithImmediateUseIsHealthy) {
  Stage2Result s2;
  s2.exec_time = ms(10);
  s2.ops.push_back(make_op(0, Fn::kCudaStreamSynchronize, TimePoint{ms(1)},
                           TimePoint{ms(2)}, us(950), true, false));
  Stage3Result s3;
  SyncClassification cls;
  cls.op_index = 0;
  cls.required = true;
  s3.syncs.push_back(cls);
  Stage4Result s4;
  s4.uses.push_back(SyncUse{0, us(10)});  // below the 50 us threshold

  const ExecutionGraph g = build_graph(build_run("t", {}, s2, s3, s4), us(50));
  for (const Node& n : g.nodes()) {
    if (n.type == NType::kCWait && n.op_index == 0) {
      EXPECT_EQ(n.problem, ProblemType::kNone);
    }
  }
}

TEST(GraphBuild, TotalDurationEqualsExecTime) {
  Stage2Result s2;
  s2.exec_time = ms(30);
  s2.ops.push_back(make_op(0, Fn::kCudaMemcpy, TimePoint{ms(2)},
                           TimePoint{ms(4)}, ms(1), true, true));
  s2.ops.push_back(make_op(1, Fn::kCudaDeviceSynchronize, TimePoint{ms(10)},
                           TimePoint{ms(15)}, ms(5) - us(3), true, false));
  const ExecutionGraph g = build_graph(build_run("t", {}, s2, {}, {}), us(50));
  EXPECT_EQ(g.total_duration(), ms(30));
  EXPECT_EQ(g.exec_time(), ms(30));
}

TEST(GraphQueries, NextSyncAfter) {
  std::vector<Node> nodes(5);
  nodes[0].type = NType::kCWork;
  nodes[1].type = NType::kCWait;
  nodes[2].type = NType::kCLaunch;
  nodes[3].type = NType::kCWork;
  nodes[4].type = NType::kCWait;
  ExecutionGraph g(std::move(nodes), ms(1));
  EXPECT_EQ(g.next_sync_after(0).value(), 1u);
  EXPECT_EQ(g.next_sync_after(1).value(), 4u);
  EXPECT_FALSE(g.next_sync_after(4).has_value());
}

TEST(GraphQueries, WorkBetweenSumsLaunchAndWorkOnly) {
  std::vector<Node> nodes(5);
  nodes[0].type = NType::kCWait;
  nodes[1].type = NType::kCWork;
  nodes[1].duration = ms(2);
  nodes[2].type = NType::kCWait;  // waits do not count as work
  nodes[2].duration = ms(100);
  nodes[3].type = NType::kCLaunch;
  nodes[3].duration = ms(3);
  nodes[4].type = NType::kCWait;
  ExecutionGraph g(std::move(nodes), ms(1));
  EXPECT_EQ(g.work_between(0, 4), ms(5));
  EXPECT_EQ(g.work_between(0, 1), Duration{0});
}

TEST(GraphQueries, ProblematicIndices) {
  std::vector<Node> nodes(3);
  nodes[0].problem = ProblemType::kUnnecessarySync;
  nodes[0].type = NType::kCWait;
  nodes[2].problem = ProblemType::kUnnecessaryTransfer;
  nodes[2].type = NType::kCLaunch;
  ExecutionGraph g(std::move(nodes), ms(1));
  EXPECT_EQ(g.problematic_indices(),
            (std::vector<std::size_t>{0, 2}));
}

// The per-sync index against a brute-force scan of the chain, on random
// chains that include the empty graph, chains with no CWait and chains
// ending in non-sync nodes.
TEST(GraphQueries, SyncIndexMatchesBruteForce) {
  std::mt19937 rng(20191117);
  std::vector<std::vector<Node>> chains;
  chains.emplace_back();  // empty
  for (int c = 0; c < 60; ++c) {
    const std::size_t n = 1 + rng() % 40;
    // A third of the chains carry no CWait at all; the rest a random
    // density of them.
    const unsigned sync_pct = c % 3 == 0 ? 0 : 5 + rng() % 60;
    std::vector<Node> nodes(n);
    for (Node& node : nodes) {
      node.type = rng() % 100 < sync_pct
                      ? NType::kCWait
                      : (rng() % 2 == 0 ? NType::kCWork : NType::kCLaunch);
      node.duration = us(static_cast<std::int64_t>(rng() % 1000));
    }
    // Every fourth chain ends with non-sync nodes after its last CWait.
    if (c % 4 == 1) nodes.back().type = NType::kCWork;
    chains.push_back(std::move(nodes));
  }

  for (const std::vector<Node>& nodes : chains) {
    const ExecutionGraph g(nodes, ms(1));
    const std::size_t n = nodes.size();
    ASSERT_EQ(g.size(), n);
    for (std::size_t i = 0; i <= n; ++i) {
      std::optional<std::size_t> want;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (nodes[j].is_sync_node()) {
          want = j;
          break;
        }
      }
      EXPECT_EQ(g.next_sync_after(i), want) << "n=" << n << " i=" << i;
    }
    for (std::size_t a = 0; a <= n; ++a) {
      for (std::size_t b = a; b <= n; ++b) {
        Duration want{0};
        for (std::size_t j = a + 1; j < b; ++j) {
          if (!nodes[j].is_sync_node()) want += nodes[j].duration;
        }
        EXPECT_EQ(g.work_between(a, b), want)
            << "n=" << n << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(GraphQueries, MemoryBytesCoversNodesAndIndex) {
  std::vector<Node> nodes(10);
  nodes[3].type = NType::kCWait;
  nodes[3].problem = ProblemType::kUnnecessarySync;
  nodes[9].type = NType::kCWait;
  const ExecutionGraph g(std::move(nodes), ms(1));
  // 10 nodes, one problem, two syncs with their work prefixes.
  EXPECT_GE(g.memory_bytes(), 10 * sizeof(Node) + 1 * sizeof(std::size_t) +
                                  2 * (sizeof(std::size_t) + sizeof(Duration)));
  EXPECT_EQ(ExecutionGraph().memory_bytes(), 0u);
}

}  // namespace
}  // namespace diog::ffm
