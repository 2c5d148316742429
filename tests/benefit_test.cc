#include <gtest/gtest.h>

#include "core/benefit.h"

#include "support/error.h"
#include "support/rng.h"

namespace diog::ffm {
namespace {

Node work(Duration d) {
  Node n;
  n.type = NType::kCWork;
  n.duration = d;
  return n;
}

Node launch(Duration d, ProblemType p = ProblemType::kNone) {
  Node n;
  n.type = NType::kCLaunch;
  n.duration = d;
  n.problem = p;
  return n;
}

Node wait(Duration d, ProblemType p = ProblemType::kNone,
          Duration first_use = Duration{0}) {
  Node n;
  n.type = NType::kCWait;
  n.duration = d;
  n.problem = p;
  n.first_use_time = first_use;
  return n;
}

ExecutionGraph make_graph(std::vector<Node> nodes) {
  Duration total{0};
  for (const Node& n : nodes) total += n.duration;
  return ExecutionGraph(std::move(nodes), total);
}

// --- The Figure 4 scenarios ---------------------------------------------------
// Both remove a CWait of identical duration (18 units); the surrounding
// structure decides whether the removal pays.

constexpr Duration u(int v) { return ms(v); }  // "1 unit" = 1 ms

TEST(Fig4, LargeBenefitWhenWorkFillsTheGap) {
  // CWork(5) CLaunch(1) [CWait 18 *unnecessary*] CWork(10) CLaunch(1)
  // CWork(10) CWait(4 healthy) ...
  // Between the removed wait and the next sync sit 21 units of CPU work:
  // the GPU can stay busy the whole time, so the full 18 come back.
  ExecutionGraph g = make_graph({
      work(u(5)),
      launch(u(1)),
      wait(u(18), ProblemType::kUnnecessarySync),
      work(u(10)),
      launch(u(1)),
      work(u(10)),
      wait(u(4)),
      work(u(4)),
      wait(Duration{0}),
  });
  const BenefitReport r = expected_benefit(g);
  EXPECT_EQ(r.total, u(18));
}

TEST(Fig4, SmallBenefitWhenNextWaitGrows) {
  // Identical removed wait (18), but only 3 units of CPU work before the
  // next synchronization: the next wait absorbs the other 15.
  ExecutionGraph g = make_graph({
      work(u(5)),
      launch(u(1)),
      wait(u(18), ProblemType::kUnnecessarySync),
      work(u(2)),
      launch(u(1)),
      wait(u(10)),
      work(u(7)),
      wait(Duration{0}),
  });
  const BenefitReport r = expected_benefit(g);
  EXPECT_EQ(r.total, u(3));
}

TEST(Fig4, NextWaitDurationGrowsByUnrealizedPortion) {
  ExecutionGraph g = make_graph({
      wait(u(18), ProblemType::kUnnecessarySync),
      work(u(3)),
      wait(u(10)),
      wait(Duration{0}),
  });
  Replay replay(g);
  (void)replay.remove_synchronization(0);
  EXPECT_EQ(replay.duration(0), Duration{0});
  EXPECT_EQ(replay.duration(2), u(25));  // 10 + (18 - 3)
  EXPECT_EQ(g.nodes()[2].duration, u(10));  // the graph itself is untouched
}

// --- RemoveSyncronization (Figure 5 lines 15-22) ---------------------------------

TEST(RemoveSync, BenefitCappedByWaitDuration) {
  ExecutionGraph g = make_graph({
      wait(u(2), ProblemType::kUnnecessarySync),
      work(u(50)),
      wait(u(1)),
      wait(Duration{0}),
  });
  Replay replay(g);
  EXPECT_EQ(replay.remove_synchronization(0), u(2));
  EXPECT_EQ(replay.duration(0), Duration{0});
  EXPECT_EQ(replay.duration(2), u(1));  // no overflow
}

TEST(RemoveSync, NoWorkMeansNoBenefit) {
  ExecutionGraph g = make_graph({
      wait(u(9), ProblemType::kUnnecessarySync),
      wait(u(1)),
      wait(Duration{0}),
  });
  Replay replay(g);
  EXPECT_EQ(replay.remove_synchronization(0), Duration{0});
  EXPECT_EQ(replay.duration(1), u(10));  // full overflow
}

TEST(RemoveSync, NoNextSyncUsesEndOfProgram) {
  ExecutionGraph g = make_graph({
      wait(u(5), ProblemType::kUnnecessarySync),
      work(u(7)),
  });
  Replay replay(g);
  EXPECT_EQ(replay.remove_synchronization(0), u(5));
  EXPECT_EQ(replay.duration(0), Duration{0});
  EXPECT_EQ(replay.duration(1), u(7));
}

TEST(RemoveSync, OnNonSyncNodeThrows) {
  ExecutionGraph g = make_graph({work(u(1))});
  Replay replay(g);
  EXPECT_THROW((void)replay.remove_synchronization(0), Error);
}

// --- MoveSynchronization (misplaced; Figure 5 lines 24-27) -------------------------

TEST(MoveSync, BenefitIsFirstUseTime) {
  ExecutionGraph g = make_graph({
      wait(u(10), ProblemType::kMisplacedSync, /*first_use=*/u(4)),
      wait(Duration{0}),
  });
  Replay replay(g);
  EXPECT_EQ(replay.move_synchronization(0, {}), u(4));
  EXPECT_EQ(replay.duration(0), u(6));  // wait shrinks by first-use
}

TEST(MoveSync, CappedVariantLimitsToWaitDuration) {
  ExecutionGraph g = make_graph({
      wait(u(3), ProblemType::kMisplacedSync, /*first_use=*/u(10)),
      wait(Duration{0}),
  });
  BenefitOptions capped;
  capped.cap_misplaced_at_duration = true;
  Replay replay(g);
  EXPECT_EQ(replay.move_synchronization(0, capped), u(3));
  EXPECT_EQ(replay.duration(0), Duration{0});
}

TEST(MoveSync, UncappedVariantIsPaperFaithful) {
  ExecutionGraph g = make_graph({
      wait(u(3), ProblemType::kMisplacedSync, /*first_use=*/u(10)),
      wait(Duration{0}),
  });
  BenefitOptions paper;
  paper.cap_misplaced_at_duration = false;
  Replay replay(g);
  EXPECT_EQ(replay.move_synchronization(0, paper), u(10));
  EXPECT_EQ(replay.duration(0), Duration{0});  // max(0, 3-10)
}

// --- RemoveMemoryTransfer (Figure 5 lines 29-32) -------------------------------------

TEST(RemoveTransfer, BenefitIsLaunchDuration) {
  ExecutionGraph g = make_graph({
      launch(u(2), ProblemType::kUnnecessaryTransfer),
      wait(Duration{0}),
  });
  Replay replay(g);
  EXPECT_EQ(replay.remove_memory_transfer(0), u(2));
  EXPECT_EQ(replay.duration(0), Duration{0});
}

TEST(Replay, OverflowCarriesIntoAMisplacedNextSync) {
  // The removed wait's overflow lands on the next sync, which is itself
  // a target: its move sees the grown wait.
  ExecutionGraph g = make_graph({
      wait(u(10), ProblemType::kUnnecessarySync),
      work(u(2)),
      wait(u(3), ProblemType::kMisplacedSync, /*first_use=*/u(4)),
      wait(Duration{0}),
  });
  Replay replay(g);
  EXPECT_EQ(replay.remove_synchronization(0), u(2));
  EXPECT_EQ(replay.duration(2), u(11));  // 3 + (10 - 2)
  EXPECT_EQ(replay.move_synchronization(2, {}), u(4));
  EXPECT_EQ(replay.duration(2), u(7));
}

TEST(Replay, DescendingTargetsRejected) {
  ExecutionGraph g = make_graph({
      wait(u(5), ProblemType::kUnnecessarySync),
      work(u(1)),
      wait(u(5), ProblemType::kUnnecessarySync),
      wait(Duration{0}),
  });
  Replay replay(g);
  (void)replay.remove_synchronization(2);
  EXPECT_THROW((void)replay.remove_synchronization(0), Error);
}

// --- ExpectedBenefit (whole-graph pass) -----------------------------------------------

TEST(ExpectedBenefit, MixedProblemsAccumulateByKind) {
  ExecutionGraph g = make_graph({
      launch(u(2), ProblemType::kUnnecessaryTransfer),
      work(u(5)),
      wait(u(3), ProblemType::kUnnecessarySync),
      work(u(10)),
      wait(u(6), ProblemType::kMisplacedSync, u(1)),
      work(u(2)),
      wait(Duration{0}),
  });
  const BenefitReport r = expected_benefit(g);
  EXPECT_EQ(r.transfer_benefit, u(2));
  EXPECT_EQ(r.sync_benefit, u(3) + u(1));
  EXPECT_EQ(r.total, u(6));
  EXPECT_EQ(r.per_node.size(), 3u);
  EXPECT_EQ(r.benefit_of(0), u(2));
  EXPECT_EQ(r.benefit_of(2), u(3));
  EXPECT_EQ(r.benefit_of(4), u(1));
  EXPECT_EQ(r.benefit_of(6), Duration{0});  // non-problem node
}

TEST(ExpectedBenefit, EvaluationOrderPropagatesThroughChain) {
  // Three back-to-back unnecessary waits; work only at the end. The
  // overflow must flow through the chain and be recovered by the last
  // window.
  ExecutionGraph g = make_graph({
      wait(u(4), ProblemType::kUnnecessarySync),
      wait(u(4), ProblemType::kUnnecessarySync),
      wait(u(4), ProblemType::kUnnecessarySync),
      work(u(100)),
      wait(Duration{0}),
  });
  const BenefitReport r = expected_benefit(g);
  EXPECT_EQ(r.total, u(12));
}

TEST(ExpectedBenefit, TransferRemovalShrinksLaterWindows) {
  // A problematic transfer inside a later sync's window: once removed,
  // the window shrinks and the sync recovers less.
  ExecutionGraph g = make_graph({
      wait(u(10), ProblemType::kUnnecessarySync),
      launch(u(6), ProblemType::kUnnecessaryTransfer),
      work(u(1)),
      wait(u(5)),
      wait(Duration{0}),
  });
  const BenefitReport r = expected_benefit(g);
  // Evaluation order is graph order: the wait sees the launch still
  // present (window 7) -> 7; then the transfer recovers its 6.
  EXPECT_EQ(r.benefit_of(0), u(7));
  EXPECT_EQ(r.benefit_of(1), u(6));
}

TEST(ExpectedBenefitSubset, OnlySelectedNodesEvaluated) {
  ExecutionGraph g = make_graph({
      wait(u(5), ProblemType::kUnnecessarySync),
      work(u(10)),
      wait(u(7), ProblemType::kUnnecessarySync),
      work(u(10)),
      wait(Duration{0}),
  });
  const std::vector<std::size_t> only{2};
  const BenefitReport r = expected_benefit_subset(g, only);
  EXPECT_EQ(r.total, u(7));
  EXPECT_EQ(r.per_node.size(), 1u);
}

TEST(ExpectedBenefitSubset, UnsortedSubsetRejected) {
  ExecutionGraph g = make_graph({
      wait(u(5), ProblemType::kUnnecessarySync),
      wait(u(5), ProblemType::kUnnecessarySync),
  });
  const std::vector<std::size_t> bad{1, 0};
  EXPECT_THROW((void)expected_benefit_subset(g, bad), Error);
}

TEST(ExpectedBenefit, EmptyGraphNoBenefit) {
  const BenefitReport r = expected_benefit(ExecutionGraph{});
  EXPECT_EQ(r.total, Duration{0});
  EXPECT_TRUE(r.per_node.empty());
}

// --- Property tests over randomized graphs ---------------------------------------------

ExecutionGraph random_graph(Rng& rng, std::size_t n_nodes) {
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const int kind = static_cast<int>(rng.next_below(3));
    const Duration d = us(rng.next_in(0, 5000));
    if (kind == 0) {
      nodes.push_back(work(d));
    } else if (kind == 1) {
      nodes.push_back(launch(
          d, rng.next_bool(0.3) ? ProblemType::kUnnecessaryTransfer
                                : ProblemType::kNone));
    } else {
      ProblemType p = ProblemType::kNone;
      Duration first_use{0};
      const int roll = static_cast<int>(rng.next_below(3));
      if (roll == 1) {
        p = ProblemType::kUnnecessarySync;
      } else if (roll == 2) {
        p = ProblemType::kMisplacedSync;
        first_use = us(rng.next_in(0, 2000));
      }
      nodes.push_back(wait(d, p, first_use));
    }
  }
  nodes.push_back(wait(Duration{0}));  // terminal join
  return make_graph(std::move(nodes));
}

class BenefitPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BenefitPropertyTest, InvariantsHoldOnRandomGraphs) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const ExecutionGraph g = random_graph(rng, 1 + rng.next_below(60));
    const Duration exec = g.total_duration();
    const BenefitReport r = expected_benefit(g);

    // Benefit is never negative and never exceeds total execution time
    // (with capped misplaced handling, the default).
    EXPECT_GE(r.total.count(), 0);
    EXPECT_LE(r.total, exec);
    EXPECT_EQ(r.total, r.sync_benefit + r.transfer_benefit);

    // Per-node benefits are individually sane.
    Duration sum{0};
    for (const NodeBenefit& nb : r.per_node) {
      EXPECT_GE(nb.benefit.count(), 0);
      sum += nb.benefit;
      EXPECT_NE(nb.problem, ProblemType::kNone);
    }
    EXPECT_EQ(sum, r.total);
  }
}

TEST_P(BenefitPropertyTest, SubsetNeverBeatsFullSet) {
  Rng rng(GetParam() ^ 0xABCDEF);
  for (int trial = 0; trial < 25; ++trial) {
    const ExecutionGraph g = random_graph(rng, 5 + rng.next_below(40));
    const std::vector<std::size_t>& problems = g.problematic_indices();
    if (problems.empty()) continue;

    // Pick a random subset (in order).
    std::vector<std::size_t> subset;
    for (const std::size_t p : problems) {
      if (rng.next_bool(0.5)) subset.push_back(p);
    }
    const Duration full = expected_benefit(g).total;
    const Duration part = expected_benefit_subset(g, subset).total;
    EXPECT_LE(part, full);
  }
}

TEST_P(BenefitPropertyTest, EvaluationIsDeterministic) {
  Rng rng(GetParam() + 17);
  const ExecutionGraph g = random_graph(rng, 30);
  EXPECT_EQ(expected_benefit(g).total, expected_benefit(g).total);
}

// --- Equivalence with the copy-and-mutate evaluation ---------------------
// Figure 5 as the pseudocode spells it: a private copy of the nodes whose
// durations each transform rewrites, with linear next-sync and work
// scans. The Replay overlay must agree with it exactly.

class CopyAndMutate {
 public:
  explicit CopyAndMutate(const ExecutionGraph& g)
      : nodes_(g.nodes().begin(), g.nodes().end()) {}

  BenefitReport evaluate(const std::vector<std::size_t>& targets,
                         const BenefitOptions& opts) {
    BenefitReport report;
    for (const std::size_t i : targets) {
      const ProblemType p = nodes_[i].problem;
      Duration b{0};
      switch (p) {
        case ProblemType::kUnnecessarySync: b = remove_sync(i); break;
        case ProblemType::kMisplacedSync: b = move_sync(i, opts); break;
        case ProblemType::kUnnecessaryTransfer: b = remove_transfer(i); break;
        case ProblemType::kNone: continue;
      }
      report.per_node.push_back(NodeBenefit{i, b, p});
      report.total += b;
      if (p == ProblemType::kUnnecessaryTransfer) {
        report.transfer_benefit += b;
      } else {
        report.sync_benefit += b;
      }
    }
    return report;
  }

 private:
  Duration remove_sync(std::size_t i) {
    std::size_t next = i + 1;
    while (next < nodes_.size() && !nodes_[next].is_sync_node()) ++next;
    Duration work{0};
    for (std::size_t j = i + 1; j < next; ++j) work += nodes_[j].duration;
    const Duration benefit = std::min(work, nodes_[i].duration);
    if (next < nodes_.size()) {
      nodes_[next].duration += nodes_[i].duration - benefit;
    }
    nodes_[i].duration = Duration{0};
    return benefit;
  }

  Duration move_sync(std::size_t i, const BenefitOptions& opts) {
    Duration benefit = nodes_[i].first_use_time;
    if (opts.cap_misplaced_at_duration) {
      benefit = std::min(benefit, nodes_[i].duration);
    }
    nodes_[i].duration = std::max(
        Duration{0}, nodes_[i].duration - nodes_[i].first_use_time);
    return benefit;
  }

  Duration remove_transfer(std::size_t i) {
    const Duration benefit = nodes_[i].duration;
    nodes_[i].duration = Duration{0};
    return benefit;
  }

  std::vector<Node> nodes_;
};

void expect_same_report(const BenefitReport& want, const BenefitReport& got) {
  ASSERT_EQ(want.per_node.size(), got.per_node.size());
  for (std::size_t k = 0; k < want.per_node.size(); ++k) {
    EXPECT_EQ(want.per_node[k].node, got.per_node[k].node);
    EXPECT_EQ(want.per_node[k].benefit, got.per_node[k].benefit);
    EXPECT_EQ(want.per_node[k].problem, got.per_node[k].problem);
  }
  EXPECT_EQ(want.total, got.total);
  EXPECT_EQ(want.sync_benefit, got.sync_benefit);
  EXPECT_EQ(want.transfer_benefit, got.transfer_benefit);
}

TEST_P(BenefitPropertyTest, ReplayMatchesCopyAndMutateReference) {
  Rng rng(GetParam() * 7919 + 3);
  for (int trial = 0; trial < 40; ++trial) {
    const ExecutionGraph g = random_graph(rng, 1 + rng.next_below(60));
    const std::vector<std::size_t>& problems = g.problematic_indices();
    std::vector<std::vector<std::size_t>> subsets{{}, problems};
    for (int k = 0; k < 4; ++k) {
      std::vector<std::size_t> subset;
      for (const std::size_t p : problems) {
        if (rng.next_bool(0.5)) subset.push_back(p);
      }
      subsets.push_back(std::move(subset));
    }
    for (const bool cap : {true, false}) {
      BenefitOptions opts;
      opts.cap_misplaced_at_duration = cap;
      for (const std::vector<std::size_t>& subset : subsets) {
        expect_same_report(CopyAndMutate(g).evaluate(subset, opts),
                           expected_benefit_subset(g, subset, opts));
      }
    }
  }
}

TEST(ReplayEquivalence, RemovedTransferDirectlyBeforeAnUnnecessarySync) {
  // One blocking copy: its transfer (CLaunch 5) sits directly before its
  // unnecessary drain (CWait 6), inside the window of an earlier
  // unnecessary wait. The earlier wait still counts the transfer's 5;
  // the drain's window starts after the removed transfer, so summing the
  // ORIGINAL durations is exact.
  ExecutionGraph g = make_graph({
      wait(u(8), ProblemType::kUnnecessarySync),
      launch(u(5), ProblemType::kUnnecessaryTransfer),
      wait(u(6), ProblemType::kUnnecessarySync),
      work(u(3)),
      wait(u(2)),
      wait(Duration{0}),
  });
  const BenefitReport r = expected_benefit(g);
  expect_same_report(CopyAndMutate(g).evaluate(g.problematic_indices(), {}),
                     r);
  EXPECT_EQ(r.benefit_of(0), u(5));  // window = the transfer; 3 overflow
  EXPECT_EQ(r.benefit_of(1), u(5));
  EXPECT_EQ(r.benefit_of(2), u(3));  // 6 + 3 overflow, window = 3
  EXPECT_EQ(r.transfer_benefit, u(5));
  EXPECT_EQ(r.sync_benefit, u(8));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BenefitPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace diog::ffm
