// The expected-benefit algorithm (paper Figure 5).
//
// Modeling insight (§3.5): the benefit of (re)moving a problematic
// operation is NOT its duration — removing a wait lets the next
// synchronization grow to absorb the freed time (Figure 4's
// limited-benefit case). With only the CPU graph, the achievable benefit
// of removing a wait is bounded by how much CPU-side work (CWork +
// CLaunch) sits between it and the next synchronization: that work is
// the most the GPU could have been kept busy, hence the most idle time
// that can contract.
//
// The three problem-type transforms follow the pseudocode exactly:
//   RemoveSyncronization    benefit = min(est-max-GPU-idle, wait);
//                           overflow is added to the next sync's wait
//                           (this += is also what carries unrealized
//                           savings forward through a sequence, §3.5.2)
//   MoveSynchronization     benefit = FirstUseTime; the wait shrinks by
//                           FirstUseTime (optionally capped at the wait
//                           duration — the paper's pseudocode is uncapped;
//                           see BenefitOptions)
//   RemoveMemoryTransfer    benefit = the CLaunch duration, removed
#pragma once

#include <span>
#include <vector>

#include "core/graph.h"

namespace diog::ffm {

struct BenefitOptions {
  // Cap a misplaced synchronization's benefit at its wait duration.
  // Figure 5's pseudocode returns FirstUseTime uncapped; the cap is the
  // physically-meaningful variant and the default here. The ablation
  // bench contrasts the two.
  bool cap_misplaced_at_duration = true;
};

struct NodeBenefit {
  std::size_t node = 0;
  Duration benefit{0};
  ProblemType problem = ProblemType::kNone;
};

struct BenefitReport {
  // Ascending by node index (targets are visited in graph order).
  std::vector<NodeBenefit> per_node;
  Duration total{0};
  Duration sync_benefit{0};      // unnecessary + misplaced syncs
  Duration transfer_benefit{0};  // unnecessary transfers

  // The node's benefit, 0 for a node without one (binary search).
  [[nodiscard]] Duration benefit_of(std::size_t node_index) const;
};

// One Figure-5 evaluation over an immutable graph. The pseudocode
// mutates edge durations as it goes; a Replay instead overlays the few
// durations a transform touches — the current target's new duration and
// the overflow the next synchronization absorbed — and reads every other
// duration from the graph. That is exact because targets are visited in
// ascending graph order (repeats allowed): every node a transform has
// rewritten then lies at or before the current target, except the CWait
// that absorbed overflow, and work_between never sums a CWait. So one
// evaluation costs O(targets), whatever the graph's size.
//
// Each transform returns the node's estimated benefit and throws
// diog::Error when a target precedes the previous one. The graph must
// outlive the replay.
class Replay {
 public:
  explicit Replay(const ExecutionGraph& g) : g_(g) {}
  explicit Replay(const ExecutionGraph&&) = delete;

  // RemoveSyncronization (Figure 5 lines 15-22).
  Duration remove_synchronization(std::size_t i);
  // MoveSynchronization (lines 24-27).
  Duration move_synchronization(std::size_t i, const BenefitOptions& opts);
  // RemoveMemoryTransfer (lines 29-32).
  Duration remove_memory_transfer(std::size_t i);

  // Node i's duration as the evaluation currently sees it. Exact for
  // every node at or after the latest target — the only ones a later
  // transform reads.
  [[nodiscard]] Duration duration(std::size_t i) const;

 private:
  void check_target(std::size_t i);
  void set(std::size_t i, Duration d);

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const ExecutionGraph& g_;
  std::size_t touched_ = kNone;  // the latest target and its new duration
  Duration touched_duration_{0};
  std::size_t absorber_ = kNone;  // the CWait holding pending overflow
  Duration absorbed_{0};
};

// ExpectedBenefit over every problematic node, in graph order.
BenefitReport expected_benefit(const ExecutionGraph& g,
                               const BenefitOptions& opts = {});

// ExpectedBenefit restricted to a subset of problematic node indices
// (must be sorted ascending). Other problematic nodes are treated as
// left unfixed. This powers group, sequence and subsequence estimates —
// including the paper's "evaluate a subsequence without additional data
// collection".
BenefitReport expected_benefit_subset(const ExecutionGraph& g,
                                      std::span<const std::size_t> nodes,
                                      const BenefitOptions& opts = {});

}  // namespace diog::ffm
