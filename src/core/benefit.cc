#include "core/benefit.h"

#include <algorithm>

#include "support/error.h"

namespace diog::ffm {

Duration BenefitReport::benefit_of(std::size_t node_index) const {
  const auto it = std::lower_bound(
      per_node.begin(), per_node.end(), node_index,
      [](const NodeBenefit& nb, std::size_t i) { return nb.node < i; });
  return it != per_node.end() && it->node == node_index ? it->benefit
                                                        : Duration{0};
}

void Replay::check_target(std::size_t i) {
  DIOG_CHECK(i < g_.size(), "bad node index");
  DIOG_CHECK(touched_ == kNone || i >= touched_,
             "replay targets must ascend (graph order)");
}

void Replay::set(std::size_t i, Duration d) {
  touched_ = i;
  touched_duration_ = d;
}

Duration Replay::duration(std::size_t i) const {
  DIOG_CHECK(i < g_.size(), "bad node index");
  if (i == touched_) return touched_duration_;
  const Duration d = g_.nodes()[i].duration;
  return i == absorber_ ? d + absorbed_ : d;
}

Duration Replay::remove_synchronization(std::size_t i) {
  DIOG_CHECK(i < g_.size() && g_.nodes()[i].is_sync_node(),
             "remove_synchronization on a non-sync node");
  check_target(i);
  const std::optional<std::size_t> next = g_.next_sync_after(i);
  const Duration wait = duration(i);

  // EstMaxGPUIdle: all CLaunch/CWork duration between this sync and the
  // next — the upper bound on GPU idle contraction (Fig 5 line 16).
  const Duration est_max_idle = g_.work_between(i, next.value_or(g_.size()));
  const Duration benefit = std::min(est_max_idle, wait);

  // The next synchronization absorbs what could not be saved (line 19).
  // Any earlier absorber lies at or before this target, so no later
  // transform reads it again.
  if (next.has_value() && wait > benefit) {
    if (absorber_ != *next) {
      absorber_ = *next;
      absorbed_ = Duration{0};
    }
    absorbed_ += wait - benefit;
  }
  set(i, Duration{0});  // line 21
  return benefit;
}

Duration Replay::move_synchronization(std::size_t i,
                                      const BenefitOptions& opts) {
  DIOG_CHECK(i < g_.size() && g_.nodes()[i].is_sync_node(),
             "move_synchronization on a non-sync node");
  check_target(i);
  const Duration wait = duration(i);
  const Duration first_use = g_.nodes()[i].first_use_time;
  Duration benefit = first_use;  // line 25
  if (opts.cap_misplaced_at_duration) benefit = std::min(benefit, wait);
  // line 26: the wait shrinks by the first-use gap.
  set(i, std::max(Duration{0}, wait - first_use));
  return benefit;
}

Duration Replay::remove_memory_transfer(std::size_t i) {
  check_target(i);
  const Duration benefit = duration(i);  // line 31
  set(i, Duration{0});                   // line 32
  return benefit;
}

BenefitReport expected_benefit_subset(const ExecutionGraph& g,
                                      std::span<const std::size_t> nodes,
                                      const BenefitOptions& opts) {
  DIOG_CHECK(std::is_sorted(nodes.begin(), nodes.end()),
             "subset indices must be sorted (graph order)");
  BenefitReport report;
  report.per_node.reserve(nodes.size());
  Replay replay(g);
  for (const std::size_t i : nodes) {
    const Node& n = g.nodes()[i];
    Duration b{0};
    switch (n.problem) {
      case ProblemType::kUnnecessarySync:
        b = replay.remove_synchronization(i);
        break;
      case ProblemType::kMisplacedSync:
        b = replay.move_synchronization(i, opts);
        break;
      case ProblemType::kUnnecessaryTransfer:
        b = replay.remove_memory_transfer(i);
        break;
      case ProblemType::kNone:
        continue;
    }
    report.per_node.push_back(NodeBenefit{i, b, n.problem});
    report.total += b;
    if (n.problem == ProblemType::kUnnecessaryTransfer) {
      report.transfer_benefit += b;
    } else {
      report.sync_benefit += b;
    }
  }
  return report;
}

BenefitReport expected_benefit(const ExecutionGraph& g,
                               const BenefitOptions& opts) {
  return expected_benefit_subset(g, g.problematic_indices(), opts);
}

}  // namespace diog::ffm
