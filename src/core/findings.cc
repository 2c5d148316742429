#include "core/findings.h"

#include <algorithm>
#include <array>

namespace diog::ffm {

namespace {

void fold_member_facts(const AnalysisResult& r, Finding& f) {
  const std::span<const Node> nodes = r.graph.nodes();
  std::array<std::size_t, static_cast<std::size_t>(hooks::Fn::kCount_) + 1>
      api_counts{};
  // A merged sequence's benefit covers every loop instance; the member
  // facts should too, so aggregate over all instances.
  for (const std::vector<std::size_t>& members : f.group->instance_sets()) {
    for (const std::size_t i : members) {
      if (i >= nodes.size()) continue;
      const Node& n = nodes[i];
      ++f.members;
      f.member_time += n.duration;
      ++api_counts[static_cast<std::size_t>(n.api)];
      switch (n.problem) {
        case ProblemType::kUnnecessarySync:
          ++f.unnecessary_syncs;
          f.sync_benefit += r.benefit.benefit_of(i);
          break;
        case ProblemType::kMisplacedSync:
          ++f.misplaced_syncs;
          f.sync_benefit += r.benefit.benefit_of(i);
          f.max_first_use_gap =
              std::max(f.max_first_use_gap, n.first_use_time);
          break;
        case ProblemType::kUnnecessaryTransfer:
          ++f.unnecessary_transfers;
          f.transfer_benefit += r.benefit.benefit_of(i);
          break;
        case ProblemType::kNone:
          break;
      }
    }
  }
  std::size_t best = 0;
  for (std::size_t a = 0; a < api_counts.size(); ++a) {
    if (api_counts[a] > best) {
      best = api_counts[a];
      f.dominant_api = static_cast<hooks::Fn>(a);
    }
  }
}

}  // namespace

std::vector<Finding> collect_findings(const AnalysisResult& r) {
  std::vector<Finding> out;
  out.reserve(r.folds.size() + r.sequences.size());
  for (const Group& g : r.folds) {
    Finding f;
    f.source = Finding::Source::kFold;
    f.group = &g;
    out.push_back(f);
  }
  for (const Group& g : r.sequences) {
    Finding f;
    f.source = Finding::Source::kSequence;
    f.group = &g;
    out.push_back(f);
  }
  // The overview's ordering exactly: folds before sequences, stable
  // sort by descending benefit.
  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.group->benefit > b.group->benefit;
                   });
  std::size_t rank = 1;
  for (Finding& f : out) {
    f.rank = rank++;
    fold_member_facts(r, f);
  }
  return out;
}

}  // namespace diog::ffm
