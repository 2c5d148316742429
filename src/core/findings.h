// Findings: the analysis stage's results flattened into the ranked list
// a consumer explains or displays.
//
// The overview display, the JSON export, and the explorer's findings
// panel all want the same thing — "the problems worth fixing, best
// first" — but the analysis hands them three parallel grouping lenses.
// A Finding is one entry of the merged, benefit-sorted view (folds and
// sequences, exactly the set render_overview shows), together with the
// per-member facts a diagnosis needs: which nodes are involved, what
// problem each carries, how much wait time the members pin down, and
// how large the first-use gaps are.
#pragma once

#include <vector>

#include "core/diogenes.h"

namespace diog::ffm {

struct Finding {
  enum class Source : std::uint8_t { kFold, kSequence };
  Source source = Source::kFold;
  // Borrowed from the AnalysisResult that produced the finding; valid
  // while that result lives.
  const Group* group = nullptr;
  std::size_t rank = 0;  // 1-based position in the benefit ordering

  // --- Member facts (aggregated over group->nodes) ------------------------
  std::size_t members = 0;
  std::size_t unnecessary_syncs = 0;
  std::size_t misplaced_syncs = 0;
  std::size_t unnecessary_transfers = 0;
  // Total duration of the member nodes themselves (wait time for syncs,
  // launch time for transfers): the raw time the members occupy, the
  // denominator of "how much of it is recoverable".
  Duration member_time{0};
  // Summed per-node benefit of the transfer members and of the sync
  // (unnecessary or misplaced) members.
  Duration transfer_benefit{0};
  Duration sync_benefit{0};
  // Largest first-use gap across misplaced members (0 when none).
  Duration max_first_use_gap{0};
  // Dominant API among members (by member count; ties to the smaller
  // enum value so the answer is deterministic).
  hooks::Fn dominant_api = hooks::Fn::kCount_;

  [[nodiscard]] double recoverable_fraction() const {
    return member_time.count() > 0
               ? static_cast<double>(group->benefit.count()) /
                     static_cast<double>(member_time.count())
               : 0.0;
  }
};

// The merged fold + sequence listing, stable-sorted by descending
// benefit — the same entries, in the same order, as render_overview.
// Pointers borrow from `r`.
std::vector<Finding> collect_findings(const AnalysisResult& r);

}  // namespace diog::ffm
