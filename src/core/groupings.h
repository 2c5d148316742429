// Node groupings (paper §3.5.2).
//
// "In real applications, multiple problematic operations often have the
// same underlying cause" — one source line, one (template) function, or
// one contiguous stretch of execution. Groupings expose problems where a
// single fix corrects many operations:
//
//   single point     identical stack traces, matched exactly (the analog
//                    of matching instruction addresses);
//   folded function  stack traces matched by demangled base function
//                    name with template parameters discarded — many
//                    instantiations, one source-level fix; presented per
//                    API operation ("Fold on cudaFree") with a per-
//                    folded-name expansion (Figure 7);
//   sequence         a maximal contiguous run of problematic nodes with
//                    no necessary synchronization inside (Figure 6);
//                    unrealized savings carry forward through the run;
//   subsequence      a user-selected [first..last] slice of a sequence,
//                    re-estimated from already-collected data — no new
//                    run needed (Figure 8).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/benefit.h"
#include "core/graph.h"

namespace diog::ffm {

struct Group {
  enum class Kind : std::uint8_t {
    kSinglePoint,
    kFoldedApi,
    kSequence,
    kSubsequence,
  };

  Kind kind = Kind::kSinglePoint;
  std::string title;
  // Graph node indices of the members, ascending. For a merged sequence
  // this is the FIRST instance (the one the listing displays).
  std::vector<std::size_t> nodes;
  Duration benefit{0};
  std::size_t sync_issues = 0;
  std::size_t transfer_issues = 0;

  // Sequences: a loop body usually emits the identical problematic run
  // every iteration. Runs with the same member signature (API + stack +
  // problem, in order) merge into one logical sequence whose benefit is
  // the subset estimate over ALL instances; `instances` keeps each
  // run's node indices so subsequence refinement can slice every
  // instance consistently.
  std::vector<std::vector<std::size_t>> instances;
  [[nodiscard]] std::size_t instance_count() const {
    return instances.empty() ? 1 : instances.size();
  }
  // Every instance's members: `instances`, or `nodes` as the only one.
  [[nodiscard]] std::span<const std::vector<std::size_t>> instance_sets()
      const {
    return instances.empty() ? std::span(&nodes, 1) : std::span(instances);
  }

  // Folded-group expansion entries (Figure 7 right pane).
  struct FoldEntry {
    std::string folded_name;  // template-folded app function
    Duration benefit{0};
    std::size_t member_count = 0;
    // Implicit/conditional synchronizations are correct to remove only
    // under conditions the user must check; the display marks them.
    bool conditionally_unnecessary = false;
  };
  std::vector<FoldEntry> expansion;

  [[nodiscard]] json::Value to_json() const;
};

// A node's site: its API and the source location of its leaf frame,
// e.g. "cudaFree in als.cpp at line 856" (the API alone without a stack).
std::string leaf_description(const ExecutionGraph& g, const Node& n);

// All three lenses over one analyzed graph. Group benefits are per-node
// benefits from a single ExpectedBenefit pass over all problematic
// nodes, summed by membership (the paper's "modified ExpectedBenefit").
std::vector<Group> single_point_groups(const ExecutionGraph& g,
                                       const BenefitOptions& opts = {});
std::vector<Group> folded_api_groups(const ExecutionGraph& g,
                                     const BenefitOptions& opts = {});
// Sequences are estimated with a subset pass over their own members
// (what "fix exactly this stretch" would recover). Runs shorter than
// `min_members` problem nodes are omitted.
std::vector<Group> sequence_groups(const ExecutionGraph& g,
                                   const BenefitOptions& opts = {},
                                   std::size_t min_members = 2);

// Figure 8: re-estimate a slice of an existing sequence. `first` and
// `last` are 1-based member ordinals as displayed in the sequence
// listing (inclusive). Pure re-analysis of stored data.
Group subsequence(const ExecutionGraph& g, const Group& sequence,
                  std::size_t first, std::size_t last,
                  const BenefitOptions& opts = {});

// Members of a sequence displayed per operation (a transfer+sync pair
// from one call collapses into one display entry, as in Figure 6).
struct SequenceEntry {
  std::size_t ordinal = 0;  // 1-based display number
  std::int64_t op_index = -1;
  std::string description;  // "cudaFree in als.cpp at line 856"
};
std::vector<SequenceEntry> sequence_entries(const ExecutionGraph& g,
                                            const Group& sequence);

}  // namespace diog::ffm
