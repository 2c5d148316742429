#include "core/groupings.h"

#include <algorithm>
#include <compare>
#include <map>

#include "support/error.h"
#include "support/strings.h"

namespace diog::ffm {

namespace {

// Is this node's problem an implicit or conditional synchronization
// (removable only under conditions), as opposed to an explicit sync call
// the program spelled out?
bool is_conditionally_unnecessary(const Node& n) {
  if (n.problem != ProblemType::kUnnecessarySync) return false;
  return !hooks::is_explicit_sync_fn(n.api);
}

// Benefit-descending with a deterministic tie-break on the member node
// indices (graph append order), so the order never depends on how a
// grouping map happens to key its sites.
bool group_order(const Group& a, const Group& b) {
  if (a.benefit != b.benefit) return a.benefit > b.benefit;
  return a.nodes < b.nodes;
}

std::string folded_leaf_name(const ExecutionGraph& g, const Node& n) {
  const trace::Frame* leaf = g.leaf(n);
  if (leaf == nullptr) return "(no stack)";
  return leaf->folded_function;
}

void count_issues(const ExecutionGraph& g, Group& grp) {
  for (const std::size_t i : grp.nodes) {
    const Node& n = g.nodes()[i];
    if (n.problem == ProblemType::kUnnecessaryTransfer) {
      ++grp.transfer_issues;
    } else if (n.problem != ProblemType::kNone) {
      ++grp.sync_issues;
    }
  }
}

}  // namespace

std::string leaf_description(const ExecutionGraph& g, const Node& n) {
  std::string api = n.api != hooks::Fn::kCount_
                        ? std::string(hooks::fn_name(n.api))
                        : std::string("(unknown)");
  const trace::Frame* leaf = g.leaf(n);
  if (leaf == nullptr) return api;
  return api + " in " + leaf->file + " at line " + std::to_string(leaf->line);
}

json::Value Group::to_json() const {
  json::Object o;
  switch (kind) {
    case Kind::kSinglePoint: o["kind"] = "single_point"; break;
    case Kind::kFoldedApi: o["kind"] = "folded_function"; break;
    case Kind::kSequence: o["kind"] = "sequence"; break;
    case Kind::kSubsequence: o["kind"] = "subsequence"; break;
  }
  o["title"] = title;
  o["benefit_ns"] = duration_to_json(benefit);
  o["sync_issues"] = sync_issues;
  o["transfer_issues"] = transfer_issues;
  json::Array members;
  members.reserve(nodes.size());
  for (const std::size_t n : nodes) {
    members.emplace_back(static_cast<std::int64_t>(n));
  }
  o["node_indices"] = std::move(members);
  if (!expansion.empty()) {
    json::Array exp;
    for (const FoldEntry& e : expansion) {
      json::Object eo;
      eo["folded_name"] = e.folded_name;
      eo["benefit_ns"] = duration_to_json(e.benefit);
      eo["member_count"] = e.member_count;
      eo["conditionally_unnecessary"] = e.conditionally_unnecessary;
      exp.emplace_back(std::move(eo));
    }
    o["expansion"] = std::move(exp);
  }
  return json::Value(std::move(o));
}

std::vector<Group> single_point_groups(const ExecutionGraph& g,
                                       const BenefitOptions& opts) {
  const BenefitReport report = expected_benefit(g, opts);

  // The store interns each distinct stack once, so equal stack ids are
  // exactly equal stacks.
  std::map<std::pair<hooks::Fn, evstore::StackId>, Group> by_site;
  for (const NodeBenefit& nb : report.per_node) {
    const Node& n = g.nodes()[nb.node];
    Group& grp = by_site[{n.api, n.stack}];
    if (grp.nodes.empty()) {
      grp.kind = Group::Kind::kSinglePoint;
      grp.title = leaf_description(g, n);
    }
    grp.nodes.push_back(nb.node);
    grp.benefit += nb.benefit;
  }

  std::vector<Group> out;
  out.reserve(by_site.size());
  for (auto& [key, grp] : by_site) {
    count_issues(g, grp);
    out.push_back(std::move(grp));
  }
  std::sort(out.begin(), out.end(), group_order);
  return out;
}

std::vector<Group> folded_api_groups(const ExecutionGraph& g,
                                     const BenefitOptions& opts) {
  const BenefitReport report = expected_benefit(g, opts);

  std::map<hooks::Fn, Group> by_api;
  // Expansion accumulators: per API, per folded app-function name.
  struct FoldAccum {
    Duration benefit{0};
    std::size_t count = 0;
    bool conditional = false;
  };
  std::map<hooks::Fn, std::map<std::string, FoldAccum>> folds;

  for (const NodeBenefit& nb : report.per_node) {
    const Node& n = g.nodes()[nb.node];
    Group& grp = by_api[n.api];
    if (grp.nodes.empty()) {
      grp.kind = Group::Kind::kFoldedApi;
      grp.title = "Fold on " + std::string(hooks::fn_name(n.api));
    }
    grp.nodes.push_back(nb.node);
    grp.benefit += nb.benefit;

    FoldAccum& acc = folds[n.api][folded_leaf_name(g, n)];
    acc.benefit += nb.benefit;
    ++acc.count;
    acc.conditional = acc.conditional || is_conditionally_unnecessary(n);
  }

  std::vector<Group> out;
  out.reserve(by_api.size());
  for (auto& [api, grp] : by_api) {
    count_issues(g, grp);
    for (auto& [name, acc] : folds[api]) {
      Group::FoldEntry e;
      e.folded_name = name;
      e.benefit = acc.benefit;
      e.member_count = acc.count;
      e.conditionally_unnecessary = acc.conditional;
      grp.expansion.push_back(std::move(e));
    }
    std::sort(grp.expansion.begin(), grp.expansion.end(),
              [](const Group::FoldEntry& a, const Group::FoldEntry& b) {
                return a.benefit > b.benefit;
              });
    out.push_back(std::move(grp));
  }
  std::sort(out.begin(), out.end(), group_order);
  return out;
}

namespace {

// Signature of a problematic run: member-wise (API, stack, problem).
// Loop iterations emit identical signatures; those runs merge into one
// logical sequence.
struct Member {
  hooks::Fn api;
  evstore::StackId stack;
  ProblemType problem;
  auto operator<=>(const Member&) const = default;
};
using Signature = std::vector<Member>;

Signature run_signature(const ExecutionGraph& g,
                        const std::vector<std::size_t>& run) {
  Signature sig;
  sig.reserve(run.size());
  for (const std::size_t i : run) {
    const Node& n = g.nodes()[i];
    sig.push_back(Member{n.api, n.stack, n.problem});
  }
  return sig;
}

}  // namespace

std::vector<Group> sequence_groups(const ExecutionGraph& g,
                                   const BenefitOptions& opts,
                                   std::size_t min_members) {
  // Pass 1: collect maximal problematic runs. "A sequence ... ends when a
  // node is discovered that performs a synchronization that is
  // necessary." Non-sync healthy nodes (CWork, healthy CLaunch) sit
  // inside a sequence without breaking it, so a run breaks between two
  // consecutive problems exactly when the first one's next sync comes
  // before the second (that sync is then not a problem).
  std::vector<std::vector<std::size_t>> runs;
  std::vector<std::size_t> run;
  auto flush = [&] {
    if (run.size() >= min_members) runs.push_back(run);
    run.clear();
  };
  for (const std::size_t i : g.problematic_indices()) {
    if (!run.empty()) {
      const std::optional<std::size_t> sync = g.next_sync_after(run.back());
      if (sync.has_value() && *sync < i) flush();
    }
    run.push_back(i);
  }
  flush();

  // Pass 2: merge runs with identical signatures (loop iterations).
  std::map<Signature, Group> merged;
  std::vector<Group*> order;  // first-seen order
  for (const std::vector<std::size_t>& r : runs) {
    auto [it, inserted] = merged.try_emplace(run_signature(g, r));
    Group& grp = it->second;
    if (inserted) {
      grp.kind = Group::Kind::kSequence;
      grp.nodes = r;
      grp.title = "Sequence starting at call " +
                  leaf_description(g, g.nodes()[r[0]]);
      order.push_back(&grp);
    }
    grp.instances.push_back(r);
  }

  // Pass 3: estimate each merged sequence over the union of its
  // instances' nodes (one subset pass captures the cross-iteration
  // interactions).
  std::vector<Group> out;
  out.reserve(order.size());
  for (Group* merged_grp : order) {
    Group& grp = out.emplace_back(std::move(*merged_grp));
    std::vector<std::size_t> all_nodes;
    for (const auto& inst : grp.instances) {
      all_nodes.insert(all_nodes.end(), inst.begin(), inst.end());
    }
    std::sort(all_nodes.begin(), all_nodes.end());
    grp.benefit = expected_benefit_subset(g, all_nodes, opts).total;
    // Issue counts describe the sequence TEMPLATE (one instance), as the
    // paper's Figure 6 header does; instance_count() scales them.
    count_issues(g, grp);
  }

  std::sort(out.begin(), out.end(), group_order);
  return out;
}

std::vector<SequenceEntry> sequence_entries(const ExecutionGraph& g,
                                            const Group& sequence) {
  std::vector<SequenceEntry> out;
  std::int64_t last_op = -2;
  for (const std::size_t i : sequence.nodes) {
    const Node& n = g.nodes()[i];
    if (n.op_index == last_op && n.op_index >= 0) {
      continue;  // transfer+sync pair from one call: one display entry
    }
    last_op = n.op_index;
    SequenceEntry e;
    e.ordinal = out.size() + 1;
    e.op_index = n.op_index;
    e.description = leaf_description(g, n);
    out.push_back(std::move(e));
  }
  return out;
}

namespace {

// Slice one instance's node list down to the members whose display
// ordinal (per-op grouping, 1-based) falls in [first, last].
std::vector<std::size_t> slice_instance(const ExecutionGraph& g,
                                        const std::vector<std::size_t>& inst,
                                        std::size_t first, std::size_t last) {
  std::vector<std::size_t> out;
  std::size_t ordinal = 0;
  std::int64_t last_op = -2;
  for (const std::size_t i : inst) {
    const Node& n = g.nodes()[i];
    if (n.op_index != last_op || n.op_index < 0) {
      ++ordinal;
      last_op = n.op_index;
    }
    if (ordinal >= first && ordinal <= last) out.push_back(i);
  }
  return out;
}

}  // namespace

Group subsequence(const ExecutionGraph& g, const Group& sequence,
                  std::size_t first, std::size_t last,
                  const BenefitOptions& opts) {
  const std::vector<SequenceEntry> entries = sequence_entries(g, sequence);
  DIOG_CHECK(first >= 1 && first <= last && last <= entries.size(),
             "subsequence bounds out of range");

  Group out;
  out.kind = Group::Kind::kSubsequence;
  out.title = "Subsequence [" + std::to_string(first) + ".." +
              std::to_string(last) + "] of " + sequence.title;

  // Slice every instance identically — "no additional data collection":
  // this is pure re-analysis of the stored graph.
  const auto& instances = sequence.instances.empty()
                              ? std::vector<std::vector<std::size_t>>{
                                    sequence.nodes}
                              : sequence.instances;
  std::vector<std::size_t> all_nodes;
  for (const auto& inst : instances) {
    const std::vector<std::size_t> sliced =
        slice_instance(g, inst, first, last);
    all_nodes.insert(all_nodes.end(), sliced.begin(), sliced.end());
    if (out.nodes.empty() && !sliced.empty()) out.nodes = sliced;
  }
  std::sort(all_nodes.begin(), all_nodes.end());
  out.instances = instances;
  out.benefit = expected_benefit_subset(g, all_nodes, opts).total;
  count_issues(g, out);  // per-instance counts, as in the sequence header
  return out;
}

}  // namespace diog::ffm
