#include "core/compare.h"

#include <algorithm>
#include <map>

#include "support/strings.h"

namespace diog::ffm {

namespace {

// The benefit of the problem nodes `in_scope` selects, as one subset.
Duration estimate_for_fix(const AnalysisResult& r, const FixScope& in_scope) {
  std::vector<std::size_t> nodes;
  for (std::size_t i = 0; i < r.graph.size(); ++i) {
    const Node& n = r.graph.nodes()[i];
    if (n.is_problematic() && in_scope(n)) nodes.push_back(i);
  }
  return expected_benefit_subset(r.graph, nodes).total;
}

}  // namespace

double estimate_accuracy(Duration estimated, Duration actual) {
  const double a = static_cast<double>(estimated.count());
  const double b = static_cast<double>(actual.count());
  if (a <= 0.0 || b <= 0.0) return 0.0;
  return a < b ? a / b : b / a;
}

double FixOutcome::accuracy() const {
  return estimate_accuracy(estimated_for_resolved, realized());
}

ScopedFixOutcome evaluate_scoped_fix(const Workload& before,
                                     const Workload& after,
                                     const FixScope& in_scope) {
  Diogenes tool(before);
  const AnalysisResult r = tool.analyze();
  ScopedFixOutcome out;
  out.native = run_uninstrumented(before);
  out.estimated = estimate_for_fix(r, in_scope);
  out.actual = out.native - run_uninstrumented(after);
  out.estimated_fraction = r.fraction_of_exec(out.estimated);
  return out;
}

FixOutcome compare_analyses(const AnalysisResult& before,
                            const AnalysisResult& after) {
  FixOutcome out;
  out.exec_before = before.exec_time();
  out.exec_after = after.exec_time();

  std::map<std::string, GroupDelta> by_title;
  for (const Group& g : before.folds) {
    GroupDelta& d = by_title[g.title];
    d.title = g.title;
    d.before = g.benefit;
  }
  for (const Group& g : after.folds) {
    GroupDelta& d = by_title[g.title];
    d.title = g.title;
    d.after = g.benefit;
  }

  for (auto& [title, d] : by_title) {
    if (d.appeared() && d.after > Duration{0}) {
      out.new_problems.push_back(title);
    }
    out.estimated_for_resolved += d.resolved();
    out.deltas.push_back(d);
  }
  std::sort(out.deltas.begin(), out.deltas.end(),
            [](const GroupDelta& a, const GroupDelta& b) {
              if (a.resolved() != b.resolved()) {
                return a.resolved() > b.resolved();
              }
              return a.title < b.title;
            });
  return out;
}

FixOutcome evaluate_fix(const Workload& before, const Workload& after,
                        const ToolConfig& cfg) {
  Diogenes before_tool(before, cfg);
  Diogenes after_tool(after, cfg);
  return compare_analyses(before_tool.analyze(), after_tool.analyze());
}

FixOutcome compare_runs(const evstore::TraceRun& before,
                        const evstore::TraceRun& after,
                        const ToolConfig& cfg) {
  return compare_analyses(run_analysis(before, cfg),
                          run_analysis(after, cfg));
}

std::string render_fix_outcome(const FixOutcome& o) {
  std::string out = "Fix evaluation\n";
  out += "  execution: " + format_seconds(o.exec_before) + " -> " +
         format_seconds(o.exec_after) + "  (realized " +
         format_seconds(o.realized()) + ")\n";
  out += "  estimated for resolved problems: " +
         format_seconds(o.estimated_for_resolved) + "  (accuracy " +
         format_percent(o.accuracy(), 0) + ")\n";
  for (const GroupDelta& d : o.deltas) {
    if (d.resolved() == Duration{0} && !d.appeared()) continue;
    out += "    " + d.title + ": " + format_seconds(d.before) + " -> " +
           format_seconds(d.after);
    if (d.disappeared()) out += "  [resolved]";
    out += "\n";
  }
  if (!o.new_problems.empty()) {
    out += "  ** new problems introduced by the change: **\n";
    for (const std::string& t : o.new_problems) {
      out += "    " + t + "\n";
    }
  }
  return out;
}

}  // namespace diog::ffm
