#include "core/autofix.h"

#include <algorithm>
#include <map>
#include <set>

#include "support/strings.h"

namespace diog::ffm {

std::string_view to_string(RemedyKind k) {
  switch (k) {
    case RemedyKind::kHoistAllocFree: return "hoist-alloc-free";
    case RemedyKind::kHostMemset: return "host-memset";
    case RemedyKind::kRemoveSync: return "remove-sync";
    case RemedyKind::kCacheTransfer: return "cache-transfer";
    case RemedyKind::kMoveSyncLater: return "move-sync-later";
  }
  return "?";
}

json::Value FixRecommendation::to_json() const {
  json::Object o;
  o["remedy"] = std::string(to_string(remedy));
  json::Array site_arr;
  for (const std::string& s : sites) site_arr.emplace_back(s);
  o["sites"] = std::move(site_arr);
  o["occurrences"] = occurrences;
  o["expected_benefit_ns"] = duration_to_json(expected_benefit);
  o["fraction_of_exec"] = fraction_of_exec;
  o["safety_note"] = safety_note;
  o["action"] = action;
  return json::Value(std::move(o));
}

namespace {

std::string site_description(const ExecutionGraph& g, const Node& n) {
  std::string api = n.api != hooks::Fn::kCount_
                        ? std::string(hooks::fn_name(n.api))
                        : std::string("(unknown)");
  const trace::Frame* leaf = g.leaf(n);
  if (leaf == nullptr) return api;
  return api + " in " + leaf->file + " at line " + std::to_string(leaf->line);
}

// One candidate pattern accumulated from per-node benefits.
struct Accum {
  RemedyKind remedy;
  std::set<std::string> sites;
  std::size_t occurrences = 0;
  Duration benefit{0};
  std::size_t loop_like_sites = 0;  // sites repeating >= loop_threshold
};

}  // namespace

std::vector<FixRecommendation> recommend_fixes(const AnalysisResult& r,
                                               const AutofixOptions& opts) {
  using hooks::Fn;
  const BenefitReport& report = r.benefit;
  const auto& nodes = r.graph.nodes();

  // Count dynamic occurrences per exact site to recognize loop patterns.
  std::map<std::string, std::size_t> site_occurrences;
  for (const NodeBenefit& nb : report.per_node) {
    ++site_occurrences[site_description(r.graph, nodes[nb.node])];
  }

  std::map<RemedyKind, Accum> accum;
  auto add = [&](RemedyKind remedy, const Node& n, Duration benefit) {
    Accum& a = accum[remedy];
    a.remedy = remedy;
    const std::string site = site_description(r.graph, n);
    if (a.sites.insert(site).second &&
        site_occurrences[site] >= opts.loop_threshold) {
      ++a.loop_like_sites;
    }
    ++a.occurrences;
    a.benefit += benefit;
  };

  for (const NodeBenefit& nb : report.per_node) {
    const Node& n = nodes[nb.node];
    switch (n.problem) {
      case ProblemType::kUnnecessaryTransfer: {
        const std::string site = site_description(r.graph, n);
        if (site_occurrences[site] >= opts.loop_threshold) {
          add(RemedyKind::kCacheTransfer, n, nb.benefit);
        }
        break;
      }
      case ProblemType::kUnnecessarySync: {
        const bool is_free = n.api == Fn::kCudaFree ||
                             n.api == Fn::kCudaFreeHost ||
                             n.api == Fn::kPrivMemFree;
        const bool is_managed_memset =
            (n.api == Fn::kCudaMemset || n.api == Fn::kCudaMemsetAsync);
        if (is_free && site_occurrences[site_description(r.graph, n)] >=
                           opts.loop_threshold) {
          add(RemedyKind::kHoistAllocFree, n, nb.benefit);
        } else if (is_managed_memset) {
          add(RemedyKind::kHostMemset, n, nb.benefit);
        } else if (hooks::is_explicit_sync_fn(n.api)) {
          add(RemedyKind::kRemoveSync, n, nb.benefit);
        }
        // Other unnecessary syncs (e.g. a one-off free, a blocking
        // memcpy's drain) have no canned remedy; they stay in the
        // regular report.
        break;
      }
      case ProblemType::kMisplacedSync:
        add(RemedyKind::kMoveSyncLater, n, nb.benefit);
        break;
      case ProblemType::kNone:
        break;
    }
  }

  std::vector<FixRecommendation> out;
  for (auto& [kind, a] : accum) {
    FixRecommendation rec;
    rec.remedy = kind;
    rec.sites.assign(a.sites.begin(), a.sites.end());
    rec.occurrences = a.occurrences;
    rec.expected_benefit = a.benefit;
    rec.fraction_of_exec = r.fraction_of_exec(a.benefit);
    if (rec.fraction_of_exec < opts.min_benefit_fraction) continue;

    switch (kind) {
      case RemedyKind::kHoistAllocFree:
        rec.action = "allocate once outside the loop (or pool the "
                     "temporaries) instead of freeing per iteration: " +
                     std::to_string(a.sites.size()) + " site(s), " +
                     std::to_string(a.occurrences) + " dynamic frees";
        rec.safety_note =
            "safe when the allocation size is iteration-invariant; the "
            "pool must outlive all uses";
        break;
      case RemedyKind::kHostMemset:
        rec.action = "replace cudaMemset on the unified-memory buffer "
                     "with a plain memset";
        rec.safety_note =
            "valid only while the pages are CPU-resident and no kernel "
            "writes the buffer concurrently";
        break;
      case RemedyKind::kRemoveSync:
        rec.action = "delete the synchronization call(s): nothing they "
                     "protect is read before the next synchronization";
        rec.safety_note =
            "re-run stage 3 after removal to confirm no access pattern "
            "changed; benefit is often negligible (the wait migrates)";
        break;
      case RemedyKind::kCacheTransfer:
        rec.action = "upload once and reuse the device copy: the same "
                     "bytes crossed the bus " +
                     std::to_string(a.occurrences) + " extra time(s)";
        rec.safety_note =
            "guard the host buffer against modification (const + "
            "mprotect, as §5.1 does) so a changed dataset cannot be "
            "silently dropped";
        break;
      case RemedyKind::kMoveSyncLater:
        rec.action = "move the synchronization to just before the first "
                     "use of the data it protects";
        rec.safety_note =
            "the first-use site comes from stage 3's access trace; "
            "verify no other consumer exists on untraced paths";
        break;
    }
    out.push_back(std::move(rec));
  }

  std::sort(out.begin(), out.end(),
            [](const FixRecommendation& a, const FixRecommendation& b) {
              return a.expected_benefit > b.expected_benefit;
            });
  return out;
}

std::string render_recommendations(
    const AnalysisResult& r, const std::vector<FixRecommendation>& recs) {
  std::string out = "Automatic-correction candidates (" + r.workload_name +
                    ")\n";
  if (recs.empty()) {
    out += "  (none above the benefit threshold)\n";
    return out;
  }
  std::size_t i = 1;
  for (const FixRecommendation& rec : recs) {
    out += std::to_string(i++) + ". [" + std::string(to_string(rec.remedy)) +
           "] " + format_seconds(rec.expected_benefit) + " (" +
           format_percent(rec.fraction_of_exec) + ")\n";
    out += "   action: " + rec.action + "\n";
    out += "   safety: " + rec.safety_note + "\n";
    const std::size_t max_sites = 4;
    for (std::size_t s = 0; s < rec.sites.size() && s < max_sites; ++s) {
      out += "     - " + rec.sites[s] + "\n";
    }
    if (rec.sites.size() > max_sites) {
      out += "     - ... " + std::to_string(rec.sites.size() - max_sites) +
             " more site(s)\n";
    }
  }
  return out;
}

}  // namespace diog::ffm
