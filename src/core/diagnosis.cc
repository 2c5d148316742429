#include "core/diagnosis.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "core/groupings.h"
#include "eventstore/cursor.h"
#include "obs/span.h"
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

json::Value Diagnosis::to_json() const {
  json::Object o;
  o["pattern"] = pattern;
  o["headline"] = headline;
  o["narrative"] = narrative;
  o["evidence"] = evidence;
  return json::Value(std::move(o));
}

namespace {

// A site must repeat at least this many times to be treated as a
// per-iteration pattern (kHoistAllocFree / kCacheTransfer).
constexpr std::size_t kLoopSiteRepeats = 4;

// Per-member facts read back from the event store: how the member
// operations asked for their work vs. what the driver actually did.
// These bits decide between patterns the graph alone cannot separate
// (an explicit cudaDeviceSynchronize vs. an async copy that was
// silently serialized).
struct OpFlagFacts {
  std::size_t async_requested = 0;  // members that asked for async
  std::size_t hidden_syncs = 0;     // async requested AND sync performed
  std::size_t pageable_endpoint = 0;  // transfer touching pageable host mem
  std::size_t duplicate_ops = 0;      // members flagged as duplicate content
};

// Every finding's op-flag facts from one scan of the op and
// duplicate-transfer columns. A member op counts once per finding (a
// transfer and the sync it performed are two nodes of one op).
std::vector<OpFlagFacts> gather_op_flags(const AnalysisResult& r,
                                         std::span<const Finding> fs) {
  namespace ev = evstore;
  std::vector<OpFlagFacts> out(fs.size());
  if (!r.run.store) return out;
  // Member op -> the findings it belongs to, ascending, each once.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> owners;
  const std::span<const Node> nodes = r.graph.nodes();
  for (std::size_t k = 0; k < fs.size(); ++k) {
    for (const auto& set : fs[k].group->instance_sets()) {
      for (const std::size_t i : set) {
        if (i >= nodes.size() || nodes[i].op_index < 0) continue;
        std::vector<std::size_t>& ks =
            owners[static_cast<std::uint64_t>(nodes[i].op_index)];
        if (ks.empty() || ks.back() != k) ks.push_back(k);
      }
    }
  }
  if (owners.empty()) return out;

  const ev::EventStore& store = *r.run.store;
  ev::Event e;
  for (ev::Cursor c = ev::ops(store); c.next(e);) {
    const auto it = owners.find(e.op_index);
    if (it == owners.end()) continue;
    const bool async = e.has(ev::flag::kAsyncRequested);
    const bool hidden = async && e.has(ev::flag::kPerformedSync);
    const bool pageable = e.has(ev::flag::kPerformedTransfer) &&
                          (e.src_mem() == hooks::MemKind::kPageable ||
                           e.dst_mem() == hooks::MemKind::kPageable);
    for (const std::size_t k : it->second) {
      out[k].async_requested += async;
      out[k].hidden_syncs += hidden;
      out[k].pageable_endpoint += pageable;
    }
  }
  for (ev::Cursor d = ev::duplicate_transfers(store); d.next(e);) {
    const auto it = owners.find(e.op_index);
    if (it == owners.end()) continue;
    for (const std::size_t k : it->second) ++out[k].duplicate_ops;
  }
  return out;
}

// One remedy's members: their distinct sites, count and summed
// per-node benefit.
struct RemedyTally {
  std::set<std::string> sites;
  std::size_t occurrences = 0;
  Duration benefit{0};
};

FixRecommendation make_fix(const AnalysisResult& r, RemedyKind kind,
                           const RemedyTally& t) {
  FixRecommendation rec;
  rec.remedy = kind;
  rec.sites.assign(t.sites.begin(), t.sites.end());
  rec.occurrences = t.occurrences;
  rec.expected_benefit = t.benefit;
  rec.fraction_of_exec = r.fraction_of_exec(t.benefit);
  switch (kind) {
    case RemedyKind::kHoistAllocFree:
      rec.action = "allocate once outside the loop (or pool the "
                   "temporaries) instead of freeing per iteration: " +
                   std::to_string(t.sites.size()) + " site(s), " +
                   std::to_string(t.occurrences) + " dynamic frees";
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
                   std::to_string(t.occurrences) + " extra time(s)";
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
  return rec;
}

std::string pct(double fraction) { return format_percent(fraction); }

// What the group *is*, as the narrative's opening clause.
std::string group_phrase(const Finding& f) {
  const Group& g = *f.group;
  if (f.source == Finding::Source::kSequence) {
    std::string s = "a contiguous sequence of " +
                    std::to_string(g.nodes.size()) +
                    " problematic operation(s)";
    if (g.instance_count() > 1) {
      s += " repeated " + std::to_string(g.instance_count()) +
           " times (one loop iteration each)";
    }
    return s;
  }
  const std::string api = f.dominant_api == hooks::Fn::kCount_
                              ? "the grouped operations"
                              : std::string(hooks::fn_name(f.dominant_api));
  return std::to_string(f.members) + " call(s) of " + api + " folded onto " +
         std::to_string(std::max<std::size_t>(g.expansion.size(), 1)) +
         " source-level function(s)";
}

// The classifier: chooses the finding's pattern (most specific rule
// first) and, for a fold, each member's remedy.
Diagnosis diagnose_one(const AnalysisResult& r, const Finding& f,
                       const OpFlagFacts& flags) {
  const Group& g = *f.group;
  const double recoverable = f.recoverable_fraction();
  const double share =
      r.benefit.total.count() > 0
          ? static_cast<double>(g.benefit.count()) /
                static_cast<double>(r.benefit.total.count())
          : 0.0;
  // Transfers or syncs dominate by the benefit their members carry (the
  // sum the remedies report); member counts only break a tie.
  const std::size_t sync_members = f.unnecessary_syncs + f.misplaced_syncs;
  const bool transfers_dominate =
      f.transfer_benefit != f.sync_benefit
          ? f.transfer_benefit > f.sync_benefit
          : f.unnecessary_transfers > sync_members;
  const bool misplaced_dominate = f.misplaced_syncs > f.unnecessary_syncs &&
                                  f.misplaced_syncs >= f.unnecessary_transfers;
  const bool conditional =
      std::any_of(g.expansion.begin(), g.expansion.end(),
                  [](const Group::FoldEntry& e) {
                    return e.conditionally_unnecessary;
                  });

  Diagnosis d;

  // --- Rule match, most specific first ------------------------------------
  if (transfers_dominate && flags.duplicate_ops > 0) {
    d.pattern = "duplicate-transfer";
    d.headline = std::to_string(flags.duplicate_ops) +
                 " transfer(s) move bytes already resident on the device";
    d.narrative =
        "This is " + group_phrase(f) +
        ". Content hashing (stage 3) found " +
        std::to_string(flags.duplicate_ops) +
        " of the transfers re-send data whose digest already crossed the "
        "bus, so the copies are pure overhead; dropping them recovers "
        "their full launch time of " + format_seconds(g.benefit) + ".";
  } else if (transfers_dominate) {
    d.pattern = "unnecessary-transfer";
    d.headline = "transfers whose payload the device never needed again";
    d.narrative =
        "This is " + group_phrase(f) +
        ". The flagged copies move data no subsequent GPU operation "
        "reads, so each one's CPU launch cost (" +
        format_seconds(g.benefit) + " in total) vanishes when removed.";
  } else if (misplaced_dominate && flags.hidden_syncs > 0) {
    d.pattern = "async-copy-hidden-sync";
    d.headline = std::to_string(flags.hidden_syncs) +
                 " async call(s) silently serialized" +
                 (flags.pageable_endpoint > 0 ? " by pageable host memory"
                                              : "");
    d.narrative =
        "This is " + group_phrase(f) + ". " +
        std::to_string(flags.hidden_syncs) +
        " member(s) requested asynchronous execution but the driver "
        "performed a blocking synchronization anyway" +
        (flags.pageable_endpoint > 0
             ? " — the transfer endpoint is pageable host memory, which "
               "forces the copy onto the synchronous path (the classic "
               "async-copy-into-pageable bug; pin the buffer with "
               "cudaMallocHost to restore overlap)"
             : "") +
        ". First use of the synchronized data comes " +
        format_seconds(f.max_first_use_gap) +
        " after the wait ends, so deferring the sync to the use site "
        "recovers " + format_seconds(g.benefit) + " (" + pct(recoverable) +
        " of the members' " + format_seconds(f.member_time) +
        " wait time).";
  } else if (misplaced_dominate) {
    d.pattern = "early-sync-before-first-use";
    d.headline = "sync completes " + format_seconds(f.max_first_use_gap) +
                 " before its data is first used";
    d.narrative =
        "This is " + group_phrase(f) +
        ". The synchronization is required — the CPU does read the "
        "result — but it happens too early: the first dependent access "
        "is " + format_seconds(f.max_first_use_gap) +
        " after the wait completes (stage-4 first-use measurement). "
        "Moving the sync adjacent to the first use recovers " +
        format_seconds(g.benefit) + " (" + pct(recoverable) +
        " of the members' wait time), bounded by the gap itself.";
  } else if (f.source == Finding::Source::kSequence &&
             g.instance_count() >= 4) {
    d.pattern = "sync-in-hot-loop";
    d.headline = "per-iteration synchronization in a " +
                 std::to_string(g.instance_count()) + "-iteration loop";
    d.narrative =
        "This is " + group_phrase(f) +
        ": the identical problematic run re-appears every iteration, so "
        "one source change multiplies by " +
        std::to_string(g.instance_count()) +
        ". Unrealized savings carry forward through each run (removing "
        "one wait lets the next grow), which is why the sequence "
        "estimate of " + format_seconds(g.benefit) +
        " is computed over the whole stretch rather than summed "
        "per-site.";
  } else if (f.source == Finding::Source::kFold &&
             (g.expansion.size() > 1 || conditional)) {
    d.pattern = "template-folded-sync";
    d.headline = std::to_string(f.members) + " sites collapse to " +
                 std::to_string(g.expansion.size()) +
                 " template function(s); one fix covers all";
    d.narrative =
        "This is " + group_phrase(f) +
        ". The distinct call stacks differ only in template "
        "instantiation, so they share one source location; fixing it "
        "addresses all " + std::to_string(f.members) +
        " member(s) at once for " + format_seconds(g.benefit) + "." +
        (conditional
             ? " Some members are implicit synchronizations that are "
               "only conditionally removable — verify the marked "
               "conditions before applying the fix."
             : "");
  } else if (recoverable >= 0.75) {
    d.pattern = "redundant-device-sync";
    d.headline = pct(recoverable) +
                 " of the wait time is recoverable: no dependent access "
                 "follows";
    d.narrative =
        "This is " + group_phrase(f) +
        ". Memory tracking (stage 3) observed no CPU access to "
        "device-written data behind these synchronizations, so they "
        "guard nothing; removing them recovers " +
        format_seconds(g.benefit) + " of their " +
        format_seconds(f.member_time) + " wait time (" +
        pct(recoverable) + ").";
  } else {
    d.pattern = "limited-benefit-sync";
    d.headline = "only " + pct(recoverable) +
                 " recoverable: the next sync absorbs the rest";
    d.narrative =
        "This is " + group_phrase(f) +
        ". The synchronizations are unnecessary, but removing a wait "
        "only helps while the CPU has work to keep the device busy; "
        "here little CPU work sits before the next synchronization, "
        "which simply grows to absorb the freed time (the paper's "
        "limited-benefit case). Estimated recovery is " +
        format_seconds(g.benefit) + " of " +
        format_seconds(f.member_time) + " (" + pct(recoverable) + ").";
  }

  // Which lens captured the problem, and how much of the run it is.
  d.narrative += " This " +
                 std::string(f.source == Finding::Source::kFold ? "fold"
                                                                : "sequence") +
                 " accounts for " + pct(share) +
                 " of the run's total estimated benefit.";

  json::Object ev;
  ev["members"] = f.members;
  ev["unnecessary_syncs"] = f.unnecessary_syncs;
  ev["misplaced_syncs"] = f.misplaced_syncs;
  ev["unnecessary_transfers"] = f.unnecessary_transfers;
  ev["member_time_ns"] = f.member_time.count();
  ev["benefit_ns"] = g.benefit.count();
  ev["recoverable_fraction"] = recoverable;
  ev["share_of_total_benefit"] = share;
  ev["max_first_use_gap_ns"] = f.max_first_use_gap.count();
  ev["instances"] = static_cast<std::uint64_t>(g.instance_count());
  ev["async_requested"] = flags.async_requested;
  ev["hidden_syncs"] = flags.hidden_syncs;
  ev["pageable_endpoints"] = flags.pageable_endpoint;
  ev["duplicate_transfers"] = flags.duplicate_ops;
  d.evidence = std::move(ev);

  if (f.source != Finding::Source::kFold) return d;

  // --- Remedy per member: problem type x API x a repeating site ----------
  // The fold holds every problem node of one API and the site string
  // names the API, so the fold's site histogram is the run's.
  using hooks::Fn;
  const std::span<const Node> nodes = r.graph.nodes();
  std::vector<std::string> site;
  std::map<std::string, std::size_t> repeats;
  for (const std::size_t i : g.nodes) {
    ++repeats[site.emplace_back(leaf_description(r.graph, nodes[i]))];
  }
  std::map<RemedyKind, RemedyTally> tallies;
  for (std::size_t k = 0; k < g.nodes.size(); ++k) {
    const Node& n = nodes[g.nodes[k]];
    const bool loop_site = repeats[site[k]] >= kLoopSiteRepeats;
    std::optional<RemedyKind> remedy;
    switch (n.problem) {
      case ProblemType::kUnnecessaryTransfer:
        if (loop_site) remedy = RemedyKind::kCacheTransfer;
        break;
      case ProblemType::kUnnecessarySync: {
        const bool is_free = n.api == Fn::kCudaFree ||
                             n.api == Fn::kCudaFreeHost ||
                             n.api == Fn::kPrivMemFree;
        if (is_free && loop_site) {
          remedy = RemedyKind::kHoistAllocFree;
        } else if (n.api == Fn::kCudaMemset ||
                   n.api == Fn::kCudaMemsetAsync) {
          remedy = RemedyKind::kHostMemset;
        } else if (hooks::is_explicit_sync_fn(n.api)) {
          remedy = RemedyKind::kRemoveSync;
        }
        // Other unnecessary syncs (e.g. a one-off free, a blocking
        // memcpy's drain) have no canned remedy; they stay in the
        // regular report.
        break;
      }
      case ProblemType::kMisplacedSync:
        remedy = RemedyKind::kMoveSyncLater;
        break;
      case ProblemType::kNone:
        break;
    }
    if (!remedy) continue;
    RemedyTally& t = tallies[*remedy];
    t.sites.insert(site[k]);
    ++t.occurrences;
    t.benefit += r.benefit.benefit_of(g.nodes[k]);
  }
  for (const auto& [kind, t] : tallies) {
    d.remedies.push_back(make_fix(r, kind, t));
  }
  return d;
}

}  // namespace

std::vector<Diagnosis> diagnose(const AnalysisResult& r,
                                std::span<const Finding> findings) {
  DIOG_SPAN("findings.diagnose");
  const std::vector<OpFlagFacts> flags = gather_op_flags(r, findings);
  std::vector<Diagnosis> out;
  out.reserve(findings.size());
  for (std::size_t k = 0; k < findings.size(); ++k) {
    out.push_back(diagnose_one(r, findings[k], flags[k]));
  }
  return out;
}

std::vector<FixRecommendation> recommend_fixes(const AnalysisResult& r) {
  std::vector<Finding> folds = collect_findings(r);
  std::erase_if(folds, [](const Finding& f) {
    return f.source != Finding::Source::kFold;
  });
  // Folds with the same remedy merge into one recommendation (cumf_als's
  // cudaFree and cuPrivMemFree folds are one hoist-alloc-free).
  std::map<RemedyKind, RemedyTally> merged;
  for (const Diagnosis& d : diagnose(r, folds)) {
    for (const FixRecommendation& rec : d.remedies) {
      RemedyTally& t = merged[rec.remedy];
      t.sites.insert(rec.sites.begin(), rec.sites.end());
      t.occurrences += rec.occurrences;
      t.benefit += rec.expected_benefit;
    }
  }
  std::vector<FixRecommendation> out;
  for (const auto& [kind, t] : merged) {
    FixRecommendation rec = make_fix(r, kind, t);
    if (rec.fraction_of_exec < kMinFixBenefitFraction) continue;
    out.push_back(std::move(rec));
  }
  std::stable_sort(out.begin(), out.end(),
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
