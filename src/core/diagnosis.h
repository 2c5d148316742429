// One diagnosis per finding: the bug pattern that explains it and, for a
// fold, the remedy that corrects it.
//
// The benefit report says *how much* time a fix recovers; it does not
// say *why* the number is what it is, and the why is what decides
// whether a developer acts. Each finding is pattern-matched against a
// small taxonomy of known CUDA synchronization bugs (the shapes
// catalogued by "Characterizing and Detecting CUDA Program Bugs" plus
// the paper's own Figure-4 limited-benefit case), and the matching rule
// assembles a narrative from the finding's member facts: which grouping
// dominated, how far the first use sits from the sync end, what
// fraction of the members' wait time is recoverable and what bounds the
// rest.
//
// The remedy is the recognition half of automatic correction (paper §6,
// future work):
//
// "The problems identified by Diogenes in the applications we tested
// typically had a similar underlying cause with a common remedy ...
// they may be automatically correctable if the cause and remedy can be
// automatically identified."
//
// Each member of a fold maps to one of the remedy patterns the paper's
// four fixes instantiate:
//
//   kHoistAllocFree      the same cudaFree site fires once per loop
//                        iteration (many instances, per-iteration
//                        frees): allocate once outside the loop / pool
//                        the temporaries (cumf_als, cuIBM fixes).
//   kHostMemset          a conditional sync at cudaMemset on managed
//                        memory never protecting GPU data: replace with
//                        a plain C memset (AMG fix).
//   kRemoveSync          an explicit synchronize call classified
//                        unnecessary: delete it (Rodinia fix). Flagged
//                        low-priority when the benefit is negligible —
//                        the paper's point is that most of these are
//                        not worth the edit.
//   kCacheTransfer       duplicate transfers from one site: upload
//                        once, reuse the device copy (cumf_als fix),
//                        guarded by const/mprotect as §5.1 describes.
//   kMoveSyncLater       a required but misplaced synchronization:
//                        move it just before the first use.
//
// Each remedy carries the evidence (sites, instance counts, expected
// benefit) and the safety caveats the paper insists on. Folds partition
// the problem nodes by API, so the run's fix recommendations are the
// fold remedies merged by kind. The pattern follows member counts and
// the remedy each member's problem and API, so the two may disagree.
// Deterministic: byte-identical diagnoses at any thread count.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/findings.h"
#include "json/json.h"

namespace diog::ffm {

enum class RemedyKind : std::uint8_t {
  kHoistAllocFree,
  kHostMemset,
  kRemoveSync,
  kCacheTransfer,
  kMoveSyncLater,
};
std::string_view to_string(RemedyKind k);

struct FixRecommendation {
  RemedyKind remedy;
  // Where to apply it: "cudaFree in als.cpp at line 856" style site
  // descriptions, one per distinct source location involved.
  std::vector<std::string> sites;
  std::size_t occurrences = 0;  // dynamic instances covered
  Duration expected_benefit{0};
  double fraction_of_exec = 0.0;
  // What must hold for the fix to be safe (the paper's const/mprotect
  // guard discussion, the "conditionally unnecessary" caveat, ...).
  std::string safety_note;
  // Human-readable action, e.g. "replace cudaMemset on the ... buffer".
  std::string action;

  [[nodiscard]] json::Value to_json() const;
};

// Recommendations below this fraction of execution time are dropped
// (fixing them costs more programmer time than they return — the
// paper's "issues that offer low benefit").
inline constexpr double kMinFixBenefitFraction = 0.005;

struct Diagnosis {
  // Taxonomy id the finding matched, e.g. "redundant-device-sync".
  std::string pattern;
  // One-line causal summary for the overview listing.
  std::string headline;
  // The full narrative (2-4 sentences) for the report and the panel.
  std::string narrative;
  // The numbers the narrative is built from, for machine consumers.
  json::Object evidence;
  // Fold findings: one remedy per kind the members call for, in
  // RemedyKind order — usually exactly one, none when no canned remedy
  // fits. Sequences carry none (their nodes are already in the folds).
  std::vector<FixRecommendation> remedies;

  // The explanation: pattern, headline, narrative and evidence.
  [[nodiscard]] json::Value to_json() const;
};

// Diagnoses `findings` (of `r`), in order. Never fails: a finding
// matching no specific rule falls back to the generic benefit
// narrative. The run-store facts the patterns need are gathered for all
// findings in one scan.
std::vector<Diagnosis> diagnose(const AnalysisResult& r,
                                std::span<const Finding> findings);

// The run's fold remedies merged by kind, without those below
// kMinFixBenefitFraction, ranked by expected benefit.
std::vector<FixRecommendation> recommend_fixes(const AnalysisResult& r);

// Render as the terminal report section.
std::string render_recommendations(
    const AnalysisResult& r, const std::vector<FixRecommendation>& recs);

}  // namespace diog::ffm
