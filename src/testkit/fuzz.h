// Seeded, structure-aware mutational fuzzing for the .dgtrace pipeline.
//
// Four targets, all driven by one deterministic loop:
//   run-io    mutated run files through open_run and a RunFollower poll
//             (the two loading paths must agree — a differential oracle);
//   follower  mutated run files revealed to a RunFollower in random
//             increments, including mid-follow truncation/replacement;
//   ring      randomized mixed-kind append storms against ring
//             retention, checking per-kind drop-counter exactness;
//   hub       mutated run files fed to a hub Session in random
//             increments, as the daemon's read loop would — hostile
//             frames must yield a classified error and the spool must
//             always remain an openable run file or prefix.
//
// The contract under fuzzing is the reader's honesty contract: every
// input either loads (clean or readable-prefix) or raises diog::Error —
// never UB, never a silent partial parse, never a reader divergence.
// Any violation is a *finding*: the input is saved to the corpus
// directory, automatically minimized, and the run reports failure.
// Hard crashes (signals) kill the process, but the current input is
// always pinned to disk first, so the artifact survives as
// <artifacts>/fuzz-last-input.dgtrace for offline reproduction.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/rng.h"
#include "testkit/dgtrace_builder.h"

namespace diog::testkit {

struct FuzzOptions {
  std::string target = "run-io";  // run-io | follower | ring | hub
  std::uint64_t seed = 1;
  double budget_s = 5.0;          // wall-clock budget
  std::uint64_t max_execs = 200'000;  // memory guard: interned garbage
                                      // frames are never freed, so the
                                      // loop is bounded by execs too
  std::string corpus_dir;         // seed inputs (*.dgtrace) + artifacts
  std::size_t max_input_bytes = 64 * 1024;
  bool verbose = false;
};

struct FuzzStats {
  std::uint64_t execs = 0;
  std::uint64_t clean_ok = 0;       // loaded, valid footer
  std::uint64_t clean_prefix = 0;   // loaded as a readable prefix
  std::uint64_t clean_errors = 0;   // rejected with diog::Error
  std::uint64_t findings = 0;       // contract violations (saved + minimized)
  std::uint64_t corpus_inputs = 0;  // seed inputs (corpus dir or builtin)
  std::size_t error_classes = 0;    // distinct diog::Error messages seen
  double elapsed_s = 0.0;

  [[nodiscard]] bool ok() const { return findings == 0; }
  [[nodiscard]] std::string render() const;
};

// Runs the fuzz loop. Deterministic for a fixed (target, seed, corpus,
// max_execs) once the budget is large enough to reach max_execs.
FuzzStats run_fuzzer(const FuzzOptions& opts);

// One mutation step (exposed for tests): deterministic for a given RNG
// state, mixes structure-aware chunk/footer/dictionary mutations with
// byte-level havoc. Never grows the input past max_bytes.
Bytes mutate(const Bytes& input, Rng& rng, std::size_t max_bytes);

// Greedy input minimization: returns the smallest input found that
// still satisfies `predicate` (which must hold for `input` itself).
Bytes minimize_input(Bytes input,
                     const std::function<bool(const Bytes&)>& predicate);

// Re-runs a saved artifact in a forked child per candidate and shrinks
// it while the child keeps dying abnormally. Writes the result next to
// the artifact as <artifact>.min. Returns 0 when the artifact no longer
// reproduces (nothing to minimize), 1 on successful minimization.
int minimize_artifact(const std::string& artifact_path,
                      const FuzzOptions& opts);

}  // namespace diog::testkit
