// Metamorphic oracle for the stage-5 analysis (ISSUE 4, leg 3).
//
// The expected-benefit algorithm has no ground truth to diff against,
// but it has invariants that must hold on ANY run, which makes them
// checkable on fuzzed and fault-injected inputs too:
//
//   bounds        every per-site benefit is non-negative and no larger
//                 than the program's wall time; the total is the sum of
//                 the per-site benefits and of the sync/transfer split;
//   persistence   analyzing the in-memory run, the run saved and
//                 reopened, and the run re-saved in different segment
//                 shards (order-preserving resharding with periodic
//                 checkpoints) all export byte-identical JSON;
//   monotonicity  expected benefit over a prefix subset of the problem
//                 nodes never decreases as the prefix grows, and never
//                 exceeds the full-set total; a sequence group's
//                 subsequence estimate grows monotonically to exactly
//                 the sequence's own benefit;
//   thread count  re-running the analysis and the one-shot save at each
//                 thread count in `thread_counts` produces byte-
//                 identical export JSON and byte-identical .dgtrace
//                 files (footer clock pinned), and each reopened file
//                 analyzes to the same bytes — the parallel subsystem's
//                 determinism contract.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/diogenes.h"
#include "core/tool_config.h"
#include "eventstore/run.h"

namespace diog::testkit {

struct OracleOptions {
  ffm::ToolConfig cfg;
  // Events per checkpoint in the resharded save. A prime, so shard
  // boundaries drift against every internal period of the run.
  std::size_t reshard_period = 257;
  // Where the oracle writes its scratch run files (required).
  std::string work_dir;
  // Prefix sizes probed per monotonicity ladder.
  std::size_t prefix_steps = 4;
  // Thread counts the determinism relation probes (empty disables it).
  // 8 deliberately oversubscribes small machines: scheduling jitter is
  // exactly what the byte-identity contract must survive.
  std::vector<std::size_t> thread_counts = {1, 2, 8};
  // Also serve the saved run through the explorer's request layer at
  // each thread count and require byte-identical endpoint JSON
  // (timeline / flame / findings / syncsites).
  bool check_endpoints = true;
  // Extend the relation to the fleet surface: at each thread count,
  // build a fresh archive (pinned ingest clock), ingest the pinned save
  // plus a resharded variant, and require /api/history,
  // /api/regressions, and /metrics (registry reset before the scrape)
  // to answer byte-identical bodies.
  bool check_archive = true;
};

struct OracleReport {
  std::size_t checks = 0;
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  [[nodiscard]] std::string render() const;
};

// Runs every invariant against one run. Never throws on invariant
// violations (they are collected); throws diog::Error only on harness
// I/O failure.
OracleReport check_analysis_invariants(const evstore::TraceRun& run,
                                       const OracleOptions& opts);

// Order-preserving rebuild of `src` through a LiveRunWriter that
// checkpoints every `period` events, producing a multi-chunk file with
// identical event content. The footer clock is pinned to 0, so the
// file bytes are a pure function of `src` and `period`. Exposed for
// tests.
void reshard_run_to_file(const evstore::TraceRun& src,
                         const std::string& path, std::size_t period);

}  // namespace diog::testkit
