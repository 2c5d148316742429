// The four user paths the benchmark drives, each closed-loop: every
// caller waits for its reply before issuing the next operation.
//
//   trace_1m  save_run -> open_run -> run_analysis on a seeded 1M-event
//             synthetic run (`trace analyze` at scale)
//   apps      the four paper apps through Diogenes::analyze, stages 1-5
//   explore   2 HTTP clients scrubbing a served root (1M run, the four
//             apps' runs, a small archive) on the real HttpServer
//   hub       2 pushers streaming seeded 50K-event runs into a HubServer,
//             about one push in five a resend of archived bytes
#pragma once

#include <cstdint>
#include <string>

#include "ledger.h"

namespace perfbench {

// Input sizes: part of each workload's definition, not knobs.
inline constexpr std::uint64_t kTraceEvents = 1000000;  // trace_1m, explore
inline constexpr std::uint64_t kPushEvents = 50000;     // each hub push

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch; created and removed by the caller
  // Self-test hook: "wrong_body" corrupts one explore response before it
  // is checked, "refuse_push" sends the hub one torn run. Either must
  // show up as a failed operation.
  std::string inject;
};

// Runs one workload. Untraced, it records the end-to-end series and
// values; traced, it then repeats the loop with the calls into each
// layer timed, accounts the loop's wall time by layer, and probes every
// layer on the workload's own runs. Returns false for an unknown name.
bool run_workload(const Options& opts, Tally& tally, Ledger& ledger,
                  diog::json::Object& context);

}  // namespace perfbench
