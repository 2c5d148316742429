// The per-layer half of the benchmark: calls each layer's public
// functions from outside the program, on one workload's own runs, and
// times every call. Nothing inside src/ is instrumented; a layer's cost
// is what its entry points take when called the way the program calls
// them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/diogenes.h"
#include "eventstore/run.h"
#include "ledger.h"

namespace perfbench {

struct NamedRun {
  std::string name;
  diog::evstore::TraceRun run;
};

// Records every per-layer metric (eventstore.*, stage5.*, parallel.t1.*,
// archive.*, hub.*, explore.*) into `out`, each summed over `runs`.
// Scratch files go under `dir`, which must be empty or absent. Every
// output the probe reads back is checked into `tally`.
void probe_layers(const std::vector<NamedRun>& runs, const std::string& dir,
                  Tally& tally, Ledger& out);

// A file's bytes ("" when it cannot be read).
std::string slurp(const std::string& path);

// Hash of an analysis's export_json: what "same analysis" means here.
std::string export_hash(const diog::ffm::AnalysisResult& r);

// One closed-loop HTTP/1.1 GET over loopback, timed from connect to the
// last byte of the response.
struct HttpReply {
  int status = 0;  // 0 when the exchange failed
  std::string body;
  double ms = 0;
};
HttpReply http_get(std::uint16_t port, const std::string& target);

// Parallel-pool busy and wall nanoseconds so far (obs counters); the
// difference of two readings gives utilization over an interval.
struct PoolClock {
  double busy_ns = 0;
  double wall_ns = 0;
};
PoolClock pool_clock();
// Percent of the configured threads' capacity used between two readings.
double pool_utilization_pct(const PoolClock& from, const PoolClock& to);

}  // namespace perfbench
