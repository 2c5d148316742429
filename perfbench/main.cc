// perfbench: runs one benchmark workload and prints what it measured as
// one JSON document (the last line of stdout). perfbench/run.py builds
// this binary, calls it, and turns the document into the result line.
//
//   perfbench --workload trace_1m|apps|explore|hub --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--inject wrong_body|refuse_push]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/obs.h"
#include "parallel/thread_pool.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--inject wrong_body|refuse_push]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = v == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = v;
    } else if (flag == "--inject") {
      o.inject = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || o.workload.empty() || o.work_dir.empty() ||
      o.seconds <= 0) {
    return usage();
  }

  namespace json = diog::json;
  perfbench::Tally tally;
  perfbench::Ledger ledger;
  json::Object context;
  context["seed"] = o.seed;
  context["seconds"] = o.seconds;
  context["hardware_threads"] = diog::par::hardware_threads();
  context["configured_threads"] = diog::par::configured_threads();
  context["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
  context["diog_obs"] = DIOG_OBS_ENABLED != 0;
  try {
    if (!perfbench::run_workload(o, tally, ledger, context)) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    // A workload that cannot finish has no result to report.
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  ledger.set("peak_rss_mb", perfbench::peak_rss_mb());

  json::Object doc;
  doc["workload"] = o.workload;
  doc["trace"] = o.trace;
  doc["context"] = std::move(context);
  doc["tally"] = tally.to_json();
  doc["ledger"] = ledger.to_json();
  std::printf("%s\n", json::Value(std::move(doc)).dump().c_str());
  return 0;
}
