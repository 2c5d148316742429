#include "core/replay.h"

#include <fstream>

#include "core/run_convert.h"
#include "eventstore/run_io.h"
#include "support/error.h"

namespace diog::ffm {

StageBundle load_stage_files(const std::string& dir,
                             const std::string& workload_name) {
  StageBundle b;
  b.workload_name = workload_name;
  const std::string base = dir + "/" + workload_name + "_stage";
  b.s1 = Stage1Result::from_json(json::load_file(base + "1.json"));
  b.s2 = Stage2Result::from_json(json::load_file(base + "2.json"));
  b.s3 = Stage3Result::from_json(json::load_file(base + "3.json"));
  b.s4 = Stage4Result::from_json(json::load_file(base + "4.json"));
  return b;
}

AnalysisResult analyze_offline(const StageBundle& bundle,
                               const ToolConfig& cfg) {
  return run_analysis(build_run(bundle.workload_name, bundle.s1, bundle.s2,
                                bundle.s3, bundle.s4),
                      cfg);
}

bool has_run_file(const std::string& dir,
                  const std::string& workload_name) {
  return std::ifstream(evstore::run_file_path(dir, workload_name)).good();
}

AnalysisResult analyze_run_file(const std::string& path,
                                const ToolConfig& cfg) {
  return run_analysis(evstore::open_run(path), cfg);
}

AnalysisResult analyze_dir(const std::string& dir,
                           const std::string& workload_name,
                           const ToolConfig& cfg) {
  if (has_run_file(dir, workload_name)) {
    return analyze_run_file(evstore::run_file_path(dir, workload_name), cfg);
  }
  return analyze_offline(load_stage_files(dir, workload_name), cfg);
}

}  // namespace diog::ffm
