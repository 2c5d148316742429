// Table 1 — "Applications improved by correcting a subset of Diogenes
// discovered issues."
//
// For each of the four applications: run the full five-stage pipeline on
// the pathological variant, scope the estimate to the problems the
// paper's fix addressed, then measure the actual runtime reduction of
// the fixed variant. Paper reference values are printed alongside.
#include "bench_common.h"
#include "support/error.h"

namespace {

// The paper's Table 1, one row per app: the issue classes each fix
// addressed and the paper's own figures.
struct PaperRow {
  const char* app;
  const char* issues;
  const char* paper;
};
constexpr PaperRow kPaperRows[] = {
    {"cumf_als", "Sync and Mem Trans",
     "est 137s (10.0%) / actual 106s (8.3%) / acc 77%"},
    {"cuIBM", "Sync", "est 202s (10.8%) / actual 330s (17.6%) / acc 61%"},
    {"AMG", "Sync", "est 0.34s (6.8%) / actual 0.29s (5.8%) / acc 85%"},
    {"Rodinia", "Sync", "est 0.13s (2.2%) / actual 0.12s (2.1%) / acc 92%"},
};

const PaperRow& paper_row(const std::string& app) {
  for (const PaperRow& row : kPaperRows) {
    if (app == row.app) return row;
  }
  diog::fail("no Table 1 paper row for app " + app, __FILE__, __LINE__);
}

}  // namespace

int main() {
  using namespace diog;
  using namespace diog::bench;

  print_header("Table 1 — estimated vs actual benefit per application",
               "SC'19 Table 1");

  const auto app_list = apps::all_apps();
  std::vector<ffm::ScopedFixOutcome> rows;
  for (const apps::AppPair& app : app_list) {
    rows.push_back(
        ffm::evaluate_scoped_fix(app.pathological, app.fixed, app.fix_scope));
  }

  std::printf("\n%-10s %-20s %24s %24s %10s\n", "App", "Issues",
              "Diogenes Estimated", "Actual Reduction", "Accuracy");
  double acc_sum = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ffm::ScopedFixOutcome& r = rows[i];
    const PaperRow& paper = paper_row(app_list[i].name);
    const double acc = r.accuracy();
    const double act_pct = static_cast<double>(r.actual.count()) /
                           static_cast<double>(r.native.count());
    acc_sum += acc;
    std::printf("%-10s %-20s %12s (%5s) %12s (%5s) %9.0f%%\n",
                app_list[i].name.c_str(), paper.issues,
                format_seconds(r.estimated).c_str(),
                format_percent(r.estimated_fraction, 1).c_str(),
                format_seconds(r.actual).c_str(),
                format_percent(act_pct, 1).c_str(), acc * 100.0);
    std::printf("%-10s   paper: %s\n", "", paper.paper);
  }
  std::printf("\nCombined accuracy (mean of per-app min/max): %.0f%%"
              "  [paper: ~77%% combined]\n",
              acc_sum / static_cast<double>(rows.size()) * 100.0);
  std::printf("\nNote: absolute seconds are scaled (virtual clock, reduced\n"
              "iteration counts); percentages of execution time are the\n"
              "comparable quantities.\n");
  return 0;
}
