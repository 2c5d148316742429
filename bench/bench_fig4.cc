// Figure 4 — "Example of the different outcomes from removing a
// problematic synchronization."
//
// Two hand-built execution graphs remove a CWait of IDENTICAL duration.
// In the first, ample CPU work follows before the next synchronization:
// the removal pays in full. In the second, the next wait grows to absorb
// almost everything. A consumption-based tool prices both waits the
// same; the expected-benefit algorithm (Figure 5) tells them apart.
//
// Also includes the naive-model comparison (the ablation DESIGN.md calls
// out): "benefit = wait duration" vs the paper's min(wait, est-max-GPU-
// idle) upper-bound estimate.
#include <cstdio>

#include "core/benefit.h"
#include "support/strings.h"

using namespace diog;
using namespace diog::ffm;

namespace {

Node work(Duration d) {
  Node n;
  n.type = NType::kCWork;
  n.duration = d;
  return n;
}
Node launch(Duration d) {
  Node n;
  n.type = NType::kCLaunch;
  n.duration = d;
  return n;
}
Node wait_node(Duration d, ProblemType p = ProblemType::kNone) {
  Node n;
  n.type = NType::kCWait;
  n.duration = d;
  n.problem = p;
  return n;
}

ExecutionGraph make(std::vector<Node> nodes) {
  Duration total{0};
  for (const Node& n : nodes) total += n.duration;
  return ExecutionGraph(std::move(nodes), total);
}

void show(const char* title, const ExecutionGraph& g) {
  std::printf("\n%s\n", title);
  std::printf("  %-4s %-9s %10s %12s\n", "idx", "NType", "duration",
              "problem");
  for (std::size_t i = 0; i < g.size(); ++i) {
    const Node& n = g.nodes()[i];
    std::printf("  %-4zu %-9s %10s %12s\n", i,
                std::string(to_string(n.type)).c_str(),
                format_seconds(n.duration).c_str(),
                n.is_problematic() ? std::string(to_string(n.problem)).c_str()
                                   : "-");
  }
  const BenefitReport r = expected_benefit(g);
  Duration naive{0};
  for (const std::size_t i : g.problematic_indices()) {
    naive += g.nodes()[i].duration;  // "benefit = what it consumed"
  }
  std::printf("  program span: %s\n", format_seconds(g.exec_time()).c_str());
  std::printf("  naive estimate (consumption):   %s\n",
              format_seconds(naive).c_str());
  std::printf("  Figure-5 expected benefit:      %s\n",
              format_seconds(r.total).c_str());
}

}  // namespace

int main() {
  std::printf(
      "================================================================\n"
      "Figure 4 — identical waits, different outcomes\n"
      "Reproduces: SC'19 Figure 4 (large-benefit vs limited-benefit)\n"
      "================================================================\n");

  // Both graphs remove CWait0 with duration 18 units (1 unit = 1 ms).
  const Duration W = ms(18);

  // Case A: "Synchronization Removed with Large Benefit" — 21 units of
  // CPU work separate the removed wait from the next synchronization.
  const ExecutionGraph large = make({
      work(ms(5)),                               // CWork0
      launch(ms(1)),                             // CLaunch0
      wait_node(W, ProblemType::kUnnecessarySync),  // CWait0 (removed)
      work(ms(10)),                              // CWork1
      launch(ms(1)),                             // CLaunch1
      work(ms(10)),                              // CWork2
      wait_node(ms(4)),                          // CWait1 (necessary)
      work(ms(4)),                               // CWork3
      wait_node(Duration{0}),                    // exit join
  });
  show("Case A — removal with LARGE benefit:", large);

  // Case B: "Synchronization Removed with Small Benefit" — only 3 units
  // of CPU work before the next wait; it grows to absorb the other 15.
  const ExecutionGraph small = make({
      work(ms(5)),
      launch(ms(1)),
      wait_node(W, ProblemType::kUnnecessarySync),
      work(ms(2)),
      launch(ms(1)),
      wait_node(ms(10)),  // CWait1: grows to 25 after the removal
      work(ms(7)),
      wait_node(Duration{0}),
  });
  show("Case B — removal with SMALL benefit:", small);

  {
    // Show the growth of the next wait explicitly (Figure 4's right-hand
    // panels).
    Replay replay(small);
    const Duration benefit = replay.remove_synchronization(2);
    std::printf("\nCase B after RemoveSyncronization(CWait0):\n");
    std::printf("  benefit realized:          %s of %s removed\n",
                format_seconds(benefit).c_str(), format_seconds(W).c_str());
    std::printf("  next wait grew: %s -> %s\n",
                format_seconds(ms(10)).c_str(),
                format_seconds(replay.duration(5)).c_str());
  }

  std::printf(
      "\nConclusion: the same 18 ms wait is worth 18 ms in case A and\n"
      "3 ms in case B. Consumption (the naive estimate) cannot tell the\n"
      "two apart; the CPU-graph upper-bound model can.\n");
  return 0;
}
