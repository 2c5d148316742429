// What-if analysis on a hand-built execution graph.
//
// The expected-benefit machinery (paper §3.5, Figure 5) is usable as a
// library without running any application: describe your program's
// CPU-side structure as CWork/CLaunch/CWait nodes, mark suspected
// problems, and ask what fixing each (or any subset) would buy. This is
// the modeling exercise of Figure 4 turned into a planning tool — use it
// to decide whether a refactor is worth doing before writing it.
#include <cstdio>
#include <vector>

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
Node launch(Duration d, ProblemType p = ProblemType::kNone) {
  Node n;
  n.type = NType::kCLaunch;
  n.duration = d;
  n.problem = p;
  return n;
}
Node wait_node(Duration d, ProblemType p = ProblemType::kNone,
               Duration first_use = Duration{0}) {
  Node n;
  n.type = NType::kCWait;
  n.duration = d;
  n.problem = p;
  n.first_use_time = first_use;
  return n;
}

ExecutionGraph finalize(std::vector<Node> nodes) {
  Duration total{0};
  for (const Node& n : nodes) total += n.duration;
  return ExecutionGraph(std::move(nodes), total);
}

}  // namespace

int main() {
  // A sketched pipeline iteration, ~100 ms of CPU timeline:
  //   preprocess | upload | launch | WAIT(sus) | postprocess |
  //   free temp (sus) | more CPU | sync before readback (sus, but the
  //   data is used 9 ms later -> misplaced, not unnecessary) | readback
  const ExecutionGraph g = finalize({
      work(ms(12)),                                       // 0 preprocess
      launch(ms(6), ProblemType::kUnnecessaryTransfer),   // 1 re-upload
      launch(ms(1)),                                      // 2 kernel launch
      wait_node(ms(20), ProblemType::kUnnecessarySync),   // 3 paranoia sync
      work(ms(15)),                                       // 4 postprocess
      wait_node(ms(8), ProblemType::kUnnecessarySync),    // 5 temp free
      work(ms(10)),                                       // 6 assemble
      wait_node(ms(14), ProblemType::kMisplacedSync,
                /*first_use=*/ms(9)),                     // 7 early sync
      work(ms(9)),                                        // 8 unrelated CPU
      wait_node(ms(2)),                                   // 9 readback sync
      work(ms(3)),                                        // 10 consume
      wait_node(Duration{0}),                             // 11 exit join
  });

  std::printf("iteration span: %s\n\n",
              format_seconds(g.exec_time()).c_str());

  // Price every suspected problem individually (what a single surgical
  // fix would buy)...
  std::printf("%-28s %12s %12s\n", "what-if: fix only...", "benefit",
              "% of span");
  const char* labels[] = {"the duplicate upload (1)", "the paranoia sync (3)",
                          "the temp-free stall (5)", "the early sync (7)"};
  const std::size_t problems[] = {1, 3, 5, 7};
  for (std::size_t i = 0; i < 4; ++i) {
    const std::vector<std::size_t> solo{problems[i]};
    const Duration b = expected_benefit_subset(g, solo).total;
    std::printf("%-28s %12s %11.1f%%\n", labels[i],
                format_seconds(b).c_str(),
                100.0 * static_cast<double>(b.count()) /
                    static_cast<double>(g.exec_time().count()));
  }

  // ...then all together (the interactions matter: freed time from one
  // fix can be re-absorbed — or unlocked — by another).
  const BenefitReport all = expected_benefit(g);
  std::printf("%-28s %12s %11.1f%%\n", "ALL of the above",
              format_seconds(all.total).c_str(),
              100.0 * static_cast<double>(all.total.count()) /
                  static_cast<double>(g.exec_time().count()));

  std::printf(
      "\nNotes:\n"
      " * node 3 is worth less than its 20 ms: only 15 ms of CPU work\n"
      "   separates it from the next wait, which absorbs the rest\n"
      "   (Figure 4's limited-benefit case);\n"
      " * node 7 is misplaced, not removable: moving it later recovers\n"
      "   its 9 ms first-use gap, no more;\n"
      " * fixing everything is NOT the sum of the parts.\n");
  return 0;
}
