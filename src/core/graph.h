// The application execution graph of §3.5.
//
// The paper models execution as G = (N, V) with CPU and GPU node sets;
// its key insight is that the expected-benefit estimate needs only the
// CPU side ("an effective estimate ... can be made with only the CPU
// graph"). The CPU side is a chain of nodes in time order, each carrying
// the paper's attributes (NType, Problem, FirstUseTime) plus the label of
// its out-edge to the next CPU node (Duration) — in a chain,
// OutCPUEdge(N).duration is simply N.duration. STime is not stored: the
// chain is gap-free from t = 0, so a node's STime is the sum of the
// durations before it, and Figure 5 never reads it.
//
// Construction from a stage-2 trace:
//   * each traced call contributes a CLaunch node for its non-blocked
//     portion (setup + asynchronous submission) and, if it blocked, a
//     CWait node for the blocked portion;
//   * the gap between consecutive traced calls becomes a CWork node
//     (pure CPU computation, which subsumes untraced cheap calls such as
//     cudaLaunchKernel — Diogenes deliberately collects nothing on
//     calls that neither synchronize nor transfer);
//   * a zero-duration terminal CWait marks program exit (the implicit
//     join with the device).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/model.h"
#include "eventstore/run.h"
#include "support/fresh_buffer.h"

namespace diog::ffm {

enum class NType : std::uint8_t { kCWork, kCLaunch, kCWait };
std::string_view to_string(NType t);

struct Node {
  NType type = NType::kCWork;
  ProblemType problem = ProblemType::kNone;
  // Provenance (absent for synthesized CWork / terminal nodes). `stack`
  // is the run store's interned id; ExecutionGraph::leaf resolves it.
  hooks::Fn api = hooks::Fn::kCount_;
  evstore::StackId stack = evstore::kEmptyStack;
  std::int64_t op_index = -1;

  Duration duration{0};  // the out-CPU-edge label
  Duration first_use_time{0};

  [[nodiscard]] bool is_sync_node() const { return type == NType::kCWait; }
  [[nodiscard]] bool is_problematic() const {
    return problem != ProblemType::kNone;
  }
};
static_assert(std::is_trivially_copyable_v<Node>);
// The 1M-event run builds ~2M nodes: 63 MB of fresh pages, written once
// by build_graph and then only read. Touching them one 4 KiB fault at a
// time was most of build_graph's cost, so the node buffer is a mapping
// of the graph's own, advised onto transparent huge pages
// (support/fresh_buffer.h) and never value-initialised: 2 MiB per fault
// where the kernel grants huge pages, plain fresh pages where it does
// not. Graphs under 32 MiB use operator new, whose heap keeps a
// repeated build's pages warm.
static_assert(sizeof(Node) == 32);

// Immutable once built. One forward pass of the constructor precomputes
// what Figure 5 asks of the chain: the problem list and a per-sync index
// (each CWait's position and the CWork + CLaunch work before it). The
// index costs 16 bytes per CWait — never more than the two 8-byte
// per-node arrays it replaces — and a replay (benefit.h) never needs a
// copy of the nodes.
class ExecutionGraph {
 public:
  ExecutionGraph() = default;
  // `store` resolves the nodes' stack ids; it may be null when no node
  // carries one.
  ExecutionGraph(std::vector<Node> nodes, Duration exec_time,
                 std::shared_ptr<const evstore::EventStore> store = nullptr);

  [[nodiscard]] std::span<const Node> nodes() const {
    return {static_cast<const Node*>(nodes_.data()), size_};
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] Duration exec_time() const { return exec_time_; }

  // GetNextSyncNode(Node): index of the next CWait node strictly after
  // `i`, or nullopt (callers treat program exit as an implicit join).
  // O(log syncs).
  [[nodiscard]] std::optional<std::size_t> next_sync_after(
      std::size_t i) const;

  // SumDuration(CPUNodesBetween(a, b, CLaunch|CWork)): total duration of
  // the non-waiting nodes strictly between indices a and b — the paper's
  // upper bound on how much GPU idle time can contract. Exact for any
  // a <= b <= size(); each end costs O(log syncs) plus the nodes between
  // it and the last CWait at or before it, so a (sync, next sync) range
  // — the only one Figure 5 asks for — costs O(log syncs).
  [[nodiscard]] Duration work_between(std::size_t a, std::size_t b) const;

  // Indices of the problematic nodes, ascending.
  [[nodiscard]] const std::vector<std::size_t>& problematic_indices() const {
    return problems_;
  }

  // Sum of all node durations (== exec time when built from a trace).
  [[nodiscard]] Duration total_duration() const;

  // The innermost frame of `n`'s stack, or nullptr when it has none.
  [[nodiscard]] const trace::Frame* leaf(const Node& n) const;

  // Bytes the graph holds: nodes, problem list and sync index.
  [[nodiscard]] std::uint64_t memory_bytes() const;

 private:
  friend ExecutionGraph build_graph(const evstore::TraceRun& run,
                                    Duration misplaced_threshold);
  // Takes `size` nodes written into `nodes`.
  ExecutionGraph(support::FreshBuffer nodes, std::size_t size,
                 Duration exec_time,
                 std::shared_ptr<const evstore::EventStore> store);

  // CWork + CLaunch work before index i (i <= size()).
  [[nodiscard]] Duration work_before(std::size_t i) const;

  support::FreshBuffer nodes_;
  std::size_t size_ = 0;
  std::vector<std::size_t> problems_;
  std::vector<std::size_t> syncs_;   // CWait indices, ascending
  std::vector<Duration> sync_work_;  // work before syncs_[k]
  Duration total_work_{0};           // work of the whole chain
  Duration exec_time_{0};
  std::shared_ptr<const evstore::EventStore> store_;
};

// Assemble the graph from a run. kOp events provide timing and node
// structure; kSyncClassification events classify problems; kSyncUse
// events supply FirstUseTime. `misplaced_threshold` separates
// required-but-misplaced synchronizations from healthy ones. This is the
// primary construction path: it consumes the event store through typed
// cursors, so it works identically on a live run and on one reopened
// from disk.
ExecutionGraph build_graph(const evstore::TraceRun& run,
                           Duration misplaced_threshold);

}  // namespace diog::ffm
