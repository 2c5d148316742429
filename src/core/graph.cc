#include "core/graph.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "eventstore/cursor.h"
#include "support/error.h"

namespace diog::ffm {

std::string_view to_string(NType t) {
  switch (t) {
    case NType::kCWork: return "CWork";
    case NType::kCLaunch: return "CLaunch";
    case NType::kCWait: return "CWait";
  }
  return "?";
}

ExecutionGraph::ExecutionGraph(std::vector<Node> nodes, Duration exec_time,
                               std::shared_ptr<const evstore::EventStore> store)
    : nodes_(std::move(nodes)),
      exec_time_(exec_time),
      store_(std::move(store)) {
  const std::size_t n = nodes_.size();
  next_sync_.resize(n);
  std::size_t next = n;
  for (std::size_t i = n; i-- > 0;) {
    next_sync_[i] = next;
    if (nodes_[i].is_sync_node()) next = i;
  }
  work_prefix_.resize(n + 1);
  Duration work{0};
  for (std::size_t i = 0; i < n; ++i) {
    work_prefix_[i] = work;
    const Node& node = nodes_[i];
    if (!node.is_sync_node()) work += node.duration;
    if (node.is_problematic()) problems_.push_back(i);
  }
  work_prefix_[n] = work;
}

std::optional<std::size_t> ExecutionGraph::next_sync_after(
    std::size_t i) const {
  if (i >= nodes_.size() || next_sync_[i] == nodes_.size()) {
    return std::nullopt;
  }
  return next_sync_[i];
}

Duration ExecutionGraph::work_between(std::size_t a, std::size_t b) const {
  DIOG_CHECK(a <= b && b <= nodes_.size(), "bad work_between range");
  if (b <= a + 1) return Duration{0};
  return work_prefix_[b] - work_prefix_[a + 1];
}

const trace::Frame* ExecutionGraph::leaf(const Node& n) const {
  if (store_ == nullptr || n.stack == evstore::kEmptyStack) return nullptr;
  return store_->stacks().leaf(n.stack);
}

Duration ExecutionGraph::total_duration() const {
  Duration sum{0};
  for (const Node& n : nodes_) sum += n.duration;
  return sum;
}

json::Value ExecutionGraph::to_json() const {
  json::Array arr;
  arr.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    json::Object o;
    o["type"] = std::string(to_string(n.type));
    o["stime_ns"] = static_cast<std::int64_t>(n.stime.count());
    o["duration_ns"] = duration_to_json(n.duration);
    o["problem"] = std::string(to_string(n.problem));
    o["first_use_time_ns"] = duration_to_json(n.first_use_time);
    o["op_index"] = n.op_index;
    if (n.api != hooks::Fn::kCount_) {
      o["api"] = std::string(hooks::fn_name(n.api));
    }
    arr.emplace_back(std::move(o));
  }
  json::Object root;
  root["exec_time_ns"] = duration_to_json(exec_time_);
  root["nodes"] = std::move(arr);
  return json::Value(std::move(root));
}

ExecutionGraph build_graph(const evstore::TraceRun& run,
                           Duration misplaced_threshold) {
  namespace ev = evstore;
  const ev::EventStore& store = *run.store;

  // Index the stage 3/4 annotations by op index, straight off the
  // kind-filtered cursors.
  std::unordered_map<std::uint64_t, bool> sync_required;
  ev::sync_classifications(store).for_each([&](const ev::Event& e) {
    sync_required[e.op_index] = e.has(ev::flag::kSyncRequired);
  });
  std::unordered_set<std::uint64_t> dup;
  ev::duplicate_transfers(store).for_each(
      [&](const ev::Event& e) { dup.insert(e.op_index); });
  std::unordered_map<std::uint64_t, Duration> first_use;
  ev::sync_uses(store).for_each([&](const ev::Event& e) {
    first_use[e.op_index] = Duration{e.aux_time};
  });

  const Duration exec_time = run.meta.s2_exec;
  std::vector<Node> nodes;
  nodes.reserve(store.count_of(ev::EventKind::kOp) * 2 + 2);
  TimePoint cursor{0};

  ev::Cursor op_cursor = ev::ops(store);
  ev::Event op;
  while (op_cursor.next(op)) {
    const TimePoint t_enter{op.t_start};
    const TimePoint t_exit{op.t_end};
    const bool performed_transfer = op.has(ev::flag::kPerformedTransfer);
    // Gap since the previous traced call: pure CPU work (subsumes
    // untraced calls).
    if (t_enter > cursor) {
      Node w;
      w.type = NType::kCWork;
      w.stime = cursor;
      w.duration = t_enter - cursor;
      nodes.push_back(w);
    }

    const Duration call = t_exit - t_enter;
    const Duration sync_wait{op.aux_time};
    const Duration gpu_op{op.gpu_time};
    Duration wait = sync_wait <= call ? sync_wait : call;
    // Paper §3.5.1: "The CLaunch event performs setup and initiates the
    // transfer while the GWait event waits for the transfer to
    // complete." For a blocking transfer, the tail of the measured wait
    // is the transfer itself — it belongs to the CLaunch side (it is
    // what RemoveMemoryTransfer recovers); only the drain of *prior*
    // stream work is CWait.
    if (performed_transfer && gpu_op > Duration{0}) {
      wait -= std::min(wait, gpu_op);
    }
    const Duration launch_part = call - wait;

    Node provenance;
    provenance.op_index = static_cast<std::int64_t>(op.op_index);
    provenance.api = op.fn();
    provenance.stack = op.stack;
    provenance.bytes = op.bytes;

    // The non-blocked portion: setup + submission (CLaunch).
    if (launch_part > Duration{0} || performed_transfer) {
      Node l = provenance;
      l.type = NType::kCLaunch;
      l.stime = t_enter;
      l.duration = launch_part;
      if (dup.contains(op.op_index)) {
        l.problem = ProblemType::kUnnecessaryTransfer;
      }
      nodes.push_back(l);
    }

    // The blocked portion (CWait) for synchronizing calls.
    if (op.has(ev::flag::kPerformedSync)) {
      Node s = provenance;
      s.type = NType::kCWait;
      s.stime = t_enter + launch_part;
      s.duration = wait;
      const auto cls = sync_required.find(op.op_index);
      if (cls != sync_required.end() && !cls->second) {
        s.problem = ProblemType::kUnnecessarySync;
      } else {
        const auto fu = first_use.find(op.op_index);
        if (fu != first_use.end()) {
          s.first_use_time = fu->second;
          if (fu->second > misplaced_threshold) {
            s.problem = ProblemType::kMisplacedSync;
          }
        }
      }
      nodes.push_back(s);
    }

    cursor = t_exit;
  }

  // Trailing CPU work after the last traced call.
  if (exec_time > cursor) {
    Node w;
    w.type = NType::kCWork;
    w.stime = cursor;
    w.duration = exec_time - cursor;
    nodes.push_back(w);
  }

  // Terminal join with the device at program exit.
  Node exit_node;
  exit_node.type = NType::kCWait;
  exit_node.stime = exec_time;
  exit_node.duration = Duration{0};
  nodes.push_back(exit_node);

  return ExecutionGraph(std::move(nodes), exec_time, run.store);
}

}  // namespace diog::ffm
