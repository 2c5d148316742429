#include "core/graph.h"

#include <algorithm>
#include <cstring>
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

namespace {

support::FreshBuffer node_buffer(std::size_t capacity) {
  return support::FreshBuffer(capacity * sizeof(Node));
}

support::FreshBuffer copy_of(const std::vector<Node>& nodes) {
  support::FreshBuffer buf = node_buffer(nodes.size());
  if (!nodes.empty()) {
    std::memcpy(buf.data(), nodes.data(), nodes.size() * sizeof(Node));
  }
  return buf;
}

}  // namespace

ExecutionGraph::ExecutionGraph(std::vector<Node> nodes, Duration exec_time,
                               std::shared_ptr<const evstore::EventStore> store)
    : ExecutionGraph(copy_of(nodes), nodes.size(), exec_time,
                     std::move(store)) {}

ExecutionGraph::ExecutionGraph(support::FreshBuffer nodes, std::size_t size,
                               Duration exec_time,
                               std::shared_ptr<const evstore::EventStore> store)
    : nodes_(std::move(nodes)),
      size_(size),
      exec_time_(exec_time),
      store_(std::move(store)) {
  Duration work{0};
  const std::span<const Node> all = this->nodes();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Node& node = all[i];
    if (node.is_sync_node()) {
      syncs_.push_back(i);
      sync_work_.push_back(work);
    } else {
      work += node.duration;
    }
    if (node.is_problematic()) problems_.push_back(i);
  }
  total_work_ = work;
}

std::optional<std::size_t> ExecutionGraph::next_sync_after(
    std::size_t i) const {
  const auto it = std::upper_bound(syncs_.begin(), syncs_.end(), i);
  if (it == syncs_.end()) return std::nullopt;
  return *it;
}

Duration ExecutionGraph::work_before(std::size_t i) const {
  if (i == size_) return total_work_;
  // The last CWait at or before i; the nodes after it up to i are all
  // non-sync, so its stored prefix plus their durations is exact.
  const auto it = std::upper_bound(syncs_.begin(), syncs_.end(), i);
  std::size_t from = 0;
  Duration work{0};
  if (it != syncs_.begin()) {
    const auto k = static_cast<std::size_t>(it - syncs_.begin()) - 1;
    from = syncs_[k] + 1;
    work = sync_work_[k];
    if (syncs_[k] == i) return work;
  }
  const std::span<const Node> all = nodes();
  for (std::size_t j = from; j < i; ++j) work += all[j].duration;
  return work;
}

Duration ExecutionGraph::work_between(std::size_t a, std::size_t b) const {
  DIOG_CHECK(a <= b && b <= size_, "bad work_between range");
  if (b <= a + 1) return Duration{0};
  return work_before(b) - work_before(a + 1);
}

const trace::Frame* ExecutionGraph::leaf(const Node& n) const {
  if (store_ == nullptr || n.stack == evstore::kEmptyStack) return nullptr;
  return store_->stacks().leaf(n.stack);
}

Duration ExecutionGraph::total_duration() const {
  Duration sum{0};
  for (const Node& n : nodes()) sum += n.duration;
  return sum;
}

std::uint64_t ExecutionGraph::memory_bytes() const {
  return size_ * sizeof(Node) +
         problems_.capacity() * sizeof(std::size_t) +
         syncs_.capacity() * sizeof(std::size_t) +
         sync_work_.capacity() * sizeof(Duration);
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
  // Each op adds at most three nodes (work gap, launch, wait), and the
  // chain ends with at most two more; pages past the last node written
  // are never touched.
  const std::size_t capacity = store.count_of(ev::EventKind::kOp) * 3 + 2;
  support::FreshBuffer buffer = node_buffer(capacity);
  Node* const out = static_cast<Node*>(buffer.data());
  std::size_t size = 0;
  const auto push = [&](const Node& n) {
    DIOG_CHECK(size < capacity, "graph node buffer overflow");
    std::construct_at(out + size++, n);
  };
  TimePoint cursor{0};

  // Read only the eight columns the graph needs, not whole events.
  const auto& col_flags = store.col_flags();
  const auto& col_t_start = store.col_t_start();
  const auto& col_t_end = store.col_t_end();
  const auto& col_aux_time = store.col_aux_time();
  const auto& col_gpu_time = store.col_gpu_time();
  const auto& col_op_index = store.col_op_index();
  const auto& col_api = store.col_api();
  const auto& col_stack = store.col_stack();
  ev::Cursor op_cursor = ev::ops(store);
  std::uint64_t row = 0;
  while (op_cursor.next_row(row)) {
    const std::uint32_t flags = col_flags.get(row);
    const TimePoint t_enter{col_t_start.get(row)};
    const TimePoint t_exit{col_t_end.get(row)};
    const bool performed_transfer =
        (flags & ev::flag::kPerformedTransfer) != 0;
    // Gap since the previous traced call: pure CPU work (subsumes
    // untraced calls).
    if (t_enter > cursor) {
      Node w;
      w.type = NType::kCWork;
      w.duration = t_enter - cursor;
      push(w);
    }

    const Duration call = t_exit - t_enter;
    const Duration sync_wait{col_aux_time.get(row)};
    const Duration gpu_op{col_gpu_time.get(row)};
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

    const std::uint64_t op_index = col_op_index.get(row);
    Node provenance;
    provenance.op_index = static_cast<std::int64_t>(op_index);
    provenance.api = static_cast<hooks::Fn>(col_api.get(row));
    provenance.stack = col_stack.get(row);

    // The non-blocked portion: setup + submission (CLaunch).
    if (launch_part > Duration{0} || performed_transfer) {
      Node l = provenance;
      l.type = NType::kCLaunch;
      l.duration = launch_part;
      if (dup.contains(op_index)) {
        l.problem = ProblemType::kUnnecessaryTransfer;
      }
      push(l);
    }

    // The blocked portion (CWait) for synchronizing calls.
    if ((flags & ev::flag::kPerformedSync) != 0) {
      Node s = provenance;
      s.type = NType::kCWait;
      s.duration = wait;
      const auto cls = sync_required.find(op_index);
      if (cls != sync_required.end() && !cls->second) {
        s.problem = ProblemType::kUnnecessarySync;
      } else {
        const auto fu = first_use.find(op_index);
        if (fu != first_use.end()) {
          s.first_use_time = fu->second;
          if (fu->second > misplaced_threshold) {
            s.problem = ProblemType::kMisplacedSync;
          }
        }
      }
      push(s);
    }

    cursor = t_exit;
  }

  // Trailing CPU work after the last traced call.
  if (exec_time > cursor) {
    Node w;
    w.type = NType::kCWork;
    w.duration = exec_time - cursor;
    push(w);
  }

  // Terminal join with the device at program exit.
  Node exit_node;
  exit_node.type = NType::kCWait;
  exit_node.duration = Duration{0};
  push(exit_node);

  return ExecutionGraph(std::move(buffer), size, exec_time, run.store);
}

}  // namespace diog::ffm
