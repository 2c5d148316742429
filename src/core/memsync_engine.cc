#include "core/memsync_engine.h"

#include <dlfcn.h>

#include <algorithm>

#include "support/error.h"

namespace diog::ffm {

namespace {

// A code address as an offset into the loaded object that contains it,
// 0 when none does. Load bases move with ASLR; the offset is the same
// in every process (the "instruction within the binary" of §3).
std::uint64_t module_offset(std::uintptr_t pc) {
  Dl_info info{};
  const bool found = dladdr(reinterpret_cast<const void*>(pc), &info) != 0 &&
                     info.dli_fbase != nullptr;
  return found ? pc - reinterpret_cast<std::uintptr_t>(info.dli_fbase) : 0;
}

}  // namespace

using hooks::Fn;
using hooks::HookContext;
using hooks::Probe;

MemSyncEngine::MemSyncEngine(gpusim::Runtime& rt, const ToolConfig& cfg,
                             const Stage1Result& s1, bool hash_transfers)
    : rt_(rt),
      cfg_(cfg),
      hash_transfers_(hash_transfers),
      probe_cost_(hash_transfers ? cfg.stage3_probe_cost
                                 : cfg.stage4_probe_cost),
      tracer_(memtrace::PageTracer::instance()),
      stats_at_start_(tracer_.stats()) {
  DIOG_CHECK(!tracer_.armed(), "page tracer left armed by a previous run");
  tracer_.unregister_all();
  tracer_.clear_accesses();

  // Probe attachment order matters on shared functions: the per-op trace
  // probe must run before the guard's exit re-arms protection, so the
  // trace probe is attached first (slots fire in attach order).
  const std::vector<Fn> traced = s1.traced_fns();
  Probe trace_probe;
  trace_probe.entry_cost = probe_cost_;
  trace_probe.exit_cost = probe_cost_;
  trace_probe.on_exit = [this](const HookContext& ctx) {
    if (ctx.dispatch_depth != 1) return;
    on_traced_exit(ctx);
  };
  for (const Fn f : traced) rt_.hooks().attach(f, trace_probe);

  // The guard: every top-level driver call runs in a driver window of
  // the tracer (the driver and kernel bodies may legally touch registered
  // memory); entry attributes the accesses recorded so far.
  Probe guard;
  guard.on_entry = [this](const HookContext& ctx) {
    if (ctx.dispatch_depth != 1) return;
    on_guard_entry(ctx);
  };
  guard.on_exit = [this](const HookContext& ctx) {
    if (ctx.dispatch_depth != 1) return;
    on_guard_exit();
  };
  rt_.hooks().attach_matching(
      [](Fn f) { return hooks::is_public_api(f) || hooks::is_private_api(f); },
      guard);
}

MemSyncEngine::~MemSyncEngine() {
  if (!finished_) {
    tracer_.disarm();  // also closes a window an exception left open
    tracer_.unregister_all();
    tracer_.clear_accesses();
  }
}

void MemSyncEngine::finish() {
  DIOG_CHECK(!finished_, "finish() called twice");
  if (tracer_.armed()) tracer_.disarm();
  drain_accesses();
  tracer_.unregister_all();
  tracer_.clear_accesses();
  tracer_stats_ = tracer_.stats().since(stats_at_start_);
  finished_ = true;
}

void MemSyncEngine::on_guard_entry(const HookContext& ctx) {
  tracer_.enter_driver();
  if (tracer_.armed()) rt_.cpu_work(cfg_.memprotect_cost);
  drain_accesses();
  // A free may hand the block back to the OS without touching it, after
  // which its range could no longer be unprotected: forget it first.
  if ((ctx.fn == Fn::kCudaFree || ctx.fn == Fn::kCudaFreeHost ||
       ctx.fn == Fn::kPrivMemFree) &&
      ctx.info->ptr != nullptr) {
    forget_range(ctx.info->ptr);
  }
}

void MemSyncEngine::on_guard_exit() {
  tracer_.leave_driver(/*expected_accesses=*/dirty_ranges_.size() + 16);
  if (!dirty_ranges_.empty()) rt_.cpu_work(cfg_.memprotect_cost);
}

void MemSyncEngine::register_dirty_range(void* ptr, std::uint64_t bytes) {
  if (ptr == nullptr || bytes == 0) return;
  if (dirty_ranges_.contains(ptr)) {
    // Already dirty. Lift it anyway so leaving the window re-protects it,
    // even if the app remapped the address since it was protected.
    tracer_.lift(ptr, bytes);
    return;
  }
  const memtrace::RangeId id =
      tracer_.register_range(ptr, bytes, next_op_index_);
  dirty_ranges_.emplace(ptr, id);
}

void MemSyncEngine::forget_range(const void* ptr) {
  const auto it = dirty_ranges_.find(ptr);
  if (it == dirty_ranges_.end()) return;
  tracer_.unregister_range(it->second);
  dirty_ranges_.erase(it);
}

void MemSyncEngine::drain_accesses() {
  if (tracer_.accesses().empty()) return;
  DIOG_CHECK(!tracer_.armed() || tracer_.in_driver(),
             "draining accesses while armed");
  for (const memtrace::AccessRecord& rec : tracer_.accesses()) {
    // Attribute the access to the most recent synchronization completed
    // before it: that sync is what made the access safe.
    SyncObservation* attributed = nullptr;
    for (auto it = syncs_.rbegin(); it != syncs_.rend(); ++it) {
      if (it->t_exit <= rec.time) {
        attributed = &*it;
        break;
      }
    }
    // The accessed range is now consumed regardless of attribution.
    for (auto it = dirty_ranges_.begin(); it != dirty_ranges_.end();) {
      if (it->second == rec.range) {
        tracer_.unregister_range(it->second);
        it = dirty_ranges_.erase(it);
      } else {
        ++it;
      }
    }
    if (attributed == nullptr) continue;  // access before any sync
    if (attributed->required) continue;   // keep the FIRST use only
    attributed->required = true;
    attributed->access_stack = rec.stack();
    attributed->access_ip = module_offset(rec.instruction_pointer);
    attributed->first_use_time = rec.time - attributed->t_exit;
  }
  tracer_.clear_accesses();
}

void MemSyncEngine::hash_transfer(const HookContext& ctx) {
  // Only memcpy-style transfers carry app content worth deduplicating;
  // managed-memory traffic is the documented blind spot and memsets have
  // no source buffer.
  const Fn f = ctx.fn;
  const bool is_memcpy = f == Fn::kCudaMemcpy || f == Fn::kCudaMemcpyAsync ||
                         f == Fn::kPrivMemcpyHtoD || f == Fn::kPrivMemcpyDtoH;
  if (!is_memcpy || ctx.info->bytes == 0) return;
  if (ctx.info->memcpy_kind == hooks::MemcpyKind::kHostToHost) return;

  // Hash the host-side view of the content: the source for H2D, the
  // just-written destination for D2H.
  const void* view = ctx.info->memcpy_kind == hooks::MemcpyKind::kHostToDevice
                         ? ctx.info->src
                         : ctx.info->dst;
  if (view == nullptr) return;
  const std::span<const std::byte> data{
      static_cast<const std::byte*>(view), ctx.info->bytes};
  // Large views are hashed on pool workers; lift their protection here
  // so the fault handler never runs on another thread.
  tracer_.lift(view, ctx.info->bytes);

  const auto dir =
      ctx.info->memcpy_kind == hooks::MemcpyKind::kHostToDevice
          ? hash::TransferDirection::kHostToDevice
          : hash::TransferDirection::kDeviceToHost;
  const std::optional<hash::FirstTransfer> first =
      dedup_.observe(data, dir, next_op_index_);
  ++transfers_hashed_;
  bytes_hashed_ += ctx.info->bytes;

  // Charge the hashing cost to the application — this is the heavy
  // instrumentation that makes stage 3 unsuitable for timing collection.
  const double seconds = static_cast<double>(ctx.info->bytes) /
                         cfg_.hash_bandwidth_bytes_per_s;
  rt_.cpu_work(Duration{static_cast<std::int64_t>(seconds * 1e9)});

  if (first.has_value()) {
    DuplicateTransfer d;
    d.op_index = next_op_index_;
    d.first_op_index = first->first_event_id;
    d.digest = first->digest;
    d.bytes = ctx.info->bytes;
    duplicates_.push_back(d);
  }
}

void MemSyncEngine::on_traced_exit(const HookContext& ctx) {
  // (The guard entry already opened the driver window and drained.)
  if (hash_transfers_ && ctx.info->performed_transfer) {
    hash_transfer(ctx);
  }

  // A device-to-host transfer makes its destination GPU-written data:
  // accesses to it require a completed synchronization.
  if (ctx.info->performed_transfer &&
      ctx.info->memcpy_kind == hooks::MemcpyKind::kDeviceToHost &&
      ctx.info->dst != nullptr) {
    register_dirty_range(const_cast<void*>(ctx.info->dst), ctx.info->bytes);
  }

  if (ctx.info->performed_sync || hooks::is_explicit_sync_fn(ctx.fn)) {
    SyncObservation obs;
    obs.op_index = next_op_index_;
    obs.t_exit = ctx.exit_time;
    syncs_.push_back(std::move(obs));
  }

  ++next_op_index_;
}

}  // namespace diog::ffm
