#include "testkit/synth_run.h"

#include <algorithm>
#include <vector>

#include "support/error.h"
#include "trace/callstack.h"

namespace diog::testkit {

namespace ev = evstore;

namespace {

// Every 64th op blocks in a device synchronize; the rest are cheap
// async launches the graph folds into CWork.
constexpr std::uint64_t kSyncPeriod = 64;
// Problem instances per problematic site — bounds stage-5 work.
constexpr std::uint64_t kInstancesPerSite = 16;

}  // namespace

ev::TraceRun make_synthetic_run(const SynthRunOptions& opts) {
  // Ops start at i * spacing; a negative spacing would run time backwards.
  DIOG_CHECK(opts.op_spacing_ns >= 0, "op_spacing_ns must be >= 0");
  ev::TraceRun run;
  run.meta.workload = "synthetic";
  run.meta.wait_fn = hooks::Fn::kCudaDeviceSynchronize;

  ev::EventStore& store = *run.store;
  auto& frames = trace::FrameTable::instance();
  const trace::Frame* root = frames.intern("synth_main", "synth.cu", 10);

  // Benign sync sites plus the problematic ones.
  constexpr std::uint32_t kBenignStacks = 12;
  std::vector<ev::StackId> benign;
  for (std::uint32_t s = 0; s < kBenignStacks; ++s) {
    const trace::Frame* fs[2] = {
        root, frames.intern("compute_" + std::to_string(s), "synth.cu",
                            100 + static_cast<int>(s))};
    benign.push_back(store.intern_stack(fs, 2));
  }
  std::vector<ev::StackId> problems;
  for (std::uint32_t s = 0; s < opts.problem_sites; ++s) {
    const trace::Frame* fs[2] = {
        root, frames.intern("hot_sync_" + std::to_string(s), "synth.cu",
                            500 + static_cast<int>(s))};
    problems.push_back(store.intern_stack(fs, 2));
  }
  const ev::NameId pad_name = store.intern_name("synth.pad");

  // --- Plan the exact row budget --------------------------------------------
  const std::uint64_t n = std::max<std::uint64_t>(opts.events, 16);
  const std::uint64_t sites_n = kBenignStacks + opts.problem_sites;
  // ops + ops/kSyncPeriod classifications + bounded problem uses +
  // sites must not exceed n; the remainder pads as internal spans.
  std::uint64_t ops_n =
      (n - std::min(n - 1, sites_n)) * kSyncPeriod / (kSyncPeriod + 1);
  std::uint64_t sync_n = ops_n / kSyncPeriod;
  std::uint64_t problem_n =
      std::min<std::uint64_t>(sync_n, static_cast<std::uint64_t>(
                                          opts.problem_sites) *
                                          kInstancesPerSite);
  while (sites_n + ops_n + sync_n + problem_n > n && ops_n > 1) {
    --ops_n;
    sync_n = ops_n / kSyncPeriod;
    problem_n = std::min<std::uint64_t>(
        sync_n,
        static_cast<std::uint64_t>(opts.problem_sites) * kInstancesPerSite);
  }

  // --- Stage 1: sync sites --------------------------------------------------
  for (std::uint32_t s = 0; s < kBenignStacks; ++s) {
    ev::Event e;
    e.kind = ev::EventKind::kSyncSite;
    e.set_fn(hooks::Fn::kCudaDeviceSynchronize);
    e.stack = benign[s];
    e.value = sync_n / std::max<std::uint64_t>(1, kBenignStacks);
    store.append(e);
  }
  for (std::uint32_t s = 0; s < opts.problem_sites; ++s) {
    ev::Event e;
    e.kind = ev::EventKind::kSyncSite;
    e.set_fn(hooks::Fn::kCudaDeviceSynchronize);
    e.stack = problems[s];
    e.value = kInstancesPerSite;
    store.append(e);
  }

  // --- Stage 2: ops ---------------------------------------------------------
  // Sync op k (k in [0, sync_n)) is problematic while k < problem_n,
  // cycling through the problem stacks so each site accumulates
  // kInstancesPerSite members.
  std::vector<std::uint64_t> sync_op_indices;
  sync_op_indices.reserve(sync_n);
  for (std::uint64_t i = 0; i < ops_n; ++i) {
    ev::Event e;
    e.kind = ev::EventKind::kOp;
    e.op_index = i;
    e.t_start = static_cast<std::int64_t>(i) * opts.op_spacing_ns;
    const bool is_sync =
        i % kSyncPeriod == kSyncPeriod - 1 &&
        sync_op_indices.size() < sync_n;
    if (is_sync) {
      const std::uint64_t k = sync_op_indices.size();
      e.set_fn(hooks::Fn::kCudaDeviceSynchronize);
      e.set(ev::flag::kPerformedSync);
      e.aux_time = opts.op_spacing_ns * 16;  // blocked wait
      e.t_end = e.t_start + e.aux_time + 50;
      e.stack = k < problem_n
                    ? problems[k % problems.size()]
                    : benign[k % benign.size()];
      sync_op_indices.push_back(i);
    } else {
      e.set_fn(hooks::Fn::kCudaMemcpyAsync);
      e.set(ev::flag::kAsyncRequested);
      e.set(ev::flag::kPerformedTransfer);
      e.set_direction(hooks::MemcpyKind::kHostToDevice);
      e.set_dst_mem(hooks::MemKind::kDevice);
      e.set_src_mem(hooks::MemKind::kPinned);
      e.bytes = 4096;
      e.gpu_time = opts.op_spacing_ns / 2;
      e.t_end = e.t_start + opts.op_spacing_ns / 4;
      e.stack = benign[i % benign.size()];
    }
    store.append(e);
  }

  // --- Stage 3: classifications --------------------------------------------
  for (std::uint64_t k = 0; k < sync_op_indices.size(); ++k) {
    ev::Event e;
    e.kind = ev::EventKind::kSyncClassification;
    e.op_index = sync_op_indices[k];
    e.set(ev::flag::kSyncRequired, k >= problem_n);
    e.aux_stack = k < problem_n ? problems[k % problems.size()]
                                : benign[k % benign.size()];
    e.value = 0x4000 + k;
    store.append(e);
  }

  // --- Stage 4: first-use gaps for the problems -----------------------------
  for (std::uint64_t k = 0; k < problem_n; ++k) {
    ev::Event e;
    e.kind = ev::EventKind::kSyncUse;
    e.op_index = sync_op_indices[k];
    e.aux_time = opts.op_spacing_ns * 4;
    store.append(e);
  }

  // --- Pad to exactly n with internal spans ---------------------------------
  while (store.size() < n) {
    const std::uint64_t i = store.size();
    ev::Event e;
    e.kind = ev::EventKind::kInternalSpan;
    e.name = pad_name;
    e.t_start = static_cast<std::int64_t>(i) * opts.op_spacing_ns;
    e.t_end = e.t_start + opts.op_spacing_ns / 8;
    store.append(e);
  }

  const Duration span{static_cast<std::int64_t>(n) * opts.op_spacing_ns};
  run.meta.s1_exec = span;
  run.meta.s2_exec = span + Duration{span.count() / 10};
  run.meta.s3_exec = span + Duration{span.count() / 5};
  run.meta.s4_exec = span + Duration{span.count() / 10};
  return run;
}

}  // namespace diog::testkit
