// Infrastructure microbenchmarks (google-benchmark): the per-event costs
// that determine how much real time the tool spends per simulated run —
// content hashing throughput, hook dispatch, frame interning, stack
// keys, JSON round-trips, and the expected-benefit pass on large graphs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/benefit.h"
#include "core/graph.h"
#include "core/tool_config.h"
#include "gpusim/api.h"
#include "gpusim/runtime.h"
#include "hashing/content_hash.h"
#include "hashing/dedup_store.h"
#include "hooks/hook_table.h"
#include "json/json.h"
#include "support/rng.h"
#include "testkit/synth_run.h"
#include "trace/callstack.h"

namespace {

using namespace diog;

std::vector<std::byte> random_bytes(std::size_t n) {
  Rng rng(42);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_below(256));
  return out;
}

void BM_Hash64(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::hash64(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Hash64)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_Fnv1a(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::fnv1a64(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fnv1a)->Arg(4096)->Arg(1 << 20);

void BM_DedupObserve(benchmark::State& state) {
  hash::DedupStore store;
  const auto data = random_bytes(4096);
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.observe(
        data, hash::TransferDirection::kHostToDevice, id++));
  }
}
BENCHMARK(BM_DedupObserve);

void BM_HookDispatchNoProbe(benchmark::State& state) {
  hooks::HookTable table;
  VirtualClock clock;
  hooks::OpInfo info;
  for (auto _ : state) {
    const auto id =
        table.fire_entry(hooks::Fn::kCudaFree, info, clock, 1, false);
    table.fire_exit(hooks::Fn::kCudaFree, id, TimePoint{0}, info, clock, 1,
                    false);
  }
}
BENCHMARK(BM_HookDispatchNoProbe);

void BM_HookDispatchWithProbe(benchmark::State& state) {
  hooks::HookTable table;
  VirtualClock clock;
  hooks::OpInfo info;
  std::uint64_t count = 0;
  hooks::Probe p;
  p.on_entry = [&](const hooks::HookContext&) { ++count; };
  p.on_exit = [&](const hooks::HookContext&) { ++count; };
  table.attach(hooks::Fn::kCudaFree, p);
  for (auto _ : state) {
    const auto id =
        table.fire_entry(hooks::Fn::kCudaFree, info, clock, 1, false);
    table.fire_exit(hooks::Fn::kCudaFree, id, TimePoint{0}, info, clock, 1,
                    false);
  }
  benchmark::DoNotOptimize(count);
}
BENCHMARK(BM_HookDispatchWithProbe);

void BM_RuntimeApiCall(benchmark::State& state) {
  gpusim::Runtime rt;
  gpusim::RuntimeScope scope(rt);
  for (auto _ : state) {
    int dev = 0;
    benchmark::DoNotOptimize(gpusim::cudaGetDevice(&dev));
  }
}
BENCHMARK(BM_RuntimeApiCall);

void BM_StackCapture(benchmark::State& state) {
  trace::ScopedFrame f1("main", "app.cc", 1);
  trace::ScopedFrame f2("update", "app.cc", 2);
  trace::ScopedFrame f3("solve", "app.cc", 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::CallContext::current().capture());
  }
}
BENCHMARK(BM_StackCapture);

void BM_StackKeys(benchmark::State& state) {
  trace::ScopedFrame f1("main", "app.cc", 1);
  trace::ScopedFrame f2("storage<float>::deallocate", "t.h", 31);
  const trace::StackTrace st = trace::CallContext::current().capture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(st.exact_key());
    benchmark::DoNotOptimize(st.folded_key());
  }
}
BENCHMARK(BM_StackKeys);

void BM_JsonRoundTrip(benchmark::State& state) {
  json::Value v;
  json::Array ops;
  for (int i = 0; i < 100; ++i) {
    json::Object op;
    op["index"] = i;
    op["api_name"] = "cudaFree";
    op["t_enter_ns"] = i * 1000;
    op["sync_wait_ns"] = 12345;
    ops.emplace_back(std::move(op));
  }
  v["ops"] = std::move(ops);
  const std::string text = v.dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::parse(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonRoundTrip);

// A random chain of `nodes` CPU nodes with exactly `problems` unnecessary
// waits spread evenly over it (the 1M-event synthetic run has ~2M nodes
// and 64 problems).
ffm::ExecutionGraph benefit_graph(std::size_t nodes, std::size_t problems) {
  Rng rng(7);
  std::vector<ffm::Node> chain(nodes);
  const std::size_t stride = nodes / std::max<std::size_t>(problems, 1);
  for (std::size_t i = 0; i < nodes; ++i) {
    ffm::Node& node = chain[i];
    const auto roll = rng.next_below(3);
    node.type = roll == 0   ? ffm::NType::kCWork
                : roll == 1 ? ffm::NType::kCLaunch
                            : ffm::NType::kCWait;
    node.duration = us(rng.next_in(1, 1000));
    if (i % stride == stride / 2 && i / stride < problems) {
      node.type = ffm::NType::kCWait;
      node.problem = ffm::ProblemType::kUnnecessarySync;
    }
  }
  return ffm::ExecutionGraph(std::move(chain), secs(1.0));
}

// Replay cost is O(problems): the node count should barely move it.
void BM_ExpectedBenefit(benchmark::State& state) {
  const ffm::ExecutionGraph g =
      benefit_graph(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ffm::expected_benefit(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_ExpectedBenefit)
    ->Args({1000, 130})
    ->Args({10000, 1300})
    ->Args({1000000, 64});

// A sequence-group estimate: every other problem of the 1M-node graph.
void BM_ExpectedBenefitSubset(benchmark::State& state) {
  const ffm::ExecutionGraph g =
      benefit_graph(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  std::vector<std::size_t> subset;
  for (std::size_t k = 0; k < g.problematic_indices().size(); k += 2) {
    subset.push_back(g.problematic_indices()[k]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ffm::expected_benefit_subset(g, subset));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(subset.size()));
}
BENCHMARK(BM_ExpectedBenefitSubset)->Args({1000000, 64});

// Stage 5's largest phase: the graph of the 1M-event synthetic run (the
// benchmark's trace_1m input, ~2M nodes). Dominated by first-touching
// the node vector, so it tracks sizeof(Node) and the columns scanned.
void BM_BuildGraph(benchmark::State& state) {
  testkit::SynthRunOptions opts;
  opts.events = static_cast<std::uint64_t>(state.range(0));
  const evstore::TraceRun run = testkit::make_synthetic_run(opts);
  const Duration threshold = ffm::ToolConfig{}.misplaced_threshold;
  std::size_t nodes = 0;
  for (auto _ : state) {
    const ffm::ExecutionGraph g = ffm::build_graph(run, threshold);
    nodes = g.size();
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BuildGraph)->Arg(1000000)->Unit(benchmark::kMillisecond);

}  // namespace
