// Property-based tests of the whole pipeline over randomized synthetic
// workloads.
//
// A seeded generator emits a random but deterministic CUDA-style program
// (kernels, transfers, frees, syncs, CPU work, data reads) and records
// ground-truth facts while generating. The five-stage pipeline must then
// satisfy structural invariants against that oracle for every seed:
// stage alignment, duplicate-transfer correctness, benefit bounds,
// a well-formed JSON export, and run-to-run determinism.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/diogenes.h"
#include "core/report.h"
#include "core/run_convert.h"
#include "gpusim/api.h"
#include "gpusim/host_buffer.h"
#include "support/rng.h"
#include "trace/callstack.h"

namespace diog::ffm {
namespace {

using gpusim::HostBuffer;
using gpusim::KernelDesc;
using hooks::MemcpyKind;

// Ground truth accumulated while generating the program.
struct Oracle {
  std::size_t duplicate_uploads = 0;
  std::size_t sync_calls = 0;       // calls that perform a sync op
  std::size_t transfer_calls = 0;   // memcpy-style calls
  std::size_t reads_after_copy = 0;
};

struct RandomProgram {
  std::uint64_t seed;
  std::shared_ptr<Oracle> oracle = std::make_shared<Oracle>();
  // Buffers shared across replays so content is identical run-to-run.
  std::shared_ptr<HostBuffer<float>> stable =
      std::make_shared<HostBuffer<float>>(8 * 1024);
  std::shared_ptr<HostBuffer<float>> fresh =
      std::make_shared<HostBuffer<float>>(8 * 1024);
  std::shared_ptr<HostBuffer<float>> readback =
      std::make_shared<HostBuffer<float>>(8 * 1024);

  explicit RandomProgram(std::uint64_t s) : seed(s) {
    // Distinctive stable content, so no buffer accidentally matches
    // another by both being zero-filled.
    (*stable)[0] = 1234.5f;
    (*stable)[777] = static_cast<float>(seed) + 0.25f;
  }

  void operator()() const {
    DIOG_APP_FRAME("random_main", "random.cu", 1);
    Rng rng(seed);
    Oracle local{};  // recomputed identically each run

    void* d_a = nullptr;
    void* d_b = nullptr;
    (void)gpusim::cudaMalloc(&d_a, stable->size_bytes());
    (void)gpusim::cudaMalloc(&d_b, readback->size_bytes());

    // Content-identity oracle: the dedup store flags any transfer whose
    // exact bytes crossed the bus before, regardless of direction or
    // buffer. Track transferred contents symbolically.
    std::set<std::string> seen_contents;
    int device_version = -1;  // which kernel last wrote d_b

    const int steps = 10 + static_cast<int>(rng.next_below(15));
    for (int i = 0; i < steps; ++i) {
      DIOG_APP_FRAME("random_step", "random.cu", 20);
      switch (rng.next_below(6)) {
        case 0: {  // kernel launch
          KernelDesc k;
          k.name = "rand_kernel";
          k.duration = us(rng.next_in(50, 3000));
          float* out = static_cast<float*>(d_b);
          const float v = static_cast<float>(i) + 3.75f;
          k.body = [out, v] { out[0] = v; };
          (void)gpusim::cudaLaunchKernel(k);
          device_version = i;
          break;
        }
        case 1: {  // upload of never-changing content (duplicate source)
          DIOG_APP_FRAME("upload_stable", "random.cu", 31);
          (void)gpusim::cudaMemcpy(d_a, stable->data(),
                                   stable->size_bytes(),
                                   MemcpyKind::kHostToDevice);
          ++local.transfer_calls;
          ++local.sync_calls;  // blocking copy
          if (!seen_contents.insert("stable").second) {
            ++local.duplicate_uploads;
          }
          break;
        }
        case 2: {  // upload of changing content (never a duplicate)
          DIOG_APP_FRAME("upload_fresh", "random.cu", 41);
          (*fresh)[0] = static_cast<float>(i) + 0.5f;
          (void)gpusim::cudaMemcpy(d_a, fresh->data(),
                                   fresh->size_bytes(),
                                   MemcpyKind::kHostToDevice);
          ++local.transfer_calls;
          ++local.sync_calls;
          seen_contents.insert("fresh_" + std::to_string(i));
          break;
        }
        case 3: {  // explicit sync
          (void)gpusim::cudaDeviceSynchronize();
          ++local.sync_calls;
          break;
        }
        case 4: {  // readback + consume
          DIOG_APP_FRAME("readback", "random.cu", 55);
          (void)gpusim::cudaMemcpy(readback->data(), d_b,
                                   readback->size_bytes(),
                                   MemcpyKind::kDeviceToHost);
          ++local.transfer_calls;
          ++local.sync_calls;
          if (!seen_contents
                   .insert("device_v" + std::to_string(device_version))
                   .second) {
            ++local.duplicate_uploads;
          }
          volatile float v = (*readback)[0];
          (void)v;
          ++local.reads_after_copy;
          break;
        }
        case 5: {  // CPU phase
          gpusim::cpu_work(us(rng.next_in(20, 2000)));
          break;
        }
      }
    }
    (void)gpusim::cudaFree(d_a);  // + 2 implicit syncs
    (void)gpusim::cudaFree(d_b);
    local.sync_calls += 2;
    *oracle = local;
  }
};

Workload make_random(std::uint64_t seed) {
  RandomProgram prog(seed);
  Workload w;
  w.name = "random_" + std::to_string(seed);
  w.device = gpusim::DeviceConfig{};
  w.body = prog;
  return w;
}

class PipelinePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PipelinePropertyTest, InvariantsAgainstOracle) {
  const Workload w = make_random(GetParam());
  const auto* prog = w.body.target<RandomProgram>();
  ASSERT_NE(prog, nullptr);

  Diogenes tool(w);
  const AnalysisResult r = tool.analyze();
  const Oracle& oracle = *prog->oracle;
  const Stage2Result s2 = stage2_view(r.run);
  const Stage3Result s3 = stage3_view(r.run);
  const Stage4Result s4 = stage4_view(r.run);

  // --- duplicate detection matches construction ---------------------------
  EXPECT_EQ(s3.duplicate_transfers.size(), oracle.duplicate_uploads);
  for (const DuplicateTransfer& d : s3.duplicate_transfers) {
    ASSERT_LT(d.op_index, s2.ops.size());
    ASSERT_LT(d.first_op_index, d.op_index);  // first strictly earlier
    const OpRecord& dup = s2.ops[d.op_index];
    const OpRecord& first = s2.ops[d.first_op_index];
    EXPECT_EQ(dup.bytes, first.bytes);
    // Duplicates come from re-sending stable content or re-reading an
    // unchanged device buffer — never from the fresh uploads.
    EXPECT_NE(dup.stack.leaf()->function, "upload_fresh");
  }

  // --- trace counts match the oracle --------------------------------------
  std::size_t traced_syncs = 0;
  std::size_t traced_transfers = 0;
  for (const OpRecord& op : s2.ops) {
    if (op.performed_sync) ++traced_syncs;
    if (op.performed_transfer) ++traced_transfers;
    EXPECT_LE(op.t_enter, op.t_exit);
    EXPECT_LE(op.sync_wait, op.t_exit - op.t_enter);
  }
  EXPECT_EQ(traced_syncs, oracle.sync_calls);
  EXPECT_EQ(traced_transfers, oracle.transfer_calls);

  // --- stage alignment ------------------------------------------------------
  for (const SyncClassification& c : s3.syncs) {
    ASSERT_LT(c.op_index, s2.ops.size());
    EXPECT_TRUE(s2.ops[c.op_index].performed_sync);
  }
  for (const SyncUse& u : s4.uses) {
    ASSERT_LT(u.op_index, s2.ops.size());
    EXPECT_GE(u.first_use_time.count(), 0);
  }

  // --- benefit bounds ---------------------------------------------------------
  EXPECT_GE(r.benefit.total.count(), 0);
  EXPECT_LE(r.benefit.total, s2.exec_time);
  EXPECT_EQ(r.benefit.total,
            r.benefit.sync_benefit + r.benefit.transfer_benefit);

  // --- graph totals reproduce the traced run ----------------------------------
  EXPECT_EQ(r.graph.total_duration(), s2.exec_time);

  // --- JSON export is well-formed ------------------------------------------------
  EXPECT_NO_THROW((void)json::parse(export_json(r).dump_pretty()));
}

TEST_P(PipelinePropertyTest, AnalysisIsDeterministic) {
  const Workload w = make_random(GetParam() ^ 0x9999);
  Diogenes t1(w), t2(w);
  const AnalysisResult a = t1.analyze();
  const AnalysisResult b = t2.analyze();
  const Stage2Result a2 = stage2_view(a.run), b2 = stage2_view(b.run);
  const Stage3Result a3 = stage3_view(a.run), b3 = stage3_view(b.run);
  EXPECT_EQ(a.benefit.total, b.benefit.total);
  EXPECT_EQ(a2.exec_time, b2.exec_time);
  EXPECT_EQ(a3.duplicate_transfers.size(),
            b3.duplicate_transfers.size());
  EXPECT_EQ(export_json(a).dump(), export_json(b).dump());
}

TEST_P(PipelinePropertyTest, BaselineStageMatchesUninstrumentedClosely) {
  const Workload w = make_random(GetParam() + 7);
  const Duration native = run_uninstrumented(w);
  Diogenes tool(w);
  const AnalysisResult r = tool.analyze();
  const Stage1Result s1 = stage1_view(r.run);
  const Stage3Result s3 = stage3_view(r.run);
  // Stage 1 is designed low-overhead: within 5% of native.
  const double ratio = static_cast<double>(s1.exec_time.count()) /
                       static_cast<double>(native.count());
  EXPECT_GE(ratio, 1.0);
  EXPECT_LT(ratio, 1.05);
  // Stage 3 is the heavy one.
  EXPECT_GT(s3.exec_time, s1.exec_time);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace diog::ffm
