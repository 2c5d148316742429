// The four evaluation applications (paper §5), reimplemented against the
// simulated runtime. Each reproduces the pathology the paper documents
// and ships a `fixed` variant implementing the paper's fix, so the
// benches can compare Diogenes' estimated benefit against the actual
// runtime reduction (Table 1).
//
// Scale note: iteration counts are scaled down from the paper's runs
// (e.g. cumf_als ran 5000 ALS iterations on MovieLens-10M; cuIBM
// performed millions of Thrust temporary allocations). Every pathology
// is per-iteration, so percentages of execution time — the quantities
// Tables 1-2 compare — are preserved at reduced scale. Configs accept
// larger counts for full-scale runs.
#pragma once

#include <cstddef>

#include "core/compare.h"
#include "core/workload.h"

namespace diog::apps {

using diog::Duration;
using ffm::Workload;

// --- cumf_als: ALS matrix factorization (IBM/UIUC) ---------------------------
// Pathology: a per-iteration sequence of duplicate H2D transfers,
// per-iteration cudaFree/cudaMalloc of solver temporaries (each free an
// implicit sync while solver kernels run), and redundant
// cudaDeviceSynchronize calls whose waits would simply migrate to the
// following blocking transfer if removed.
struct CumfAlsConfig {
  std::size_t iterations = 60;
  std::size_t tile_elems = 768 * 1024;    // duplicate feature tiles A/B
  std::size_t batch_elems = 3072 * 1024;  // per-iteration ratings batch
  std::size_t result_elems = 768 * 1024;  // factors read back each iter
  std::size_t x_temp_count = 8;           // update_x solver temporaries
  std::size_t theta_temp_count = 12;      // update_theta solver temporaries
  std::size_t temp_elems = 64 * 1024;
  Duration batch1_gpu = diog::ms(14);  // kernels in flight during x frees
  Duration batch2_gpu = diog::ms(14);  // kernels in flight during theta frees
  Duration batch3_gpu = diog::ms(90);  // the big batched solve
  Duration assemble_x_cpu = diog::ms(12);
  Duration assemble_theta_cpu = diog::ms(12);
  Duration post_solve_cpu = diog::ms(2);
  Duration read_cpu = diog::us(20);
  // §5.2's verification experiment: strip ONLY the two
  // cudaDeviceSynchronize calls (the paper confirmed this changes
  // execution time by ~nothing, despite NVProf attributing 52 % of
  // execution to them).
  bool omit_device_syncs = false;
};
Workload make_cumf_als(const CumfAlsConfig& cfg = {}, bool fixed = false);

// --- cuIBM: immersed-boundary Navier-Stokes (Boston University) --------------
// Pathology: Thrust-style templated helpers allocate temporary device
// storage per call and free it on exit; each cudaFree hides a
// full-device synchronization. Folded-function grouping collapses the
// template instantiations (Figure 7). The fix (a reusing temp pool) also
// eliminates the malloc/free churn, so the actual benefit exceeds the
// estimate — the paper's 61 % accuracy outlier.
struct CuibmConfig {
  std::size_t timesteps = 400;
  std::size_t grid_elems = 96 * 1024;      // lid-driven cavity grid
  std::size_t temp_elems = 16 * 1024;      // per-call Thrust temporaries
  std::size_t residual_elems = 8 * 1024;   // per-step D2H readback
  Duration reduce_kernel_gpu = diog::us(250);   // x2 per step
  Duration minmax_kernel_gpu = diog::us(300);   // thrust::pair<...> helper
  Duration multiply_kernel_gpu = diog::us(160); // cusp-like spmv
  Duration velocity_kernel_gpu = diog::us(340); // stalls the residual copy
  Duration pressure_kernel_gpu = diog::us(250); // absorbed by deviceSync
  std::size_t boundary_kernels_per_step = 6;    // tiny launches
  Duration boundary_kernel_gpu = diog::us(5);
  std::size_t func_attr_calls_per_step = 16;
  Duration pre_copy_cpu = diog::us(150);
  Duration pre_sync_cpu = diog::us(120);
  Duration step_cpu = diog::us(450);
  std::size_t residual_check_interval = 20;  // steps between CPU reads
};
Workload make_cuibm(const CuibmConfig& cfg = {}, bool fixed = false);

// --- AMG: algebraic multigrid (LLNL), ij matrix benchmark --------------------
// Pathology: cudaMemset on unified-memory (managed) buffers whose pages
// are CPU-resident — each memset performs a conditional synchronization
// the program never needed. The fix replaces it with a plain memset.
struct AmgConfig {
  std::size_t solve_iterations = 120;
  std::size_t levels = 2;
  std::size_t managed_elems = 64 * 1024;   // unified-memory work buffers
  std::size_t coarse_temp_count = 2;       // per-cycle temporaries
  std::size_t coarse_temp_elems = 16 * 1024;
  std::size_t residual_elems = 8 * 1024;
  Duration relax_kernel_gpu = diog::us(300);
  Duration level_cpu = diog::us(100);       // per-level CPU setup
  Duration prolong_kernel_gpu = diog::us(120);
  // The prolongation/restriction work that spans the cycle boundary: a
  // long kernel the next cycle's first memset stalls behind.
  Duration boundary_kernel_gpu = diog::us(2200);
  Duration cycle_cpu = diog::ms(2);         // sparse CPU assembly per cycle
  Duration post_cycle_cpu = diog::us(60);
  Duration setup_cpu = diog::ms(2);
};
Workload make_amg(const AmgConfig& cfg = {}, bool fixed = false);

// --- Rodinia Gaussian (UVA) ---------------------------------------------------
// Pathology: cudaThreadSynchronize after every row-elimination kernel
// pair. The syncs dominate consumption (NVProf: 94.9 % of execution)
// but are worth almost nothing to remove — each wait would simply move
// to the next synchronization (Figure 4's limited-benefit case).
struct RodiniaGaussianConfig {
  std::size_t matrix_dim = 256;  // rows eliminated (2 kernels + syncs each)
  Duration fan1_gpu = diog::us(2200);
  Duration fan2_gpu = diog::us(3400);
  Duration row_cpu = diog::us(110);
  std::size_t result_elems = 64 * 1024;
};
Workload make_rodinia_gaussian(const RodiniaGaussianConfig& cfg = {},
                               bool fixed = false);

// --- UVM stencil (extension workload, not one of the paper's four) -----------
// Exercises the unified-memory migration model (§5.3 future work): a
// stencil solver whose halo buffer lives in managed memory and bounces
// CPU<->GPU every timestep — each CPU-side halo update stalls on a
// fault-driven migration that no vendor record describes. The fix
// stages the halo through pinned memory with an explicit async copy.
struct UvmStencilConfig {
  std::size_t timesteps = 200;
  std::size_t grid_elems = 128 * 1024;  // managed; migrates once
  std::size_t halo_elems = 48 * 1024;   // managed; ping-pongs per step
  Duration stencil_kernel_gpu = diog::us(600);
  Duration halo_cpu = diog::us(150);
  Duration step_cpu = diog::us(100);
};
Workload make_uvm_stencil(const UvmStencilConfig& cfg = {},
                          bool fixed = false);

// --- Aggregate helpers ---------------------------------------------------------
struct AppPair {
  std::string name;
  Workload pathological;
  Workload fixed;
  // The problems the paper's fix corrects: Table 1 scopes each app's
  // estimate to these nodes of the pathological run.
  ffm::FixScope fix_scope;
};
std::vector<AppPair> all_apps();

}  // namespace diog::apps
