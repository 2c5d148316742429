// Duplicate-transfer detection: content-based deduplication of PCIe
// traffic (paper §3.3.2).
//
// The workload re-uploads a lookup table and a coefficients block every
// frame even though neither ever changes — a pattern common in ported
// codes ("upload everything each iteration, it's simpler"). Stage 3
// hashes each transferred buffer and points every duplicate at the
// transfer that first moved the same bytes.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/diogenes.h"
#include "eventstore/cursor.h"
#include "gpusim/api.h"
#include "gpusim/host_buffer.h"
#include "support/strings.h"
#include "trace/callstack.h"

using namespace diog;
using hooks::MemcpyKind;

namespace {

struct FrameLoop {
  std::shared_ptr<gpusim::HostBuffer<float>> lut =
      std::make_shared<gpusim::HostBuffer<float>>(512 * 1024);
  std::shared_ptr<gpusim::HostBuffer<float>> coeffs =
      std::make_shared<gpusim::HostBuffer<float>>(64 * 1024);
  std::shared_ptr<gpusim::HostBuffer<float>> frame =
      std::make_shared<gpusim::HostBuffer<float>>(256 * 1024);
  int frames = 12;

  void operator()() const {
    DIOG_APP_FRAME("render_main", "render.cu", 8);
    (*lut)[0] = 1.0f;     // filled once...
    (*coeffs)[0] = 2.0f;  // ...never touched again

    void* d_lut = nullptr;
    void* d_coeffs = nullptr;
    void* d_frame = nullptr;
    (void)gpusim::cudaMalloc(&d_lut, lut->size_bytes());
    (void)gpusim::cudaMalloc(&d_coeffs, coeffs->size_bytes());
    (void)gpusim::cudaMalloc(&d_frame, frame->size_bytes());

    for (int f = 0; f < frames; ++f) {
      DIOG_APP_FRAME("render_frame", "render.cu", 31);
      {
        DIOG_APP_FRAME("upload_lut", "render.cu", 33);
        (void)gpusim::cudaMemcpy(d_lut, lut->data(), lut->size_bytes(),
                                 MemcpyKind::kHostToDevice);
      }
      {
        DIOG_APP_FRAME("upload_coeffs", "render.cu", 37);
        (void)gpusim::cudaMemcpy(d_coeffs, coeffs->data(),
                                 coeffs->size_bytes(),
                                 MemcpyKind::kHostToDevice);
      }
      {
        // The frame data genuinely changes: a legitimate upload.
        DIOG_APP_FRAME("upload_frame", "render.cu", 43);
        (*frame)[0] = static_cast<float>(f);
        (void)gpusim::cudaMemcpy(d_frame, frame->data(),
                                 frame->size_bytes(),
                                 MemcpyKind::kHostToDevice);
      }
      gpusim::KernelDesc k;
      k.name = "render_kernel";
      k.duration = ms(4);
      (void)gpusim::cudaLaunchKernel(k);
      (void)gpusim::cudaDeviceSynchronize();
    }
    (void)gpusim::cudaFree(d_lut);
    (void)gpusim::cudaFree(d_coeffs);
    (void)gpusim::cudaFree(d_frame);
  }
};

}  // namespace

int main() {
  ffm::Workload w;
  w.name = "render_loop";
  w.device = gpusim::DeviceConfig{};
  w.body = FrameLoop{};

  // One analysis collects all four stages into its run; the listing
  // reads stage 3's hashing results back out of that run.
  const ffm::AnalysisResult r = ffm::Diogenes(w).analyze();
  const evstore::EventStore& store = *r.run.store;

  std::printf("transfers hashed: %llu (%s)\n",
              static_cast<unsigned long long>(r.run.meta.transfers_hashed),
              format_bytes(r.run.meta.bytes_hashed).c_str());
  std::printf("duplicates found: %zu\n\n",
              static_cast<std::size_t>(
                  store.count_of(evstore::EventKind::kDuplicateTransfer)));

  // Each traced op's stack, by op index.
  std::vector<evstore::StackId> op_stacks;
  evstore::ops(store).for_each(
      [&](const evstore::Event& e) { op_stacks.push_back(e.stack); });

  // Group duplicates by the site of the duplicate call.
  std::printf("%-34s %-12s %s\n", "duplicate transfer at", "bytes",
              "first moved by op#");
  evstore::duplicate_transfers(store).for_each([&](const evstore::Event& d) {
    const trace::StackTrace stack = store.stack_trace(op_stacks[d.op_index]);
    const trace::Frame* leaf = stack.leaf();
    std::printf("%-34s %-12s %llu\n",
                (leaf != nullptr
                     ? leaf->file + ":" + std::to_string(leaf->line)
                     : std::string("?"))
                    .c_str(),
                format_bytes(d.bytes).c_str(),
                static_cast<unsigned long long>(d.link));
  });

  // The benefit estimate prices what removing the duplicates would save.
  std::printf("\nestimated benefit of removing duplicate transfers: %s "
              "(%s of execution)\n",
              format_seconds(r.benefit.transfer_benefit).c_str(),
              format_percent(r.fraction_of_exec(r.benefit.transfer_benefit))
                  .c_str());
  std::printf("(the per-frame `frame` upload is correctly NOT flagged —\n"
              " its bytes change every iteration)\n");
  return 0;
}
