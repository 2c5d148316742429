// Raw memory for a buffer its owner writes before reading, never
// value-initialised.
//
// A buffer of 32 MiB or more is an anonymous mapping of its own,
// advised MADV_HUGEPAGE: where transparent huge pages are enabled
// (`always` or `madvise`), first touch takes one fault per 2 MiB
// instead of one per 4 KiB page. The advice covers only this mapping,
// never a range of the shared malloc heap, and changes no machine
// setting; with huge pages off the mapping is ordinary fresh memory.
// 32 MiB is glibc's largest mmap threshold: malloc maps every block
// that big afresh, so each one faults in all its pages, while a smaller
// block comes from the heap once one that size has been freed, and a
// repeated buffer reuses warm pages there. A smaller buffer therefore
// comes from operator new (a fresh mapping cost a 50K-event hub push's
// build_graph 1.0 -> 3.8 ms).
#pragma once

#include <cstddef>

namespace diog::support {

class FreshBuffer {
 public:
  FreshBuffer() = default;
  // Throws std::bad_alloc when the memory cannot be had.
  explicit FreshBuffer(std::size_t bytes);
  ~FreshBuffer();
  FreshBuffer(FreshBuffer&& other) noexcept;
  FreshBuffer& operator=(FreshBuffer&& other) noexcept;

  [[nodiscard]] void* data() const { return data_; }

 private:
  void* data_ = nullptr;
  std::size_t bytes_ = 0;
  bool mapped_ = false;  // its own mapping, not operator new
};

}  // namespace diog::support
