#include "support/fresh_buffer.h"

#include <sys/mman.h>

#include <new>
#include <utility>

namespace diog::support {

namespace {

// glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit targets.
constexpr std::size_t kOwnMappingBytes = std::size_t{32} << 20;

}  // namespace

FreshBuffer::FreshBuffer(std::size_t bytes) : bytes_(bytes) {
  if (bytes < kOwnMappingBytes) {
    if (bytes > 0) data_ = ::operator new(bytes);
    return;
  }
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  (void)::madvise(p, bytes, MADV_HUGEPAGE);  // a hint; refusal is fine
  data_ = p;
  mapped_ = true;
}

FreshBuffer::~FreshBuffer() {
  if (mapped_) {
    ::munmap(data_, bytes_);
  } else {
    ::operator delete(data_);
  }
}

FreshBuffer::FreshBuffer(FreshBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      mapped_(std::exchange(other.mapped_, false)) {}

FreshBuffer& FreshBuffer::operator=(FreshBuffer&& other) noexcept {
  FreshBuffer taken(std::move(other));
  std::swap(data_, taken.data_);
  std::swap(bytes_, taken.bytes_);
  std::swap(mapped_, taken.mapped_);
  return *this;
}

}  // namespace diog::support
