// Page-aligned pageable host buffers for workloads.
//
// Ordinary (pageable) application memory is exactly what the paper's
// conditional-sync example involves (cudaMemcpyAsync D2H into memory not
// allocated by cudaMallocHost). The page-protection tracer needs such
// buffers to be page-aligned and page-padded so protecting one never
// touches unrelated data; this RAII helper provides that without going
// through the runtime's allocator (so the runtime still classifies the
// memory as pageable).
//
// The pages are a private anonymous mapping, released with munmap. A
// heap free() may write its bookkeeping into the block's first page, and
// the tracer would count that write as the app's first use of the data;
// munmap never touches the pages. A fresh mapping is already zeroed.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <new>
#include <span>
#include <utility>

namespace gpusim {

template <typename T>
class HostBuffer {
 public:
  explicit HostBuffer(std::size_t count) : count_(count) {
    const auto ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = count_ * sizeof(T);
    mapped_ = bytes > 0 ? (bytes + ps - 1) / ps * ps : ps;
    void* p = mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
  }

  ~HostBuffer() { release(); }

  HostBuffer(const HostBuffer&) = delete;
  HostBuffer& operator=(const HostBuffer&) = delete;
  HostBuffer(HostBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        count_(std::exchange(other.count_, 0)),
        mapped_(std::exchange(other.mapped_, 0)) {}
  HostBuffer& operator=(HostBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      count_ = std::exchange(other.count_, 0);
      mapped_ = std::exchange(other.mapped_, 0);
    }
    return *this;
  }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t size_bytes() const { return count_ * sizeof(T); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] std::span<T> span() { return {data_, count_}; }
  [[nodiscard]] std::span<const T> span() const { return {data_, count_}; }

 private:
  void release() {
    if (data_ != nullptr) munmap(static_cast<void*>(data_), mapped_);
  }

  T* data_ = nullptr;
  std::size_t count_ = 0;
  std::size_t mapped_ = 0;  // bytes mapped: count_ * sizeof(T), page-padded
};

}  // namespace gpusim
