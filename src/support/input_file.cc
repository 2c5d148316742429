#include "support/input_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>

namespace diog::support {

InputFile::InputFile(const std::string& path)
    : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
  if (fd_ >= 0 && ::fstat(fd_, &st_) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

InputFile::~InputFile() {
  if (mapped_ != nullptr) {
    ::munmap(mapped_, static_cast<std::size_t>(st_.st_size));
  }
  if (fd_ >= 0) ::close(fd_);
}

std::optional<std::span<const unsigned char>> InputFile::map() {
  const auto size = static_cast<std::size_t>(st_.st_size);
  if (size > 0 && mapped_ == nullptr) {
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd_, 0);
    if (p == MAP_FAILED) return std::nullopt;
    mapped_ = p;
  }
  return std::span(static_cast<const unsigned char*>(mapped_), size);
}

std::optional<std::string> InputFile::read_from(std::uint64_t offset) const {
  // Room for fstat's size and one block more, so the read that finds
  // the end needs no reallocation.
  constexpr std::size_t kBlock = 1 << 16;
  const auto size = static_cast<std::uint64_t>(st_.st_size);
  std::string out((size > offset ? size - offset : 0) + kBlock, '\0');
  std::size_t got = 0;
  for (;;) {
    if (got == out.size()) out.resize(got + kBlock);  // the file grew
    const ssize_t n = ::pread(fd_, out.data() + got, out.size() - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return std::nullopt;
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  out.resize(got);
  return out;
}

std::optional<std::string> read_file(const std::string& path) {
  const InputFile f(path);
  if (!f.is_open()) return std::nullopt;
  return f.read_from(0);
}

}  // namespace diog::support
