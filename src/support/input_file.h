// Every file the program reads is opened here: open_run maps it, every
// other reader reads it, whole or from an offset. Size and identity
// come from fstat on the one descriptor, so they describe the bytes
// read even when the path is replaced meanwhile.
#pragma once

#include <sys/stat.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace diog::support {

class InputFile {
 public:
  // Never throws: a file that cannot be opened is !is_open(), and each
  // caller words its own error.
  explicit InputFile(const std::string& path);
  ~InputFile();
  InputFile(const InputFile&) = delete;
  InputFile& operator=(const InputFile&) = delete;

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const struct stat& stat() const { return st_; }
  // The bytes from `offset` to the end, read past fstat's size if the
  // file grew; nullopt on a read error. EINTR and short reads retry.
  [[nodiscard]] std::optional<std::string> read_from(
      std::uint64_t offset) const;
  // The whole file mapped read-only, valid while this object lives;
  // nullopt when it cannot be mapped.
  [[nodiscard]] std::optional<std::span<const unsigned char>> map();

 private:
  int fd_ = -1;
  struct stat st_{};
  void* mapped_ = nullptr;
};

// The whole file at `path`; nullopt when it cannot be opened or read.
std::optional<std::string> read_file(const std::string& path);

}  // namespace diog::support
