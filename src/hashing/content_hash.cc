#include "hashing/content_hash.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "parallel/thread_pool.h"

namespace diog::hash {

Digest fnv1a64(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// xxHash64-style constants and mixing.
namespace {

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

std::uint64_t rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

std::uint64_t read64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t read32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t round_mix(std::uint64_t acc, std::uint64_t input) {
  acc += input * kP2;
  acc = rotl(acc, 31);
  acc *= kP1;
  return acc;
}

std::uint64_t merge_round(std::uint64_t acc, std::uint64_t val) {
  acc ^= round_mix(0, val);
  acc = acc * kP1 + kP4;
  return acc;
}

std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

std::uint64_t finalize_tail(std::uint64_t h, const std::byte* p,
                            std::size_t len) {
  while (len >= 8) {
    h ^= round_mix(0, read64(p));
    h = rotl(h, 27) * kP1 + kP4;
    p += 8;
    len -= 8;
  }
  if (len >= 4) {
    h ^= static_cast<std::uint64_t>(read32(p)) * kP1;
    h = rotl(h, 23) * kP2 + kP3;
    p += 4;
    len -= 4;
  }
  while (len > 0) {
    h ^= static_cast<std::uint64_t>(*p) * kP5;
    h = rotl(h, 11) * kP1;
    ++p;
    --len;
  }
  return avalanche(h);
}

}  // namespace

Digest hash64(std::span<const std::byte> data, std::uint64_t seed) {
  Hasher64 h(seed);
  h.update(data);
  return h.digest();
}

Digest hash64_blocked(std::span<const std::byte> data, std::uint64_t seed) {
  if (data.size() <= kHashBlockBytes) return hash64(data, seed);
  const std::size_t blocks =
      (data.size() + kHashBlockBytes - 1) / kHashBlockBytes;
  std::vector<Digest> digests(blocks);
  par::parallel_for(blocks, [&](std::size_t b) {
    const std::size_t off = b * kHashBlockBytes;
    digests[b] = hash64(
        data.subspan(off, std::min(kHashBlockBytes, data.size() - off)));
  });
  // Fold the ordered per-block digests; mixing the total length into
  // the seed keeps "N full blocks" and "N blocks + empty tail" apart.
  return hash64(std::as_bytes(std::span<const Digest>(digests)),
                seed ^ static_cast<std::uint64_t>(data.size()));
}

Hasher64::Hasher64(std::uint64_t seed) : seed_(seed) {
  acc_[0] = seed + kP1 + kP2;
  acc_[1] = seed + kP2;
  acc_[2] = seed;
  acc_[3] = seed - kP1;
}

void Hasher64::process_stripe(const std::byte* p) {
  acc_[0] = round_mix(acc_[0], read64(p));
  acc_[1] = round_mix(acc_[1], read64(p + 8));
  acc_[2] = round_mix(acc_[2], read64(p + 16));
  acc_[3] = round_mix(acc_[3], read64(p + 24));
}

void Hasher64::update(std::span<const std::byte> data) {
  total_len_ += data.size();
  const std::byte* p = data.data();
  std::size_t len = data.size();

  if (buf_len_ > 0) {
    const std::size_t need = 32 - buf_len_;
    const std::size_t take = len < need ? len : need;
    std::memcpy(buf_ + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    len -= take;
    if (buf_len_ == 32) {
      process_stripe(buf_);
      buf_len_ = 0;
    }
  }
  while (len >= 32) {
    process_stripe(p);
    p += 32;
    len -= 32;
  }
  if (len > 0) {
    std::memcpy(buf_, p, len);
    buf_len_ = len;
  }
}

Digest Hasher64::digest() const {
  std::uint64_t h;
  if (total_len_ >= 32) {
    h = rotl(acc_[0], 1) + rotl(acc_[1], 7) + rotl(acc_[2], 12) +
        rotl(acc_[3], 18);
    h = merge_round(h, acc_[0]);
    h = merge_round(h, acc_[1]);
    h = merge_round(h, acc_[2]);
    h = merge_round(h, acc_[3]);
  } else {
    h = seed_ + kP5;
  }
  h += total_len_;
  return finalize_tail(h, buf_, buf_len_);
}

}  // namespace diog::hash
