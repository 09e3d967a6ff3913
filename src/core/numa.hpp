#pragma once

// NUMA-aware slab helpers for the core SoA containers (LoadTable). Linux
// places a physical page on the NUMA node of the thread that first writes
// it ("first touch"), so the way to shard one big array across nodes —
// without linking libnuma — is to zero-fill disjoint page ranges from
// distinct threads before the data structure is used. The sharding is
// purely a physical-placement concern: it never changes which bytes hold
// which value, so results are bitwise identical at any shard count
// (including the default of 1, which is a plain single-threaded fill).
//
// Shard count comes from the DLB_NUMA_SHARDS environment variable
// (default 1, clamped to [1, 64]); operators set it to the node count of
// the box. With the default, no threads are spawned at all.

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <thread>
#include <vector>

namespace dlb::core::numa {

/// Destructive-interference granularity: slab sections are padded to this
/// so adjacent sections never share a cache line.
inline constexpr std::size_t kCacheLine = 64;

/// First-touch granularity. Slabs are page-aligned so shard boundaries can
/// fall exactly on page boundaries.
inline constexpr std::size_t kPageSize = 4096;

[[nodiscard]] inline constexpr std::size_t align_up(
    std::size_t bytes, std::size_t align) noexcept {
  return (bytes + align - 1) / align * align;
}

/// Slabs of at least this size are mapped straight from the kernel
/// instead of carved from the malloc heap. A page-aligned heap block is
/// cut from a larger free chunk; small allocations that later land in the
/// cut-off fragments pin the block's hole, so a loop that rebuilds a large
/// schedule can grow the heap by one slab per iteration. A mapping goes
/// back to the kernel when freed, so repeated rebuilds keep a flat
/// footprint.
inline constexpr std::size_t kMapThreshold = 128 * 1024;

struct SlabDeleter {
  std::size_t bytes = 0;
  void operator()(std::byte* p) const noexcept {
    if (bytes >= kMapThreshold) {
      ::munmap(p, bytes);
    } else {
      ::operator delete[](p, std::align_val_t{kPageSize});
    }
  }
};

/// Page-aligned raw storage; ownership only, contents uninitialized until
/// first_touch().
using Slab = std::unique_ptr<std::byte[], SlabDeleter>;

[[nodiscard]] inline Slab alloc_slab(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  if (bytes < kMapThreshold) {
    return Slab(new (std::align_val_t{kPageSize}) std::byte[bytes]);
  }
  void* data = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) throw std::bad_alloc();
  return Slab(static_cast<std::byte*>(data), SlabDeleter{bytes});
}

/// Number of first-touch shards: DLB_NUMA_SHARDS clamped to [1, 64],
/// default 1. Read once per process.
[[nodiscard]] inline std::size_t shard_count() noexcept {
  static const std::size_t value = [] {
    const char* env = std::getenv("DLB_NUMA_SHARDS");
    if (env == nullptr || *env == '\0') return std::size_t{1};
    const long parsed = std::strtol(env, nullptr, 10);
    return static_cast<std::size_t>(std::clamp(parsed, 1L, 64L));
  }();
  return value;
}

/// Zero-fills [data, data + bytes) from `shards` threads, each owning a
/// contiguous page-aligned range, so the kernel spreads the physical pages
/// across the nodes those threads run on. shards == 1 degenerates to a
/// plain memset on the calling thread. Call once, before any reader.
inline void first_touch(std::byte* data, std::size_t bytes,
                        std::size_t shards) {
  if (data == nullptr || bytes == 0) return;
  shards = std::max<std::size_t>(shards, 1);
  if (shards == 1) {
    std::memset(data, 0, bytes);
    return;
  }
  const std::size_t pages = (bytes + kPageSize - 1) / kPageSize;
  const std::size_t pages_per_shard = (pages + shards - 1) / shards;
  std::vector<std::thread> workers;
  workers.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t begin =
        std::min(bytes, s * pages_per_shard * kPageSize);
    const std::size_t end =
        std::min(bytes, (s + 1) * pages_per_shard * kPageSize);
    if (begin >= end) break;
    workers.emplace_back(
        [data, begin, end] { std::memset(data + begin, 0, end - begin); });
  }
  for (std::thread& w : workers) w.join();
}

}  // namespace dlb::core::numa
