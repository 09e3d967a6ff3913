#pragma once

// Slab helpers for the core SoA containers (LoadTable, RatioRank): one
// page-aligned allocation carved into cache-line-padded flat arrays. Slabs
// of kMapThreshold bytes and more are mapped straight from the kernel.
// Contents start uninitialized; LoadTable zero-fills its slab with one
// memset on the constructing thread, so Linux's first-touch policy places
// every page on that thread's NUMA node.

#include <sys/mman.h>

#include <cstddef>
#include <memory>
#include <new>

namespace dlb::core::numa {

/// Destructive-interference granularity: slab sections are padded to this
/// so adjacent sections never share a cache line.
inline constexpr std::size_t kCacheLine = 64;

/// Slab alignment.
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

/// Page-aligned raw storage; ownership only, contents uninitialized.
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

}  // namespace dlb::core::numa
