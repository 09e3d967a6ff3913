#pragma once

// InstanceStore: the one storage seam between instances on disk and
// instances in memory. Every tool (dlbsim, dlb_bench, dlb_check, dlbd)
// loads through core::load_instance(), which auto-detects the format and
// returns a store; the store owns the backing bytes and hands out the
// `Instance` the engines consume.
//
// Two backings:
//   * heap   — `from_instance` / a text `.inst` file parsed by io::; the
//     store owns a regular Instance.
//   * mapped — a binary `.dlbi` file mmap'd read-only; the Instance is a
//     *borrowed view* whose flat cost/group/scale arrays point straight
//     into the mapping. Opening is O(machines): the O(groups * jobs) cost
//     matrix is never copied or scanned, because the versioned header
//     carries the max_cost cache that would otherwise require the scan
//     (the O(machines) sections are validated eagerly; docs/storage.md).
//     This is what lets a million-machine / hundred-million-job instance
//     open in milliseconds and survive restarts.
//
// Ownership / view rules (see docs/storage.md):
//   * instance() views are valid only while the store is alive;
//   * copying a borrowed Instance yields another borrowed view — it does
//     NOT detach from the mapping;
//   * moving the store keeps all views valid (the mapping address is
//     stable); the store itself is move-only;
//   * mutable_instance() exists for in-memory attachments (job types,
//     cost models) — structural arrays stay read-only either way.
//
// The `.dlbi` format (native-endian, little-endian in practice):
//
//   [0, 4096)  DlbiHeader — magic "DLBINST1", version, flags, shape
//              (u64 machines/groups/jobs), precomputed caches, and the
//              64-byte-aligned section offsets below.
//   group_of   u32[machines]
//   scales     f64[machines]
//   types      u32[jobs]                  (flag bit 0)
//   costmodel  DlbiDist[jobs]             (flag bit 1; one POD per job:
//                                          kind + value/sigma/alpha/lo/hi)
//   costs      f64[groups * jobs]         row-major, row = group
//   assignment u32[jobs]                  (flag bit 2; kUnassigned = "-")
//
// Determinism invariant: a run on a mapped store is byte-identical
// (schedule fingerprint, RunReport JSON, trace bytes) to the same run on
// the heap-backed instance at any thread count — the writer stores the
// exact IEEE-754 bits the heap instance holds, and the reader hands them
// back untouched.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/assignment.hpp"
#include "core/instance.hpp"

namespace dlb::core {

/// Leading bytes of a binary `.dlbi` file.
inline constexpr std::string_view kDlbiMagic = "DLBINST1";
/// Leading bytes of a text instance file (io::save_instance).
inline constexpr std::string_view kTextMagic = "dlb-instance";
inline constexpr std::uint32_t kDlbiVersion = 1;

enum class StorageKind : std::uint8_t {
  kHeap,    ///< owns a regular Instance
  kMapped,  ///< mmap'd `.dlbi`; instance() is a borrowed view
};

class InstanceStore {
 public:
  /// Wraps an in-memory instance (no file backing).
  [[nodiscard]] static InstanceStore from_instance(Instance instance);

  /// Opens `path`, auto-detecting text vs binary by leading magic.
  /// Unknown formats throw std::runtime_error naming the detected magic
  /// and the valid set. Prefer the free function core::load_instance().
  [[nodiscard]] static InstanceStore open(const std::string& path);

  /// Opens a binary `.dlbi` by mmap (throws on bad magic/version/shape;
  /// InstanceFieldError names a hostile group_of, scales or unit_scales).
  [[nodiscard]] static InstanceStore open_mapped(const std::string& path);

  InstanceStore(InstanceStore&&) noexcept;
  InstanceStore& operator=(InstanceStore&&) noexcept;
  InstanceStore(const InstanceStore&) = delete;
  InstanceStore& operator=(const InstanceStore&) = delete;
  ~InstanceStore();

  /// The instance view. Valid only while this store is alive.
  [[nodiscard]] const Instance& instance() const noexcept { return *instance_; }
  /// Mutable access for in-memory attachments (set_cost_model,
  /// set_job_types, infer_job_types). The structural arrays of a mapped
  /// store remain read-only; attachments live on the view object.
  [[nodiscard]] Instance& mutable_instance() noexcept { return *instance_; }

  [[nodiscard]] StorageKind kind() const noexcept { return kind_; }
  /// Source file path; empty for from_instance stores.
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Bytes mmap'd (0 for heap stores).
  [[nodiscard]] std::size_t mapped_bytes() const noexcept;

  /// True when the file carried an initial assignment section.
  [[nodiscard]] bool has_initial_assignment() const noexcept;
  /// Copy of the stored initial assignment (throws std::runtime_error
  /// when has_initial_assignment() is false). A copy, not a view: runs
  /// mutate their assignment while the mapping stays read-only.
  [[nodiscard]] Assignment initial_assignment() const;

 private:
  struct Mapping;  // fd + mmap region, RAII

  InstanceStore() = default;

  StorageKind kind_ = StorageKind::kHeap;
  std::string path_;
  std::unique_ptr<Mapping> map_;
  std::optional<Instance> instance_;
  /// Mapped stores: pointer into the mapping's assignment section (null
  /// when absent). Heap stores never carry one.
  const std::uint32_t* initial_ptr_ = nullptr;
};

/// Writes `instance` (and optionally an initial assignment) as a binary
/// `.dlbi` file. Lossless against the text format: every cost, scale,
/// type, and cost-model distribution round-trips bit-exactly.
void save_dlbi(const Instance& instance, const std::string& path,
               const Assignment* initial = nullptr);

/// Writes `instance` choosing the format by extension: `.dlbi` => binary,
/// anything else => text (io::save_instance_file).
void save_instance_auto(const Instance& instance, const std::string& path);

/// The unified loading entry point every tool uses: auto-detects text
/// `.inst` vs binary `.dlbi` by content (not extension) and returns the
/// store. Unknown formats throw std::runtime_error naming the detected
/// leading bytes and the valid magics.
[[nodiscard]] InstanceStore load_instance(const std::string& path);

}  // namespace dlb::core
