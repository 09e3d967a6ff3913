#include "core/instance_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "core/cost_model.hpp"
#include "core/instance_io.hpp"

namespace dlb::core {

namespace {

// ----- on-disk layout -----

constexpr std::size_t kHeaderBytes = 4096;  // one page
constexpr std::size_t kSectionAlign = 64;   // cache line

constexpr std::uint32_t kFlagTypes = 1u << 0;
constexpr std::uint32_t kFlagCostModel = 1u << 1;
constexpr std::uint32_t kFlagAssignment = 1u << 2;
constexpr std::uint32_t kKnownFlags =
    kFlagTypes | kFlagCostModel | kFlagAssignment;

struct DlbiHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t flags;
  std::uint64_t num_machines;
  std::uint64_t num_groups;
  std::uint64_t num_jobs;
  std::uint64_t num_job_types;
  double max_cost;      // cache: skips the O(groups * jobs) scan on open
  std::uint32_t unit_scales;
  std::uint32_t reserved;
  std::uint64_t off_group_of;    // u32[num_machines]
  std::uint64_t off_scales;      // f64[num_machines]
  std::uint64_t off_types;       // u32[num_jobs], 0 unless kFlagTypes
  std::uint64_t off_costmodel;   // DlbiDist[num_jobs], 0 unless kFlagCostModel
  std::uint64_t off_costs;       // f64[num_groups * num_jobs], row-major
  std::uint64_t off_assignment;  // u32[num_jobs], 0 unless kFlagAssignment
  std::uint64_t file_size;
};
static_assert(sizeof(DlbiHeader) == 120, "on-disk header layout drifted");

/// One cost-model distribution, bit-exact against cost::Dist.
struct DlbiDist {
  std::uint32_t kind;
  std::uint32_t reserved;
  double value;
  double sigma;
  double alpha;
  double lo;
  double hi;
};
static_assert(sizeof(DlbiDist) == 48, "on-disk dist layout drifted");

[[nodiscard]] std::size_t align_up(std::size_t v) noexcept {
  return (v + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("instance_store: " + message);
}

/// Escapes leading file bytes for an unknown-format error message.
[[nodiscard]] std::string printable_magic(std::string_view bytes) {
  std::string out;
  for (char c : bytes) {
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(c);
    } else {
      static const char* hex = "0123456789abcdef";
      out += "\\x";
      out.push_back(hex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
      out.push_back(hex[static_cast<unsigned char>(c) & 0xf]);
    }
  }
  return out;
}

void write_bytes(std::ofstream& out, const void* data, std::size_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
}

/// Pads the stream with zero bytes from `at` to `target`; returns `target`.
std::size_t pad_to(std::ofstream& out, std::size_t at, std::size_t target) {
  static constexpr char zeros[kSectionAlign] = {};
  while (at < target) {
    const std::size_t chunk = std::min(target - at, sizeof(zeros));
    write_bytes(out, zeros, chunk);
    at += chunk;
  }
  return at;
}

/// Streams `count` elements produced by `fn(index)` in bounded chunks, so
/// writing a 100M-job section never materializes a second full-size array.
template <typename T, typename Fn>
void write_elements(std::ofstream& out, std::size_t count, Fn&& fn) {
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::vector<T> buffer(std::min(count, kChunk));
  std::size_t done = 0;
  while (done < count) {
    const std::size_t batch = std::min(count - done, kChunk);
    for (std::size_t k = 0; k < batch; ++k) buffer[k] = fn(done + k);
    write_bytes(out, buffer.data(), batch * sizeof(T));
    done += batch;
  }
}

[[nodiscard]] const void* section(const std::byte* base, std::uint64_t off) {
  return base + off;
}

/// Fails unless a section of `factors` multiplied bytes (element count(s)
/// times element size) fits in the file at `off`. The product and the end
/// offset are overflow-checked, so a hostile header cannot wrap them
/// into range.
void check_section(const DlbiHeader& header, std::uint64_t off,
                   std::initializer_list<std::uint64_t> factors,
                   const std::string& name) {
  std::uint64_t bytes = 1;
  bool wrapped = false;
  for (const std::uint64_t factor : factors) {
    wrapped = wrapped || __builtin_mul_overflow(bytes, factor, &bytes);
  }
  if (wrapped || off == 0 || off % kSectionAlign != 0 || off < kHeaderBytes ||
      off > header.file_size || bytes > header.file_size - off) {
    fail("corrupt header: section '" + name + "' out of bounds");
  }
}

}  // namespace

struct InstanceStore::Mapping {
  int fd = -1;
  void* data = MAP_FAILED;
  std::size_t size = 0;

  Mapping() = default;
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() {
    if (data != MAP_FAILED) ::munmap(data, size);
    if (fd >= 0) ::close(fd);
  }
};

void save_dlbi(const Instance& instance, const std::string& path,
               const Assignment* initial) {
  const std::size_t m = instance.num_machines();
  const std::size_t g = instance.num_groups();
  const std::size_t n = instance.num_jobs();
  if (initial != nullptr && initial->num_jobs() != n) {
    fail("save_dlbi: assignment has " + std::to_string(initial->num_jobs()) +
         " jobs, instance has " + std::to_string(n));
  }

  DlbiHeader header{};
  std::memcpy(header.magic, kDlbiMagic.data(), kDlbiMagic.size());
  header.version = kDlbiVersion;
  header.num_machines = m;
  header.num_groups = g;
  header.num_jobs = n;
  header.num_job_types = instance.num_job_types();
  header.max_cost = instance.max_cost();
  header.unit_scales = instance.unit_scales() ? 1 : 0;

  std::size_t off = kHeaderBytes;
  header.off_group_of = off;
  off = align_up(off + m * sizeof(std::uint32_t));
  header.off_scales = off;
  off = align_up(off + m * sizeof(double));
  if (instance.has_job_types()) {
    header.flags |= kFlagTypes;
    header.off_types = off;
    off = align_up(off + n * sizeof(std::uint32_t));
  }
  if (instance.has_cost_model()) {
    header.flags |= kFlagCostModel;
    header.off_costmodel = off;
    off = align_up(off + n * sizeof(DlbiDist));
  }
  header.off_costs = off;
  off = align_up(off + g * n * sizeof(double));
  if (initial != nullptr) {
    header.flags |= kFlagAssignment;
    header.off_assignment = off;
    off = align_up(off + n * sizeof(std::uint32_t));
  }
  header.file_size = off;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail("cannot open '" + path + "' for writing");

  write_bytes(out, &header, sizeof(header));
  std::size_t at = pad_to(out, sizeof(header), header.off_group_of);
  write_elements<std::uint32_t>(
      out, m, [&](std::size_t i) {
        return instance.group_of(static_cast<MachineId>(i));
      });
  at = pad_to(out, at + m * sizeof(std::uint32_t), header.off_scales);
  write_elements<double>(out, m, [&](std::size_t i) {
    return instance.scale(static_cast<MachineId>(i));
  });
  at += m * sizeof(double);
  if (instance.has_job_types()) {
    at = pad_to(out, at, header.off_types);
    write_elements<std::uint32_t>(out, n, [&](std::size_t j) {
      return instance.job_type(static_cast<JobId>(j));
    });
    at += n * sizeof(std::uint32_t);
  }
  if (instance.has_cost_model()) {
    at = pad_to(out, at, header.off_costmodel);
    write_elements<DlbiDist>(out, n, [&](std::size_t j) {
      const cost::Dist& d = instance.cost_model().dist(static_cast<JobId>(j));
      return DlbiDist{static_cast<std::uint32_t>(d.kind), 0,
                      d.value,   d.sigma, d.alpha, d.lo, d.hi};
    });
    at += n * sizeof(DlbiDist);
  }
  at = pad_to(out, at, header.off_costs);
  for (GroupId row = 0; row < g; ++row) {
    const auto span = instance.group_row(row);
    write_bytes(out, span.data(), span.size() * sizeof(double));
  }
  at += g * n * sizeof(double);
  if (initial != nullptr) {
    at = pad_to(out, at, header.off_assignment);
    write_bytes(out, initial->raw().data(), n * sizeof(std::uint32_t));
    at += n * sizeof(std::uint32_t);
  }
  pad_to(out, at, header.file_size);

  out.flush();
  if (!out) fail("write failed for '" + path + "'");
}

void save_instance_auto(const Instance& instance, const std::string& path) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".dlbi") == 0) {
    save_dlbi(instance, path);
  } else {
    io::save_instance_file(instance, path);
  }
}

// Defined here, where Mapping is complete.
InstanceStore::InstanceStore(InstanceStore&&) noexcept = default;
InstanceStore& InstanceStore::operator=(InstanceStore&&) noexcept = default;
InstanceStore::~InstanceStore() = default;

InstanceStore InstanceStore::from_instance(Instance instance) {
  InstanceStore store;
  store.kind_ = StorageKind::kHeap;
  store.instance_.emplace(std::move(instance));
  return store;
}

InstanceStore InstanceStore::open(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) fail("cannot open '" + path + "'");
  char head[16] = {};
  probe.read(head, sizeof(head));
  const std::string_view leading(head,
                                 static_cast<std::size_t>(probe.gcount()));
  probe.close();
  if (leading.substr(0, kDlbiMagic.size()) == kDlbiMagic) {
    return open_mapped(path);
  }
  if (leading.substr(0, kTextMagic.size()) == kTextMagic) {
    InstanceStore store = from_instance(io::load_instance_file(path));
    store.path_ = path;
    return store;
  }
  fail("'" + path + "': unrecognized instance format (leading bytes \"" +
       printable_magic(leading) + "\"); valid formats: binary \"" +
       std::string(kDlbiMagic) + "\" (.dlbi) or text \"" +
       std::string(kTextMagic) + " v1\" (.inst)");
}

InstanceStore InstanceStore::open_mapped(const std::string& path) {
  auto mapping = std::make_unique<Mapping>();
  mapping->fd = ::open(path.c_str(), O_RDONLY);
  if (mapping->fd < 0) fail("cannot open '" + path + "'");
  struct stat st{};
  if (::fstat(mapping->fd, &st) != 0) fail("cannot stat '" + path + "'");
  mapping->size = static_cast<std::size_t>(st.st_size);
  if (mapping->size < kHeaderBytes) {
    fail("'" + path + "': too small for a .dlbi header (" +
         std::to_string(mapping->size) + " bytes)");
  }
  mapping->data =
      ::mmap(nullptr, mapping->size, PROT_READ, MAP_PRIVATE, mapping->fd, 0);
  if (mapping->data == MAP_FAILED) fail("mmap failed for '" + path + "'");

  const auto* base = static_cast<const std::byte*>(mapping->data);
  DlbiHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::string_view(header.magic, kDlbiMagic.size()) != kDlbiMagic) {
    fail("'" + path + "': bad magic \"" +
         printable_magic({header.magic, sizeof(header.magic)}) +
         "\" (expected \"" + std::string(kDlbiMagic) + "\")");
  }
  if (header.version != kDlbiVersion) {
    fail("'" + path + "': unsupported .dlbi version " +
         std::to_string(header.version) + " (supported: " +
         std::to_string(kDlbiVersion) + ")");
  }
  if ((header.flags & ~kKnownFlags) != 0) {
    fail("'" + path + "': unknown flag bits in header");
  }
  if (header.file_size != mapping->size) {
    fail("'" + path + "': header claims " + std::to_string(header.file_size) +
         " bytes, file has " + std::to_string(mapping->size));
  }
  const std::size_t m = header.num_machines;
  const std::size_t g = header.num_groups;
  const std::size_t n = header.num_jobs;
  if (m == 0 || g == 0) {
    fail("'" + path + "': need at least one machine and one group");
  }
  check_section(header, header.off_group_of, {m, sizeof(std::uint32_t)},
                "group_of");
  check_section(header, header.off_scales, {m, sizeof(double)}, "scales");
  check_section(header, header.off_costs, {g, n, sizeof(double)}, "costs");
  const JobTypeId* types = nullptr;
  if ((header.flags & kFlagTypes) != 0) {
    check_section(header, header.off_types, {n, sizeof(std::uint32_t)},
                  "types");
    types = static_cast<const JobTypeId*>(section(base, header.off_types));
  }

  InstanceStore store;
  store.kind_ = StorageKind::kMapped;
  store.path_ = path;
  store.instance_.emplace(Instance(
      Instance::Borrowed{},
      static_cast<const Cost*>(section(base, header.off_costs)),
      static_cast<const GroupId*>(section(base, header.off_group_of)),
      static_cast<const double*>(section(base, header.off_scales)), types, m,
      g, n, header.num_job_types, header.max_cost, header.unit_scales != 0));

  if ((header.flags & kFlagCostModel) != 0) {
    check_section(header, header.off_costmodel, {n, sizeof(DlbiDist)},
                  "costmodel");
    const auto* dists =
        static_cast<const DlbiDist*>(section(base, header.off_costmodel));
    std::vector<cost::Dist> parsed(n);
    for (std::size_t j = 0; j < n; ++j) {
      if (dists[j].kind > static_cast<std::uint32_t>(cost::DistKind::kPareto)) {
        fail("'" + path + "': unknown cost-model kind " +
             std::to_string(dists[j].kind) + " for job " + std::to_string(j));
      }
      parsed[j] = cost::Dist{static_cast<cost::DistKind>(dists[j].kind),
                             dists[j].value, dists[j].sigma, dists[j].alpha,
                             dists[j].lo,    dists[j].hi};
    }
    store.instance_->set_cost_model(cost::CostModel(std::move(parsed)));
  }
  if ((header.flags & kFlagAssignment) != 0) {
    check_section(header, header.off_assignment, {n, sizeof(std::uint32_t)},
                  "assignment");
    store.initial_ptr_ =
        static_cast<const std::uint32_t*>(section(base, header.off_assignment));
  }
  store.map_ = std::move(mapping);
  return store;
}

std::size_t InstanceStore::mapped_bytes() const noexcept {
  return map_ ? map_->size : 0;
}

bool InstanceStore::has_initial_assignment() const noexcept {
  return initial_ptr_ != nullptr;
}

Assignment InstanceStore::initial_assignment() const {
  if (initial_ptr_ == nullptr) {
    fail("'" + path_ + "': no initial assignment section");
  }
  const std::size_t n = instance_->num_jobs();
  const std::size_t m = instance_->num_machines();
  std::vector<MachineId> machine_of(initial_ptr_, initial_ptr_ + n);
  for (MachineId i : machine_of) {
    if (i != kUnassigned && i >= m) {
      fail("'" + path_ + "': assignment references unknown machine " +
           std::to_string(i));
    }
  }
  return Assignment(std::move(machine_of));
}

InstanceStore load_instance(const std::string& path) {
  return InstanceStore::open(path);
}

}  // namespace dlb::core
