// InstanceStore and the `.dlbi` binary format: heap-vs-mapped equality of
// every Instance accessor, lossless round-trips (including job types, cost
// models, and initial assignments), the unified load_instance() format
// auto-detection with its diagnostic error message, and corruption
// rejection. The fuzz section drives every check:: regime through
// text -> binary -> mapped -> text and demands byte-equal text back — the
// strongest form of "nothing is lost or perturbed by the binary format".

#include "core/instance_store.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/case_gen.hpp"
#include "core/cost_model.hpp"
#include "core/generators.hpp"
#include "core/instance.hpp"
#include "core/instance_io.hpp"

namespace dlb::core {
namespace {

/// A unique temp path removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("dlb_test_store_" + std::to_string(::getpid()) + "_" + tag))
                .string();
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every observable quantity of the two instances, bit for bit. EXPECT_EQ
/// on doubles is exact equality — that is the point: the binary format
/// stores the IEEE-754 bits the heap instance holds.
void expect_bitwise_equal(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.num_machines(), b.num_machines());
  ASSERT_EQ(a.num_groups(), b.num_groups());
  ASSERT_EQ(a.num_jobs(), b.num_jobs());
  EXPECT_EQ(a.unit_scales(), b.unit_scales());
  EXPECT_EQ(a.max_cost(), b.max_cost());
  for (MachineId i = 0; i < a.num_machines(); ++i) {
    EXPECT_EQ(a.group_of(i), b.group_of(i)) << "machine " << i;
    EXPECT_EQ(a.scale(i), b.scale(i)) << "machine " << i;
  }
  for (GroupId g = 0; g < a.num_groups(); ++g) {
    for (JobId j = 0; j < a.num_jobs(); ++j) {
      EXPECT_EQ(a.group_cost(g, j), b.group_cost(g, j))
          << "group " << g << " job " << j;
    }
  }
  ASSERT_EQ(a.has_job_types(), b.has_job_types());
  if (a.has_job_types()) {
    ASSERT_EQ(a.num_job_types(), b.num_job_types());
    for (JobId j = 0; j < a.num_jobs(); ++j) {
      EXPECT_EQ(a.job_type(j), b.job_type(j)) << "job " << j;
    }
  }
  ASSERT_EQ(a.has_cost_model(), b.has_cost_model());
  if (a.has_cost_model()) {
    for (JobId j = 0; j < a.num_jobs(); ++j) {
      EXPECT_EQ(a.cost_model().dist(j), b.cost_model().dist(j))
          << "job " << j;
    }
  }
}

Instance sample_instance() {
  return gen::two_cluster_uniform(4, 3, 20, 1.0, 100.0, 7);
}

TEST(InstanceStore, FromInstanceIsHeapBacked) {
  const InstanceStore store = InstanceStore::from_instance(sample_instance());
  EXPECT_EQ(store.kind(), StorageKind::kHeap);
  EXPECT_TRUE(store.path().empty());
  EXPECT_EQ(store.mapped_bytes(), 0u);
  EXPECT_FALSE(store.has_initial_assignment());
  EXPECT_THROW((void)store.initial_assignment(), std::runtime_error);
  EXPECT_FALSE(store.instance().is_view());
}

TEST(InstanceStore, MappedStoreIsABorrowedViewWithEqualBits) {
  const Instance original = sample_instance();
  TempFile file("mapped.dlbi");
  save_dlbi(original, file.path());

  const InstanceStore store = InstanceStore::open_mapped(file.path());
  EXPECT_EQ(store.kind(), StorageKind::kMapped);
  EXPECT_EQ(store.path(), file.path());
  EXPECT_GT(store.mapped_bytes(), 0u);
  EXPECT_TRUE(store.instance().is_view());
  expect_bitwise_equal(original, store.instance());

  // A copy of a borrowed instance is another view, not a detach.
  const Instance copy = store.instance();
  EXPECT_TRUE(copy.is_view());
  expect_bitwise_equal(original, copy);
}

TEST(InstanceStore, MovingTheStoreKeepsViewsValid) {
  const Instance original = sample_instance();
  TempFile file("moved.dlbi");
  save_dlbi(original, file.path());

  InstanceStore store = InstanceStore::open_mapped(file.path());
  const Instance& view = store.instance();
  const InstanceStore moved = std::move(store);
  expect_bitwise_equal(original, view);  // mapping address is stable
  expect_bitwise_equal(original, moved.instance());
}

TEST(InstanceStore, AutoDetectionLoadsBothFormats) {
  const Instance original = sample_instance();
  TempFile text("auto.inst");
  TempFile binary("auto.dlbi");
  io::save_instance_file(original, text.path());
  save_dlbi(original, binary.path());

  const InstanceStore from_text = load_instance(text.path());
  EXPECT_EQ(from_text.kind(), StorageKind::kHeap);
  expect_bitwise_equal(original, from_text.instance());

  const InstanceStore from_binary = load_instance(binary.path());
  EXPECT_EQ(from_binary.kind(), StorageKind::kMapped);
  expect_bitwise_equal(original, from_binary.instance());
}

TEST(InstanceStore, SaveInstanceAutoPicksFormatByExtension) {
  const Instance original = sample_instance();
  TempFile binary("ext.dlbi");
  TempFile text("ext.inst");
  save_instance_auto(original, binary.path());
  save_instance_auto(original, text.path());
  EXPECT_EQ(load_instance(binary.path()).kind(), StorageKind::kMapped);
  EXPECT_EQ(load_instance(text.path()).kind(), StorageKind::kHeap);
}

TEST(InstanceStore, InitialAssignmentRoundTripsIncludingUnassigned) {
  const Instance original = sample_instance();
  Assignment initial = gen::random_assignment(original, 11);
  initial.unassign(3);

  TempFile file("assigned.dlbi");
  save_dlbi(original, file.path(), &initial);
  const InstanceStore store = InstanceStore::open_mapped(file.path());
  ASSERT_TRUE(store.has_initial_assignment());
  const Assignment loaded = store.initial_assignment();
  ASSERT_EQ(loaded.num_jobs(), initial.num_jobs());
  for (JobId j = 0; j < initial.num_jobs(); ++j) {
    EXPECT_EQ(loaded.machine_of(j), initial.machine_of(j)) << "job " << j;
  }
}

TEST(InstanceStore, UnknownFormatErrorNamesDetectedMagicAndValidSet) {
  TempFile file("garbage.xyz");
  {
    std::ofstream out(file.path(), std::ios::binary);
    out << "garbage-file\n1 2\xff";
  }
  try {
    (void)load_instance(file.path());
    FAIL() << "load_instance accepted a garbage file";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("garbage-file"), std::string::npos) << message;
    EXPECT_NE(message.find(std::string(kDlbiMagic)), std::string::npos)
        << message;
    EXPECT_NE(message.find(std::string(kTextMagic)), std::string::npos)
        << message;
  }
}

TEST(InstanceStore, OpenMappedRejectsTruncationVersionAndBadMagic) {
  const Instance original = sample_instance();
  TempFile file("corrupt.dlbi");
  save_dlbi(original, file.path());
  const std::string good = read_file(file.path());

  // Truncated: the header promises more bytes than the file holds.
  {
    std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
    out.write(good.data(), 256);
  }
  EXPECT_THROW((void)InstanceStore::open_mapped(file.path()),
               std::runtime_error);

  // Unsupported version (the u32 after the 8-byte magic).
  {
    std::string bad = good;
    bad[8] = '\x7f';
    std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  EXPECT_THROW((void)InstanceStore::open_mapped(file.path()),
               std::runtime_error);

  // Wrong magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  EXPECT_THROW((void)InstanceStore::open_mapped(file.path()),
               std::runtime_error);
}

// ----- hostile O(machines) content: typed errors naming the field -----
//
// Byte offsets inside the 4096-byte .dlbi header (see instance_store.hpp):
// the u32 unit_scales cache, then the u64 offsets of the group_of and
// scales sections.
constexpr std::size_t kUnitScalesAt = 56;
constexpr std::size_t kOffGroupOfAt = 64;
constexpr std::size_t kOffScalesAt = 72;

template <typename T>
T read_at(const std::string& bytes, std::size_t at) {
  T value;
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

template <typename T>
void write_at(std::string& bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

/// Writes `bytes` to `path`, opens it mapped, and expects an
/// InstanceFieldError naming `field`.
void expect_field_error(const std::string& path, const std::string& bytes,
                        const std::string& field) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)InstanceStore::open_mapped(path);
    FAIL() << "open_mapped accepted a hostile '" << field << "'";
  } catch (const InstanceFieldError& error) {
    EXPECT_EQ(error.field(), field) << error.what();
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << error.what();
  }
}

TEST(InstanceStore, OpenMappedRejectsHostileScalesWithTypedErrors) {
  const Instance original = sample_instance();  // unit scales
  ASSERT_TRUE(original.unit_scales());
  TempFile file("hostile_scales.dlbi");
  save_dlbi(original, file.path());
  const std::string good = read_file(file.path());
  const auto scales_at = read_at<std::uint64_t>(good, kOffScalesAt);
  const std::size_t machine2 = scales_at + 2 * sizeof(double);

  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), 0.0, -0.0, -1.5}) {
    std::string patched = good;
    write_at(patched, machine2, bad);
    expect_field_error(file.path(), patched, "scales");
  }

  // A valid non-unit scale under a header that still claims unit scales.
  std::string non_unit = good;
  write_at(non_unit, machine2, 2.0);
  expect_field_error(file.path(), non_unit, "unit_scales");

  // All scales are 1 but the header says otherwise.
  std::string header_lies = good;
  write_at<std::uint32_t>(header_lies, kUnitScalesAt, 0);
  expect_field_error(file.path(), header_lies, "unit_scales");

  // A header that agrees with a non-unit scale opens fine.
  write_at<std::uint32_t>(non_unit, kUnitScalesAt, 0);
  {
    std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
    out.write(non_unit.data(), static_cast<std::streamsize>(non_unit.size()));
  }
  const InstanceStore store = InstanceStore::open_mapped(file.path());
  EXPECT_FALSE(store.instance().unit_scales());
  EXPECT_EQ(store.instance().scale(2), 2.0);
}

TEST(InstanceStore, OpenMappedRejectsUnknownGroupWithTypedError) {
  TempFile file("hostile_group.dlbi");
  save_dlbi(sample_instance(), file.path());
  std::string patched = read_file(file.path());
  const auto group_of_at = read_at<std::uint64_t>(patched, kOffGroupOfAt);
  write_at<std::uint32_t>(patched, group_of_at + 3 * sizeof(std::uint32_t),
                          7);
  expect_field_error(file.path(), patched, "group_of");
}

TEST(InstanceStore, OpenMappedRejectsHostileJobTypesWithTypedErrors) {
  // The u64 num_job_types header field and the u64 offset of the types
  // section. A type id at or past the count would index past the typed
  // kernel's per-type counts and, with a cost-model section, past
  // set_cost_model's per-type representatives.
  constexpr std::size_t kNumJobTypesAt = 40;
  constexpr std::size_t kOffTypesAt = 80;
  for (const bool with_cost_model : {false, true}) {
    Instance typed = gen::typed_uniform(4, 20, 3, 1.0, 100.0, 7);
    if (with_cost_model) {
      typed.set_cost_model(cost::CostModel(std::vector<cost::Dist>(
          typed.num_jobs(), cost::parse_dist("lognormal:0.5"))));
    }
    SCOPED_TRACE(with_cost_model ? "with cost model" : "without cost model");
    TempFile file("hostile_types.dlbi");
    save_dlbi(typed, file.path());
    const std::string good = read_file(file.path());
    const auto num_types = read_at<std::uint64_t>(good, kNumJobTypesAt);
    const auto types_at = read_at<std::uint64_t>(good, kOffTypesAt);
    const std::size_t job5 = types_at + 5 * sizeof(std::uint32_t);

    for (const std::uint64_t bad : {num_types, std::uint64_t{1} << 30}) {
      std::string patched = good;
      write_at(patched, job5, static_cast<std::uint32_t>(bad));
      expect_field_error(file.path(), patched, "types");
    }
    // One more declared type than the section uses: ids are not dense.
    std::string sparse = good;
    write_at<std::uint64_t>(sparse, kNumJobTypesAt, num_types + 1);
    expect_field_error(file.path(), sparse, "types");
    // More types than jobs.
    std::string too_many = good;
    write_at<std::uint64_t>(too_many, kNumJobTypesAt, typed.num_jobs() + 1);
    expect_field_error(file.path(), too_many, "num_job_types");
  }
}

TEST(InstanceStore, OpenMappedRejectsSectionBoundsThatWrap) {
  // Header fields whose section end or size wraps past 2^64 into the file:
  // an offset 64 bytes short of 2^64 under a 128-byte scales section (16
  // machines) or a 320-byte costs section, and counts whose byte size is a
  // multiple of 2^64.
  constexpr std::size_t kNumMachinesAt = 16;
  constexpr std::size_t kNumJobsAt = 32;
  constexpr std::size_t kOffCostsAt = 96;
  constexpr std::uint64_t kWrapOffset = ~std::uint64_t{63};
  TempFile file("wrap.dlbi");
  save_dlbi(gen::two_cluster_uniform(8, 8, 20, 1.0, 100.0, 7), file.path());
  const std::string good = read_file(file.path());
  struct Case {
    std::size_t at;
    std::uint64_t value;
    std::string section;
  };
  for (const Case& c : {Case{kOffScalesAt, kWrapOffset, "scales"},
                        Case{kOffCostsAt, kWrapOffset, "costs"},
                        Case{kNumMachinesAt, std::uint64_t{1} << 62,
                             "group_of"},
                        Case{kNumJobsAt, std::uint64_t{1} << 61, "costs"}}) {
    std::string patched = good;
    write_at(patched, c.at, c.value);
    {
      std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
      out.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    }
    try {
      (void)InstanceStore::open_mapped(file.path());
      ADD_FAILURE() << "open_mapped accepted header field at " << c.at
                    << " = " << c.value;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what())
                    .find("section '" + c.section + "' out of bounds"),
                std::string::npos)
          << error.what();
    }
  }
}

// ----- fuzz: text -> binary -> mapped -> text over every regime -----
//
// For each check:: regime (including typed, stochastic, and degenerate
// shapes): the binary round-trip must reproduce every bit the text file
// holds, and re-serializing the *mapped view* as text must reproduce the
// original text bytes exactly.

class DlbiRoundTrip : public ::testing::TestWithParam<check::Regime> {};

TEST_P(DlbiRoundTrip, TextBinaryTextIsByteLossless) {
  for (std::uint64_t index = 0; index < 4; ++index) {
    const check::GeneratedCase c = check::make_case(2026, index, GetParam());

    TempFile text("fuzz.inst");
    TempFile binary("fuzz.dlbi");
    io::save_instance_file(c.instance, text.path());
    save_dlbi(c.instance, binary.path());

    const InstanceStore store = load_instance(binary.path());
    ASSERT_EQ(store.kind(), StorageKind::kMapped) << c.name;
    expect_bitwise_equal(c.instance, store.instance());

    TempFile again("fuzz2.inst");
    io::save_instance_file(store.instance(), again.path());
    EXPECT_EQ(read_file(text.path()), read_file(again.path())) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegimes, DlbiRoundTrip,
    ::testing::Values(
        check::Regime::kIdentical, check::Regime::kRelated,
        check::Regime::kTwoCluster, check::Regime::kMultiCluster,
        check::Regime::kUnrelated, check::Regime::kTyped,
        check::Regime::kSingleType, check::Regime::kExtremeRatio,
        check::Regime::kDegenerate, check::Regime::kStochasticNormal,
        check::Regime::kStochasticLognormal,
        check::Regime::kStochasticPareto),
    [](const ::testing::TestParamInfo<check::Regime>& param_info) {
      std::string name = check::regime_name(param_info.param);
      for (char& ch : name) {
        if (ch == '-' || ch == '/') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dlb::core
