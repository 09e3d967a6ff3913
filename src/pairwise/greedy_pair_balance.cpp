#include "pairwise/greedy_pair_balance.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

namespace dlb::pairwise {

namespace {

/// Pools of at least this many jobs radix-sort their rank words; below it
/// the bucket sweeps of a radix pass cost more than std::sort
/// (closed_seq_churn's pools hold about 16 jobs, closed_parallel's 400).
constexpr std::size_t kRadixMinPool = 128;
constexpr unsigned kMaxDigitBits = 11;

/// Puts each run of words with one key (exact duplicates) in ascending
/// job id, in words whose keys already ascend.
void sort_equal_keys(std::vector<std::uint64_t>& words) {
  const std::size_t k = words.size();
  for (std::size_t p = 0; p < k;) {
    std::size_t q = p + 1;
    while (q < k && (words[q] >> 32) == (words[p] >> 32)) ++q;
    if (q - p > 1) std::sort(words.begin() + p, words.begin() + q);
    p = q;
  }
}

/// Sorts packed (key << 32 | job) words, keys at most `max_key`, ascending.
void sort_rank_words(std::uint32_t max_key, PairScratch& s) {
  std::vector<std::uint64_t>& words = s.rank_keys;
  const std::size_t k = words.size();
  const unsigned bits = static_cast<unsigned>(std::bit_width(max_key));
  if (k < kRadixMinPool || bits == 0) {
    std::sort(words.begin(), words.end());
    return;
  }
  // LSD radix over the key bits only, in equal digits of at most 11 bits.
  const unsigned passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned width = (bits + passes - 1) / passes;
  const std::size_t buckets = std::size_t{1} << width;
  const auto digit = [&](std::uint64_t word, unsigned d) {
    return (word >> (32 + d * width)) & (buckets - 1);
  };
  s.counts.assign(passes * buckets, 0);
  for (const std::uint64_t word : words) {
    for (unsigned d = 0; d < passes; ++d) {
      ++s.counts[d * buckets + digit(word, d)];
    }
  }
  s.rank_tmp.resize(k);
  for (unsigned d = 0; d < passes; ++d) {
    std::uint32_t* count = s.counts.data() + d * buckets;
    if (std::find(count, count + buckets, k) != count + buckets) continue;
    std::uint32_t at = 0;
    for (std::size_t v = 0; v < buckets; ++v) at += std::exchange(count[v], at);
    for (const std::uint64_t word : words) {
      s.rank_tmp[count[digit(word, d)]++] = word;
    }
    words.swap(s.rank_tmp);
  }
  // The passes are stable, so words of one key (exact duplicates) are still
  // in gather order.
  sort_equal_keys(words);
}

/// The packed words of two rows into s.rank_keys, ascending: each row is
/// walked backward when its flag says so, forward otherwise, and must then
/// ascend by key. The walks are merged and each run of one key is put in
/// id order, so the result equals sort_rank_words over the same words.
template <class Key>
void merge_rank_words(std::span<const JobId> row_a, bool back_a,
                      std::span<const JobId> row_b, bool back_b, Key key,
                      PairScratch& s) {
  const std::size_t ka = row_a.size();
  const std::size_t kb = row_b.size();
  std::vector<std::uint64_t>& in = s.rank_tmp;
  in.resize(ka + kb);
  const auto gather = [&](std::span<const JobId> row, bool back,
                          std::uint64_t* out) {
    const std::size_t n = row.size();
    for (std::size_t p = 0; p < n; ++p) {
      const JobId j = row[back ? n - 1 - p : p];
      out[p] = std::uint64_t{key(j)} << 32 | j;
    }
  };
  gather(row_a, back_a, in.data());
  gather(row_b, back_b, in.data() + ka);
  std::vector<std::uint64_t>& words = s.rank_keys;
  words.resize(ka + kb);
  // Both halves ascend by key, so merging by word keeps the keys
  // ascending; only runs of one key can come out of id order.
  std::merge(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(ka),
             in.begin() + static_cast<std::ptrdiff_t>(ka), in.end(),
             words.begin());
  sort_equal_keys(words);
}

}  // namespace

void sort_by_group_ratio(const Instance& instance, GroupId num, GroupId den,
                         std::vector<JobId>& pool) {
  std::sort(pool.begin(), pool.end(), [&](JobId x, JobId y) {
    const Cost lhs = instance.group_cost(num, x) * instance.group_cost(den, y);
    const Cost rhs = instance.group_cost(num, y) * instance.group_cost(den, x);
    if (lhs != rhs) return lhs < rhs;
    return x < y;
  });
}

void sort_by_group_ratio_flat(const Instance& instance, GroupId num,
                              GroupId den, std::vector<JobId>& pool,
                              PairScratch& scratch) {
  const std::size_t k = pool.size();
  const std::span<const Cost> row_num = instance.group_row(num);
  const std::span<const Cost> row_den = instance.group_row(den);
  scratch.key_num.resize(k);
  scratch.key_den.resize(k);
  for (std::size_t p = 0; p < k; ++p) {
    scratch.key_num[p] = row_num[pool[p]];
    scratch.key_den[p] = row_den[pool[p]];
  }
  scratch.order.resize(k);
  std::iota(scratch.order.begin(), scratch.order.end(), 0u);
  // Sorting positions with elementwise-equal keys runs the identical
  // comparison (and therefore swap) sequence as sorting the job ids
  // directly, so the permutation matches sort_by_group_ratio bitwise.
  std::sort(scratch.order.begin(), scratch.order.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              const Cost lhs = scratch.key_num[x] * scratch.key_den[y];
              const Cost rhs = scratch.key_num[y] * scratch.key_den[x];
              if (lhs != rhs) return lhs < rhs;
              return pool[x] < pool[y];
            });
  scratch.tmp.resize(k);
  for (std::size_t p = 0; p < k; ++p) scratch.tmp[p] = pool[scratch.order[p]];
  pool.assign(scratch.tmp.begin(), scratch.tmp.end());
}

void ratio_sorted_pool(const Schedule& schedule, MachineId a, MachineId b,
                       GroupId num, GroupId den, PairScratch& scratch) {
  const Instance& instance = schedule.decision_instance();
  const std::size_t k =
      schedule.jobs_on(a).size() + schedule.jobs_on(b).size();
  const RatioRank* rank = instance.num_groups() == 2
                              ? instance.ratio_rank(RatioRank::sort_work(k))
                              : nullptr;
  if (rank == nullptr) {
    pooled_jobs_into(schedule, a, b, scratch.pool);
    sort_by_group_ratio_flat(instance, num, den, scratch.pool, scratch);
    return;
  }
  // The (1, 0) order is the (0, 1) rank reversed; within a rank (exact
  // duplicates) the job id in the low word keeps ascending id.
  const std::span<const std::uint32_t> ranks = rank->ranks();
  const std::uint32_t max_rank = rank->max_rank();
  const bool reversed = num != 0;
  const auto key = [&](JobId j) {
    return reversed ? max_rank - ranks[j] : ranks[j];
  };
  std::vector<std::uint64_t>& words = scratch.rank_keys;
  if (schedule.row_in_order(a) && schedule.row_in_order(b)) {
    // Each row ascends in its own cluster's order, which is the (num, den)
    // order walked forward, or walked backward in the other cluster.
    merge_rank_words(schedule.jobs_on(a), instance.group_of(a) != num,
                     schedule.jobs_on(b), instance.group_of(b) != num, key,
                     scratch);
  } else {
    words.resize(k);
    std::uint64_t* out = words.data();
    for_each_pooled_job(schedule, a, b, [&](JobId j) {
      *out++ = std::uint64_t{key(j)} << 32 | j;
    });
    sort_rank_words(max_rank, scratch);
  }
  scratch.pool.resize(words.size());
  for (std::size_t p = 0; p < words.size(); ++p) {
    scratch.pool[p] = static_cast<JobId>(words[p]);
  }
}

bool GreedyPairBalanceKernel::balance(Schedule& schedule, MachineId a,
                                      MachineId b) const {
  const Instance& instance = schedule.decision_instance();
  if (instance.num_groups() != 2) {
    throw std::invalid_argument(
        "GreedyPairBalanceKernel: needs a two-cluster instance");
  }
  const GroupId own = instance.group_of(a);
  if (instance.group_of(b) != own) {
    throw std::invalid_argument(
        "GreedyPairBalanceKernel: machines must share a cluster");
  }
  const GroupId other = own == 0 ? 1 : 0;

  PairScratch& s = pair_scratch();
  ratio_sorted_pool(schedule, a, b, own, other, s);

  s.to_a.clear();
  s.to_b.clear();
  Cost load_a = 0.0;
  Cost load_b = 0.0;
  for (JobId j : s.pool) {
    // Identical machines within a cluster: same cost either way.
    const Cost c = instance.cost(a, j);
    if (load_a <= load_b) {
      s.to_a.push_back(j);
      load_a += c;
    } else {
      s.to_b.push_back(j);
      load_b += c;
    }
  }
  if (split_is_load_neutral(schedule, a, b, load_a, load_b)) return false;
  // Dealt in pool order, each side ascends in the pair's own cluster order.
  return schedule.write_split(a, s.to_a, b, s.to_b, /*in_order=*/true);
}

}  // namespace dlb::pairwise
