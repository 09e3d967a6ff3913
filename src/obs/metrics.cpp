#include "obs/metrics.hpp"

#include <cmath>

namespace dlb::obs {

void Histogram::observe(double v) noexcept {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> needs C++20 library support everywhere we
  // build, so accumulate with an explicit CAS loop instead.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  std::array<std::uint64_t, kNumBuckets> counts;
  for (int k = 0; k < kNumBuckets; ++k) {
    counts[k] = buckets_[k].load(std::memory_order_relaxed);
  }
  Snapshot snap = snapshot_of(counts, sum());
  snap.count = count();
  return snap;
}

Histogram::Snapshot Histogram::snapshot_of(
    const std::array<std::uint64_t, kNumBuckets>& counts, double sum) {
  Snapshot snap;
  snap.sum = sum;
  for (int k = 0; k < kNumBuckets; ++k) {
    if (counts[k] == 0) continue;
    snap.count += counts[k];
    snap.buckets.emplace_back(std::ldexp(1.0, k + kMinExp), counts[k]);
  }
  return snap;
}

double Histogram::Snapshot::quantile_bound(double q) const noexcept {
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  double seen = 0.0;
  for (const auto& [bound, n] : buckets) {
    seen += static_cast<double>(n);
    if (seen >= target) return bound;
  }
  return buckets.empty() ? 0.0 : buckets.back().first;
}

namespace {

template <typename Map>
auto& find_or_create(Map& map, std::string_view name, std::mutex& mutex) {
  std::lock_guard lock(mutex);
  const auto it = map.find(name);
  if (it != map.end()) return *it->second;
  using Handle = typename Map::mapped_type::element_type;
  return *map.emplace(std::string(name), std::make_unique<Handle>())
              .first->second;
}

}  // namespace

Counter& Metrics::counter(std::string_view name) {
  return find_or_create(counters_, name, mutex_);
}

Gauge& Metrics::gauge(std::string_view name) {
  return find_or_create(gauges_, name, mutex_);
}

Histogram& Metrics::histogram(std::string_view name) {
  return find_or_create(histograms_, name, mutex_);
}

std::vector<std::pair<std::string, std::uint64_t>> Metrics::counter_values()
    const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> values;
  values.reserve(counters_.size());
  for (const auto& [name, handle] : counters_) {
    values.emplace_back(name, handle->value());
  }
  return values;
}

stats::Json Metrics::snapshot() const {
  std::lock_guard lock(mutex_);
  stats::Json doc = stats::Json::object();

  stats::Json counters = stats::Json::object();
  for (const auto& [name, handle] : counters_) {
    counters[name] = handle->value();
  }
  doc["counters"] = std::move(counters);

  stats::Json gauges = stats::Json::object();
  for (const auto& [name, handle] : gauges_) {
    gauges[name] = handle->value();
  }
  doc["gauges"] = std::move(gauges);

  stats::Json histograms = stats::Json::object();
  for (const auto& [name, handle] : histograms_) {
    const Histogram::Snapshot snap = handle->snapshot();
    stats::Json entry = stats::Json::object();
    entry["count"] = snap.count;
    entry["sum"] = snap.sum;
    entry["p50_bound"] = snap.quantile_bound(0.5);
    entry["p95_bound"] = snap.quantile_bound(0.95);
    entry["p99_bound"] = snap.quantile_bound(0.99);
    stats::Json buckets = stats::Json::array();
    for (const auto& [bound, n] : snap.buckets) {
      stats::Json bucket = stats::Json::object();
      bucket["le"] = bound;
      bucket["count"] = n;
      buckets.push_back(std::move(bucket));
    }
    entry["buckets"] = std::move(buckets);
    histograms[name] = std::move(entry);
  }
  doc["histograms"] = std::move(histograms);
  return doc;
}

}  // namespace dlb::obs
