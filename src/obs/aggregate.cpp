#include "obs/aggregate.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace dlb::obs {
namespace {

// Object iteration helper: Metrics::snapshot() sections are objects whose
// keys are already sorted (std::map in the registry), and stats::Json
// preserves insertion order, so walking entries() yields sorted names.
using Entries = std::vector<std::pair<std::string, const stats::Json*>>;

Entries entries_of(const stats::Json* section) {
  Entries out;
  if (section == nullptr || !section->is_object()) return out;
  for (const auto& [key, value] : section->as_object()) {
    out.emplace_back(key, &value);
  }
  return out;
}

struct MergedHistogram {
  std::map<double, std::uint64_t> buckets;  // bound -> count (non-cumulative)
  std::uint64_t count = 0;
  double sum = 0.0;
};

std::string sanitize_metric_name(std::string_view name) {
  std::string out = "dlb_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

stats::Json merge_metrics_snapshots(
    const std::vector<stats::Json>& snapshots) {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, MergedHistogram> histograms;

  for (const stats::Json& snap : snapshots) {
    for (const auto& [name, value] : entries_of(snap.find("counters"))) {
      counters[name] += value->as_number();
    }
    for (const auto& [name, value] : entries_of(snap.find("gauges"))) {
      const double v = value->as_number();
      const auto [it, fresh] = gauges.emplace(name, v);
      if (!fresh) it->second = std::max(it->second, v);
    }
    for (const auto& [name, entry] : entries_of(snap.find("histograms"))) {
      MergedHistogram& merged = histograms[name];
      if (const stats::Json* count = entry->find("count")) {
        merged.count += static_cast<std::uint64_t>(count->as_number());
      }
      if (const stats::Json* sum = entry->find("sum")) {
        merged.sum += sum->as_number();
      }
      if (const stats::Json* buckets = entry->find("buckets")) {
        for (const stats::Json& bucket : buckets->as_array()) {
          merged.buckets[bucket.find("le")->as_number()] +=
              static_cast<std::uint64_t>(
                  bucket.find("count")->as_number());
        }
      }
    }
  }

  stats::Json doc = stats::Json::object();
  doc["daemons"] = static_cast<double>(snapshots.size());

  stats::Json counters_out = stats::Json::object();
  for (const auto& [name, value] : counters) counters_out[name] = value;
  doc["counters"] = std::move(counters_out);

  stats::Json gauges_out = stats::Json::object();
  for (const auto& [name, value] : gauges) gauges_out[name] = value;
  doc["gauges"] = std::move(gauges_out);

  stats::Json histograms_out = stats::Json::object();
  for (const auto& [name, merged] : histograms) {
    // Rebuild a Histogram::Snapshot so quantile bounds come from the same
    // code path as a single-process export.
    Histogram::Snapshot snap;
    snap.count = merged.count;
    snap.sum = merged.sum;
    snap.buckets.assign(merged.buckets.begin(), merged.buckets.end());
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
    histograms_out[name] = std::move(entry);
  }
  doc["histograms"] = std::move(histograms_out);
  return doc;
}

bool metric_is_volatile(std::string_view name) noexcept {
  if (name.rfind("net.socket.", 0) == 0) return true;
  if (name == "daemon.uptime_seconds") return true;
  // Exact names: a suffix rule would also catch deterministic counters
  // such as parexchange.retries.
  static constexpr std::string_view kVolatileNames[] = {
      "dist.transport.retries", "dist.transport.duplicates",
      "dist.transport.transfers_sent", "dist.transport.frames_sent"};
  return std::ranges::find(kVolatileNames, name) != std::end(kVolatileNames);
}

stats::Json stable_cluster_view(const stats::Json& snapshot) {
  stats::Json doc = stats::Json::object();
  if (const stats::Json* daemons = snapshot.find("daemons")) {
    doc["daemons"] = *daemons;
  }
  stats::Json counters = stats::Json::object();
  for (const auto& [name, value] : entries_of(snapshot.find("counters"))) {
    if (!metric_is_volatile(name)) counters[name] = *value;
  }
  doc["counters"] = std::move(counters);
  return doc;
}

std::string prometheus_exposition(const stats::Json& snapshot) {
  std::string out;
  const auto number = [](double v) {
    return stats::Json::number_to_string(v);
  };
  for (const auto& [name, value] : entries_of(snapshot.find("counters"))) {
    const std::string metric = sanitize_metric_name(name);
    out += "# TYPE " + metric + " counter\n";
    out += metric + " " + number(value->as_number()) + "\n";
  }
  for (const auto& [name, value] : entries_of(snapshot.find("gauges"))) {
    const std::string metric = sanitize_metric_name(name);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + number(value->as_number()) + "\n";
  }
  for (const auto& [name, entry] : entries_of(snapshot.find("histograms"))) {
    const std::string metric = sanitize_metric_name(name);
    out += "# TYPE " + metric + " histogram\n";
    std::uint64_t cumulative = 0;
    if (const stats::Json* buckets = entry->find("buckets")) {
      for (const stats::Json& bucket : buckets->as_array()) {
        cumulative += static_cast<std::uint64_t>(
            bucket.find("count")->as_number());
        out += metric + "_bucket{le=\"" +
               number(bucket.find("le")->as_number()) + "\"} " +
               number(static_cast<double>(cumulative)) + "\n";
      }
    }
    const stats::Json* count = entry->find("count");
    const stats::Json* sum = entry->find("sum");
    const double total = count == nullptr ? 0.0 : count->as_number();
    out += metric + "_bucket{le=\"+Inf\"} " + number(total) + "\n";
    out += metric + "_sum " + number(sum == nullptr ? 0.0 : sum->as_number()) +
           "\n";
    out += metric + "_count " + number(total) + "\n";
  }
  return out;
}

}  // namespace dlb::obs
