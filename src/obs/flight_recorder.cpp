#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dlb::obs {
namespace {

std::uint64_t get_u64(const stats::Json& entry, const char* key) {
  const stats::Json* value = entry.find(key);
  return value == nullptr ? 0
                          : static_cast<std::uint64_t>(value->as_number());
}

double get_f64(const stats::Json& entry, const char* key) {
  const stats::Json* value = entry.find(key);
  return value == nullptr ? 0.0 : value->as_number();
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : capacity_(std::max<std::size_t>(1, options.capacity)) {}

void FlightRecorder::record(const FlightSample& sample) {
  const std::scoped_lock lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(sample);
    return;
  }
  ring_[head_] = sample;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<FlightSample> FlightRecorder::samples() const {
  const std::scoped_lock lock(mutex_);
  std::vector<FlightSample> out;
  out.reserve(ring_.size());
  // head_ is the oldest slot once wrapped; 0 before that.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::size_t FlightRecorder::size() const {
  const std::scoped_lock lock(mutex_);
  return ring_.size();
}

std::uint64_t FlightRecorder::dropped() const {
  const std::scoped_lock lock(mutex_);
  return dropped_;
}

void FlightRecorder::clear() {
  const std::scoped_lock lock(mutex_);
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

stats::Json FlightRecorder::to_json() const {
  stats::Json doc = stats::Json::object();
  doc["schema"] = "dlb-flight-v1";
  doc["capacity"] = static_cast<double>(capacity_);
  doc["dropped"] = static_cast<double>(dropped());
  stats::Json rows = stats::Json::array();
  for (const FlightSample& s : samples()) {
    stats::Json row = stats::Json::object();
    row["round"] = static_cast<double>(s.round);
    row["cmax"] = s.cmax;
    row["imbalance"] = s.imbalance;
    row["exchanges"] = static_cast<double>(s.exchanges);
    row["migrations"] = static_cast<double>(s.migrations);
    row["frames"] = static_cast<double>(s.frames);
    row["retries"] = static_cast<double>(s.retries);
    row["queue_max"] = static_cast<double>(s.queue_max);
    rows.push_back(std::move(row));
  }
  doc["samples"] = std::move(rows);
  return doc;
}

std::vector<FlightSample> FlightRecorder::samples_from_json(
    const stats::Json& doc) {
  const stats::Json* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "dlb-flight-v1") {
    throw std::runtime_error("not a dlb-flight-v1 document");
  }
  const stats::Json* rows = doc.find("samples");
  std::vector<FlightSample> out;
  if (rows == nullptr) return out;
  out.reserve(rows->size());
  for (const stats::Json& row : rows->as_array()) {
    FlightSample s;
    s.round = get_u64(row, "round");
    s.cmax = get_f64(row, "cmax");
    s.imbalance = get_f64(row, "imbalance");
    s.exchanges = get_u64(row, "exchanges");
    s.migrations = get_u64(row, "migrations");
    s.frames = get_u64(row, "frames");
    s.retries = get_u64(row, "retries");
    s.queue_max = get_u64(row, "queue_max");
    out.push_back(s);
  }
  return out;
}

}  // namespace dlb::obs
