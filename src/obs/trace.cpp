#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>

#include "stats/csv.hpp"

namespace dlb::obs {

namespace {

stats::Json arg_to_json(const TraceArg& arg) {
  return std::visit([](const auto& v) { return stats::Json(v); }, arg.value);
}

std::string arg_to_text(const TraceArg& arg) {
  return std::visit(
      [](const auto& v) -> std::string {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return v;
        } else if constexpr (std::is_same_v<T, bool>) {
          return v ? "true" : "false";
        } else {
          return stats::Json::number_to_string(static_cast<double>(v));
        }
      },
      arg.value);
}

}  // namespace

Tracer::Tracer(TracerOptions options)
    : capacity_(options.capacity == 0 ? 1 : options.capacity),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

double Tracer::now_us() const noexcept {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double, std::micro>(elapsed).count();
}

void Tracer::push(TraceEvent event) {
  std::lock_guard lock(mutex_);
  if (ring_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  ring_.push_back(std::move(event));
}

void Tracer::begin(double ts_us, std::uint32_t tid, std::string_view name,
                   std::string_view category, TraceArgs args) {
  push({ts_us, tid, Phase::kBegin, std::string(name), std::string(category),
        std::move(args)});
}

void Tracer::end(double ts_us, std::uint32_t tid, std::string_view name,
                 TraceArgs args) {
  push({ts_us, tid, Phase::kEnd, std::string(name), std::string(),
        std::move(args)});
}

void Tracer::instant(double ts_us, std::uint32_t tid, std::string_view name,
                     std::string_view category, TraceArgs args) {
  push({ts_us, tid, Phase::kInstant, std::string(name), std::string(category),
        std::move(args)});
}

void Tracer::counter(double ts_us, std::string_view name, double value) {
  push({ts_us, 0, Phase::kCounter, std::string(name), std::string(),
        {{"value", value}}});
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return ring_.size();
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> copy;
  {
    std::lock_guard lock(mutex_);
    copy = ring_;
  }
  std::stable_sort(copy.begin(), copy.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return copy;
}

stats::Json Tracer::to_chrome_json() const {
  stats::Json doc = stats::Json::object();
  doc["displayTimeUnit"] = "ms";
  stats::Json trace_events = stats::Json::array();
  for (const TraceEvent& event : events()) {
    stats::Json entry = stats::Json::object();
    entry["name"] = event.name;
    if (!event.category.empty()) entry["cat"] = event.category;
    entry["ph"] = std::string(1, static_cast<char>(event.phase));
    entry["ts"] = event.ts_us;
    entry["pid"] = 1;
    entry["tid"] = event.tid;
    if (!event.args.empty()) {
      stats::Json args = stats::Json::object();
      for (const TraceArg& arg : event.args) {
        args[arg.key] = arg_to_json(arg);
      }
      entry["args"] = std::move(args);
    }
    trace_events.push_back(std::move(entry));
  }
  doc["traceEvents"] = std::move(trace_events);
  return doc;
}

void Tracer::write_csv(std::ostream& out) const {
  stats::CsvWriter csv(out);
  csv.header({"ts_us", "phase", "tid", "name", "category", "args"});
  for (const TraceEvent& event : events()) {
    std::string args_text;
    for (const TraceArg& arg : event.args) {
      if (!args_text.empty()) args_text += "|";
      args_text += arg.key + "=" + arg_to_text(arg);
    }
    csv.row({stats::CsvWriter::num(event.ts_us),
             std::string(1, static_cast<char>(event.phase)),
             stats::CsvWriter::num(static_cast<std::size_t>(event.tid)),
             event.name, event.category,
             args_text});
  }
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  dropped_ = 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::uint32_t tid,
                       std::string_view name, std::string_view category,
                       TraceArgs args)
    : tracer_(tracer), tid_(tid), name_(name) {
  if (tracer_ == nullptr) return;
  tracer_->begin(tracer_->now_us(), tid_, name_, category, std::move(args));
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tracer_->end(tracer_->now_us(), tid_, name_, std::move(end_args_));
}

void ScopedSpan::annotate(TraceArg arg) {
  if (tracer_ == nullptr) return;
  end_args_.push_back(std::move(arg));
}

}  // namespace dlb::obs
