#include "obs/aggregate.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/generators.hpp"
#include "dist/dlb2c.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/json.hpp"
#include "stats/rng.hpp"

namespace dlb::obs {
namespace {

// ---- metrics registry ----

TEST(Metrics, CounterGaugeHistogramBasics) {
  Metrics metrics;
  Counter& c = metrics.counter("events");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&metrics.counter("events"), &c);  // stable handle

  Gauge& g = metrics.gauge("depth");
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);

  Histogram& h = metrics.histogram("latency");
  h.observe(0.5);
  h.observe(1.0);
  h.observe(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 3.5);
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  // Every recorded sample sits at or below the p99 bucket bound.
  EXPECT_GE(snap.quantile_bound(0.99), 2.0);
  EXPECT_GT(snap.quantile_bound(0.0), 0.0);
}

TEST(Metrics, NamespacesAreIndependentPerKind) {
  Metrics metrics;
  metrics.counter("x").add(7);
  metrics.gauge("x").set(1.25);
  EXPECT_EQ(metrics.counter("x").value(), 7u);
  EXPECT_DOUBLE_EQ(metrics.gauge("x").value(), 1.25);
}

TEST(Metrics, CounterValuesAreSortedByName) {
  Metrics metrics;
  metrics.counter("zebra").add(1);
  metrics.counter("alpha").add(2);
  metrics.counter("mid").add(3);
  const auto values = metrics.counter_values();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].first, "alpha");
  EXPECT_EQ(values[1].first, "mid");
  EXPECT_EQ(values[2].first, "zebra");
}

TEST(Metrics, SnapshotIsByteDeterministicAcrossInsertionOrder) {
  Metrics forward;
  forward.counter("a").add(1);
  forward.counter("b").add(2);
  forward.gauge("g").set(0.5);
  forward.histogram("h").observe(1.0);

  Metrics reversed;
  reversed.histogram("h").observe(1.0);
  reversed.gauge("g").set(0.5);
  reversed.counter("b").add(2);
  reversed.counter("a").add(1);

  EXPECT_EQ(forward.snapshot().dump(2), reversed.snapshot().dump(2));
}

TEST(Metrics, SnapshotParsesAndCarriesAllSections) {
  Metrics metrics;
  metrics.counter("c").add(9);
  metrics.gauge("g").set(-1.5);
  metrics.histogram("h").observe(4.0);
  const stats::Json doc = stats::Json::parse(metrics.snapshot().dump(2));
  EXPECT_DOUBLE_EQ(doc.find("counters")->find("c")->as_number(), 9.0);
  EXPECT_DOUBLE_EQ(doc.find("gauges")->find("g")->as_number(), -1.5);
  const stats::Json* h = doc.find("histograms")->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h->find("sum")->as_number(), 4.0);
}

// ---- null-safe context helpers ----

TEST(ObsContext, NullContextYieldsNullSinks) {
  EXPECT_EQ(metrics_of(nullptr), nullptr);
  EXPECT_EQ(tracer_of(nullptr), nullptr);
  Context context;
  EXPECT_EQ(metrics_of(&context), nullptr);
  EXPECT_EQ(tracer_of(&context), nullptr);
  Metrics metrics;
  context.metrics = &metrics;
  EXPECT_EQ(metrics_of(&context), &metrics);
}

// ---- tracer ----

TEST(Tracer, RecordsAndSortsEvents) {
  Tracer tracer;
  tracer.begin(2.0, 1, "span", "cat");
  tracer.instant(1.0, 0, "point", "cat", {{"k", std::int64_t{7}}});
  tracer.end(3.0, 1, "span");
  ASSERT_EQ(tracer.size(), 3u);
  const std::vector<TraceEvent> events = tracer.events();
  EXPECT_EQ(events[0].name, "point");  // sorted by timestamp
  EXPECT_EQ(events[1].phase, Phase::kBegin);
  EXPECT_EQ(events[2].phase, Phase::kEnd);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].key, "k");
}

TEST(Tracer, RingBufferDropsNewestAndCounts) {
  Tracer tracer({/*capacity=*/4});
  for (int i = 0; i < 10; ++i) {
    tracer.instant(static_cast<double>(i), 0, "e", "c");
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.capacity(), 4u);
  // The retained prefix is the oldest events, so timestamps 0..3 survive.
  const std::vector<TraceEvent> events = tracer.events();
  EXPECT_DOUBLE_EQ(events.back().ts_us, 3.0);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, ScopedSpanEmitsBeginAndEndWithAnnotations) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, 3, "work", "test", {{"in", std::int64_t{1}}});
    span.annotate({"out", true});
  }
  ASSERT_EQ(tracer.size(), 2u);
  const std::vector<TraceEvent> events = tracer.events();
  EXPECT_EQ(events[0].phase, Phase::kBegin);
  EXPECT_EQ(events[1].phase, Phase::kEnd);
  EXPECT_EQ(events[1].tid, 3u);
  ASSERT_EQ(events[1].args.size(), 1u);
  EXPECT_EQ(events[1].args[0].key, "out");

  // A null tracer makes the span a no-op rather than a crash.
  ScopedSpan noop(nullptr, 0, "x", "y");
  noop.annotate({"k", 1.0});
}

TEST(Tracer, CsvExportHasHeaderAndOneLinePerEvent) {
  Tracer tracer;
  tracer.begin(0.0, 0, "s", "c");
  tracer.end(1.0, 0, "s");
  std::ostringstream out;
  tracer.write_csv(out);
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "ts_us,phase,tid,name,category,args");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 2u);
}

// ---- Chrome trace round trip through a real engine run ----

TEST(Tracer, ChromeTraceRoundTripsFromExchangeEngine) {
  const Instance inst = gen::two_cluster_uniform(4, 2, 48, 1.0, 100.0, 1);
  Schedule schedule(inst, gen::random_assignment(inst, 2));
  Metrics metrics;
  Tracer tracer;
  Context context{&metrics, &tracer};
  dist::EngineOptions options;
  options.max_exchanges = 30;
  options.obs = &context;
  stats::Rng rng(3);
  const dist::RunResult result = dist::run_dlb2c(schedule, options, rng);
  ASSERT_EQ(result.exchanges, 30u);

  const stats::Json doc = stats::Json::parse(tracer.to_chrome_json().dump(2));
  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
  const stats::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 60u);  // one B + one E per exchange

  // Timestamps are monotone and the B/E events pair up per tid (LIFO
  // nesting per track is what the Chrome viewer requires).
  double previous_ts = 0.0;
  std::map<std::uint32_t, int> open_spans;
  for (const stats::Json& event : events->as_array()) {
    const double ts = event.find("ts")->as_number();
    EXPECT_GE(ts, previous_ts);
    previous_ts = ts;
    const auto tid = static_cast<std::uint32_t>(
        event.find("tid")->as_number());
    const std::string& phase = event.find("ph")->as_string();
    if (phase == "B") ++open_spans[tid];
    if (phase == "E") {
      --open_spans[tid];
      EXPECT_GE(open_spans[tid], 0);
    }
  }
  for (const auto& [tid, open] : open_spans) EXPECT_EQ(open, 0) << tid;

  // Metrics recorded the same run.
  EXPECT_EQ(metrics.counter("exchange.count").value(), 30u);
  EXPECT_EQ(metrics.counter("exchange.migrations").value(),
            result.migrations);
}

// ---- thread safety: hammer one counter from pool workers (TSan tier) ----

TEST(Metrics, ThreadPoolWorkersHammerOneCounter) {
  Metrics metrics;
  Context context{&metrics, nullptr};
  Counter& hits = metrics.counter("hits");
  Gauge& depth = metrics.gauge("depth");
  Histogram& latency = metrics.histogram("latency");
  parallel::ThreadPool pool(4);
  pool.attach_obs(&context);  // exercises pool.* instrumentation too
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 1000;
  for (int t = 0; t < kTasks; ++t) {
    pool.submit([&hits, &depth, &latency] {
      for (int i = 0; i < kAddsPerTask; ++i) hits.add();
      depth.set(1.0);
      latency.observe(1e-6);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(hits.value(),
            static_cast<std::uint64_t>(kTasks) * kAddsPerTask);
  EXPECT_EQ(latency.count(), static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(metrics.counter("pool.tasks").value(),
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(metrics.histogram("pool.task_seconds").count(),
            static_cast<std::uint64_t>(kTasks));
  // Snapshotting while workers are alive must also be race-free.
  const stats::Json doc = stats::Json::parse(metrics.snapshot().dump());
  EXPECT_DOUBLE_EQ(doc.find("counters")->find("hits")->as_number(), 64000.0);
}

// ---- percentile export ----

TEST(Metrics, HistogramSnapshotExportsP95Bound) {
  Metrics metrics;
  Histogram& h = metrics.histogram("latency");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const stats::Json doc = stats::Json::parse(metrics.snapshot().dump(2));
  const stats::Json* entry = doc.find("histograms")->find("latency");
  ASSERT_NE(entry, nullptr);
  const stats::Json* p50 = entry->find("p50_bound");
  const stats::Json* p95 = entry->find("p95_bound");
  const stats::Json* p99 = entry->find("p99_bound");
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p95, nullptr);
  ASSERT_NE(p99, nullptr);
  // Bucket bounds are monotone in the quantile, and the p95 bound must
  // cover at least the 95th sample.
  EXPECT_LE(p50->as_number(), p95->as_number());
  EXPECT_LE(p95->as_number(), p99->as_number());
  EXPECT_GE(p95->as_number(), 95.0);
}

TEST(Metrics, HistogramCountsInfinityInTheTopBucket) {
  Histogram h;
  h.observe(std::numeric_limits<double>::infinity());
  const Histogram::Snapshot snap = h.snapshot();
  const double top = 8589934592.0;  // 2^33, the last bucket's bound
  ASSERT_EQ(snap.buckets.size(), 1u);
  EXPECT_EQ(snap.buckets[0].first, top);
  EXPECT_EQ(snap.buckets[0].second, 1u);
  EXPECT_EQ(snap.quantile_bound(0.99), top);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::infinity()),
            Histogram::kNumBuckets - 1);
  for (const double low : {std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -1.0, -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(Histogram::bucket_index(low), 0) << low;
  }
}

// ---- convergence flight recorder ----

FlightSample sample_at(std::uint64_t round) {
  FlightSample s;
  s.round = round;
  s.cmax = 100.0 - static_cast<double>(round);
  s.imbalance = 10.0 - static_cast<double>(round % 10);
  s.exchanges = round * 2;
  s.migrations = round * 3;
  s.queue_max = 32 - round % 8;
  return s;
}

TEST(FlightRecorder, RecordsInOrderBelowCapacity) {
  FlightRecorder flight;
  for (std::uint64_t r = 0; r < 16; ++r) flight.record(sample_at(r));
  EXPECT_EQ(flight.size(), 16u);
  EXPECT_EQ(flight.dropped(), 0u);
  const std::vector<FlightSample> samples = flight.samples();
  ASSERT_EQ(samples.size(), 16u);
  for (std::uint64_t r = 0; r < 16; ++r) {
    EXPECT_EQ(samples[r], sample_at(r)) << "round " << r;
  }
}

TEST(FlightRecorder, RingKeepsNewestSamplesAndCountsEvictions) {
  FlightRecorderOptions options;
  options.capacity = 8;
  FlightRecorder flight(options);
  for (std::uint64_t r = 0; r < 20; ++r) flight.record(sample_at(r));
  EXPECT_EQ(flight.size(), 8u);
  EXPECT_EQ(flight.dropped(), 12u);
  const std::vector<FlightSample> samples = flight.samples();
  ASSERT_EQ(samples.size(), 8u);
  // Newest win (rounds 12..19), oldest first — the opposite policy of
  // the tracer ring, which keeps the head of the stream.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].round, 12 + i);
  }
  flight.clear();
  EXPECT_EQ(flight.size(), 0u);
  EXPECT_EQ(flight.dropped(), 0u);
}

TEST(FlightRecorder, JsonRoundTripsThroughSamplesFromJson) {
  FlightRecorder flight;
  for (std::uint64_t r = 0; r < 5; ++r) flight.record(sample_at(r));
  const stats::Json doc = stats::Json::parse(flight.to_json().dump(2));
  EXPECT_EQ(doc.find("schema")->as_string(), "dlb-flight-v1");
  const std::vector<FlightSample> parsed =
      FlightRecorder::samples_from_json(doc);
  EXPECT_EQ(parsed, flight.samples());
  EXPECT_THROW(FlightRecorder::samples_from_json(stats::Json::object()),
               std::runtime_error);
}

// ---- cluster metric aggregation ----

stats::Json daemon_snapshot(std::uint64_t sessions, double uptime) {
  Metrics metrics;
  metrics.counter("dist.transport.sessions").add(sessions);
  metrics.counter("dist.transport.retries").add(sessions / 2);
  metrics.counter("net.socket.bytes_sent").add(sessions * 100);
  metrics.gauge("daemon.uptime_seconds").set(uptime);
  Histogram& h = metrics.histogram("session.frames");
  for (std::uint64_t i = 0; i < sessions; ++i) {
    h.observe(static_cast<double>(i % 7 + 1));
  }
  return metrics.snapshot();
}

TEST(Aggregate, MergeSumsCountersMaxesGaugesAndMergesHistograms) {
  const stats::Json merged = merge_metrics_snapshots(
      {daemon_snapshot(10, 1.5), daemon_snapshot(6, 3.25)});
  EXPECT_DOUBLE_EQ(merged.find("daemons")->as_number(), 2.0);
  const stats::Json* counters = merged.find("counters");
  EXPECT_DOUBLE_EQ(
      counters->find("dist.transport.sessions")->as_number(), 16.0);
  EXPECT_DOUBLE_EQ(
      counters->find("net.socket.bytes_sent")->as_number(), 1600.0);
  // Gauges keep the worst (max) reading across the fleet.
  EXPECT_DOUBLE_EQ(
      merged.find("gauges")->find("daemon.uptime_seconds")->as_number(),
      3.25);
  // Histogram buckets sum; the merged count covers both daemons.
  const stats::Json* hist =
      merged.find("histograms")->find("session.frames");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 16.0);
  EXPECT_NE(hist->find("p95_bound"), nullptr);
}

TEST(Aggregate, MergeIsByteDeterministicAcrossInputOrder) {
  const stats::Json a = daemon_snapshot(10, 1.5);
  const stats::Json b = daemon_snapshot(6, 3.25);
  EXPECT_EQ(merge_metrics_snapshots({a, b}).dump(2),
            merge_metrics_snapshots({b, a}).dump(2));
}

TEST(Aggregate, VolatileNamesAreClassified) {
  EXPECT_TRUE(metric_is_volatile("net.socket.bytes_sent"));
  EXPECT_TRUE(metric_is_volatile("daemon.uptime_seconds"));
  EXPECT_TRUE(metric_is_volatile("dist.transport.retries"));
  EXPECT_TRUE(metric_is_volatile("dist.transport.duplicates"));
  EXPECT_TRUE(metric_is_volatile("dist.transport.frames_sent"));
  EXPECT_FALSE(metric_is_volatile("dist.transport.sessions"));
  EXPECT_FALSE(metric_is_volatile("dist.transport.migrations"));
  EXPECT_FALSE(metric_is_volatile("dist.transport.exchanges"));
  EXPECT_TRUE(metric_is_volatile("dist.transport.transfers_sent"));
  EXPECT_FALSE(metric_is_volatile("parexchange.retries"));
}

TEST(Aggregate, StableViewDropsTimingDependentSeries) {
  const stats::Json merged = merge_metrics_snapshots(
      {daemon_snapshot(10, 1.5), daemon_snapshot(6, 3.25)});
  const stats::Json stable = stable_cluster_view(merged);
  const stats::Json* counters = stable.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("dist.transport.sessions"), nullptr);
  // Wire behaviour and wall-clock readings are projected out...
  EXPECT_EQ(counters->find("dist.transport.retries"), nullptr);
  EXPECT_EQ(counters->find("net.socket.bytes_sent"), nullptr);
  EXPECT_EQ(stable.find("gauges"), nullptr);
  EXPECT_EQ(stable.find("histograms"), nullptr);
  // ...and the projection itself is byte-deterministic.
  EXPECT_EQ(stable.dump(2), stable_cluster_view(merged).dump(2));
}

TEST(Aggregate, PrometheusExpositionRendersAllKinds) {
  const std::string text = prometheus_exposition(daemon_snapshot(10, 1.5));
  EXPECT_NE(text.find("# TYPE dlb_dist_transport_sessions counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dlb_dist_transport_sessions 10"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dlb_daemon_uptime_seconds gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dlb_session_frames histogram"),
            std::string::npos);
  EXPECT_NE(text.find("dlb_session_frames_bucket{le=\"+Inf\"} 10"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dlb_session_frames_count 10"), std::string::npos);
}

}  // namespace
}  // namespace dlb::obs
