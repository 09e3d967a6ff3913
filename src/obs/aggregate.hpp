#pragma once

// Cluster-wide metric aggregation (docs/cluster-observability.md): merge
// the `obs::Metrics` snapshots scraped from N daemons into one cluster
// document, project out the timing-dependent names so the remainder is
// byte-deterministic for a fixed (seed, plan), and render Prometheus text
// exposition for either view.
//
// Merge semantics per kind:
//  * counters   — summed by name (cluster totals)
//  * gauges     — maximum by name (a gauge is a local reading; the worst
//                 reading is the one an operator pages on)
//  * histograms — bucket-wise sum, with p50/p95/p99 bounds recomputed
//                 from the merged buckets
//
// Determinism split: the lockstep protocol makes *what happened* (sessions
// run, exchanges, jobs migrated, transfers applied) a pure function of the
// seed, but *how the wire behaved* (retransmits, duplicate deliveries,
// socket byte counts, uptime) depends on scheduling. stable_cluster_view()
// keeps only the former, and CI asserts that view byte-identical across
// same-seed runs while uploading the full merged snapshot as an artifact.

#include <string_view>
#include <vector>

#include "stats/json.hpp"

namespace dlb::obs {

/// Merge N Metrics::snapshot() documents. Output carries `daemons` (input
/// count) plus the usual `counters`/`gauges`/`histograms` sections, all
/// name-sorted and byte-deterministic given identical inputs.
[[nodiscard]] stats::Json merge_metrics_snapshots(
    const std::vector<stats::Json>& snapshots);

/// True for metric names whose values depend on wall-clock timing rather
/// than the deterministic plan (net.socket.*, the transport's retry,
/// duplicate, transfer and frame counters, uptime).
[[nodiscard]] bool metric_is_volatile(std::string_view name) noexcept;

/// Deterministic projection of a snapshot (merged or per-daemon): drops
/// gauges, histograms, and every volatile counter. Byte-identical across
/// same-seed runs regardless of scheduling, retransmissions, or host
/// speed.
[[nodiscard]] stats::Json stable_cluster_view(const stats::Json& snapshot);

/// Prometheus text exposition (v0.0.4) of a snapshot document. Metric
/// names are prefixed `dlb_` and sanitized to [a-zA-Z0-9_:]; histograms
/// render cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
[[nodiscard]] std::string prometheus_exposition(const stats::Json& snapshot);

}  // namespace dlb::obs
