// Structured end-of-campaign run reports.
//
// build_report() folds a finished CampaignResult together with the
// telemetry registry into a RunReport: campaign outcome (points by
// state, replicas done/resumed, completeness), per-phase latency
// quantiles from the SEG_TIMED histograms (p50/p95/p99 microseconds,
// bucket-interpolated), per-worker utilization from the pool busy
// counters, the adaptive-stopping decision-trace summary, and
// checkpoint counts. render_json() emits it as report.json;
// render_markdown() as a human-readable summary table. write_report()
// dispatches on the extension: ".md"/".markdown" renders markdown,
// anything else JSON.
//
// The report reads only the registry's aggregated snapshot and the
// result struct — building one touches no RNG stream and cannot
// perturb a trajectory.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace seg::obs {

struct PhaseLatency {
  std::string name;      // registry histogram name, e.g. "phase.sweep_us"
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

struct WorkerUtilization {
  std::string name;          // registry counter name
  std::uint64_t busy_us = 0;
  double utilization = 0.0;  // busy_us / wall_time_us, clamped to [0,1]
};

struct RunReport {
  // Campaign outcome.
  std::uint64_t seed = 0;
  std::size_t points = 0;
  std::size_t points_fixed = 0;
  std::size_t points_stopped = 0;
  std::size_t points_capped = 0;
  std::size_t points_open = 0;
  std::size_t replicas_done = 0;
  std::size_t replicas_resumed = 0;
  bool complete = false;
  bool checkpoint_write_failed = false;

  // Telemetry-derived sections.
  double wall_time_s = 0.0;  // campaign wall time, supplied by the caller
  std::uint64_t flips = 0;
  // Graph topologies built; replicas of a point in flight together share
  // one build, so this sits well below replicas_done on graph campaigns.
  std::uint64_t topology_builds = 0;
  std::uint64_t checkpoints_written = 0;
  std::vector<PhaseLatency> phases;       // SEG_TIMED histograms, sorted
  std::vector<WorkerUtilization> workers; // pool busy counters, sorted

  // Adaptive-stopping decision-trace summary.
  std::size_t decisions = 0;
  std::uint64_t decision_trace_hash = 0;
  std::size_t min_stop_replicas = 0;
  std::size_t max_stop_replicas = 0;
  double mean_stop_replicas = 0.0;
};

// Folds `result` + the current registry contents. `wall_time_s` is the
// campaign wall time (used for worker-utilization denominators).
RunReport build_report(const CampaignResult& result, double wall_time_s);

std::string render_json(const RunReport& report);
std::string render_markdown(const RunReport& report);

// Writes the render chosen by `path`'s extension (".md"/".markdown" →
// markdown, else JSON). False on I/O failure.
bool write_report(const RunReport& report, const std::string& path);

}  // namespace seg::obs
